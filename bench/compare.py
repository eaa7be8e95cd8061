#!/usr/bin/env python3
"""Diff two sets of benchmark results per workload and metric.

Usage::

    python3 bench/compare.py --base OLD/*.json --new NEW/*.json

Each side is one or more results files written by ``bench/run.py`` (in
``.bench_results/``), normally ten seeds of each workload.  Other files
given (the ``*.trace.json`` traces written beside the results) are
skipped.  Untraced and traced runs are kept apart: a row's workload
reads ``W`` for ``--trace 0`` runs and ``W+trace`` for ``--trace 1``
runs.  For every (workload, end-to-end metric) the tool takes each side's median and its
spread (the distance between the first and third quartile as a share of
the median) and judges the change against the metric's ``bound`` in
``BENCHMARK.json``:

* ``worse``: the new median is worse by more than the bound;
* ``better``: it is better by more than the spread of both sides;
* ``same``: neither;
* ``unresolved``: a side's spread is wider than the bound (or a side has
  fewer than two runs), unless every new run is better, or every new run
  worse, than every base run.

Per-layer metrics (traced runs) have no bound; their rows show the
change only.  The exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_side(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, one per results file."""

    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if not isinstance(document, dict) or "result" not in document:
            continue  # a trace, not a results file
        workload = document["workload"] + ("+trace" if document.get("trace") else "")
        for name, entry in document["result"]["metrics"].items():
            values[(workload, name)].append(float(entry["value"]))
        for name, value in document.get("reported", {}).items():
            values[(workload, name)].append(float(value))
    return values


def spread(values: List[float]) -> Optional[float]:
    """Quartile distance over the median (``None`` below two runs)."""

    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if max(values) == min(values) else None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def judge(base: List[float], new: List[float], metric: Optional[dict]) -> dict:
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = (new_median - base_median) / abs(base_median) if base_median else 0.0
    row = {
        "base_median": base_median,
        "new_median": new_median,
        "change": change,
        "base_spread": spread(base),
        "new_spread": spread(new),
        "runs": [len(base), len(new)],
    }
    if metric is None or "bound" not in metric:
        row["verdict"] = "info"
        return row
    bound = metric["bound"]
    # Positive ``worse_by`` means the change made the metric worse.
    worse_by = change if metric["better"] == "lower" else -change
    if metric["better"] == "lower":
        all_better = max(new) < min(base)
        all_worse = min(new) > max(base)
    else:
        all_better = min(new) > max(base)
        all_worse = max(new) < min(base)
    spreads = [row["base_spread"], row["new_spread"]]
    noisy = any(s is None or s > bound for s in spreads)
    if noisy:
        verdict = "better" if all_better else "worse" if all_worse else "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif -worse_by > max(spreads):
        verdict = "better"
    else:
        verdict = "same"
    row["bound"] = bound
    row["verdict"] = verdict
    return row


def compare(base_paths: List[str], new_paths: List[str]) -> List[dict]:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load_side(base_paths)
    new = load_side(new_paths)
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, name = key
        row = judge(base[key], new[key], metrics.get(name))
        row.update(workload=workload, metric=name, unit=metrics.get(name, {}).get("unit"))
        rows.append(row)
    return rows


def _pct(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{100 * value:.1f}%"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="results files of the parent")
    parser.add_argument("--new", nargs="+", required=True, help="results files of the change")
    args = parser.parse_args(argv)
    rows = compare(args.base, args.new)
    print(
        f"{'workload':22s} {'metric':30s} {'base':>12s} {'new':>12s} "
        f"{'change':>8s} {'spread b/n':>15s} {'bound':>6s}  verdict"
    )
    for row in rows:
        bound = row.get("bound")
        print(
            f"{row['workload']:22s} {row['metric']:30s} "
            f"{row['base_median']:12.5g} {row['new_median']:12.5g} "
            f"{_pct(row['change']):>8s} "
            f"{_pct(row['base_spread']) + '/' + _pct(row['new_spread']):>15s} "
            f"{'' if bound is None else _pct(bound):>6s}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
