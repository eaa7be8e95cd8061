"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the unified bookkeeping substrate behind the formerly
ad-hoc telemetry surfaces (``StageReport``, ``WaveTelemetry``,
``BatchReport``): the engine, stream sessions, kernels, and the solver
service all record into a :class:`MetricsRegistry`, and the reporting
surfaces render views over it (human tables, Prometheus exposition,
JSON snapshots).

Series identity is ``(name, sorted(labels))``.  Three kinds:

* **counter** — monotonically increasing; integer increments stay exact
  integers.
* **gauge** — last-written value; merges take the maximum so folding is
  commutative.
* **histogram** — fixed bucket edges captured at first observation and
  carried in every snapshot; observations land in the first bucket with
  ``value <= edge`` (``+Inf`` implied).

Snapshot/merge semantics are built for deterministic fold-in: service
children each keep a private registry, snapshot it, and the parent
folds all snapshots in one :meth:`MetricsRegistry.merge`
call.  Integer counters add exactly in any order; float sums are folded
with :func:`math.fsum`, which computes the exact sum and rounds once,
so a single merge call is permutation-invariant over its inputs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

SNAPSHOT_FORMAT = "repro-mis-metrics"
SNAPSHOT_VERSION = 1

#: Default histogram edges for wall-clock seconds (``+Inf`` implied).
TIME_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
    300.0,
)

_LabelItems = Tuple[Tuple[str, str], ...]
_SeriesKey = Tuple[str, _LabelItems]


def _label_items(labels: Mapping[str, object]) -> _LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: object) -> str:
    """Render a number the way Prometheus text exposition expects."""

    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if number == math.inf:
        return "+Inf"
    if number == -math.inf:
        return "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class MetricsRegistry:
    """Labeled counters, gauges, and fixed-bucket histograms."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[_SeriesKey, float] = {}
        self._gauges: Dict[_SeriesKey, float] = {}
        self._histograms: Dict[_SeriesKey, Dict[str, object]] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def describe(self, name: str, help_text: str) -> None:
        """Attach a one-line description rendered as ``# HELP``."""

        self._help[name] = help_text

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Increment the counter series by ``value`` (default 1)."""

        key = (name, _label_items(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def advance(self, name: str, target: float, **labels: object) -> float:
        """Raise a counter to ``target`` and return the (>= 0) delta.

        The stream session mirrors maintainer totals into counters with
        it; the totals stay the source.
        """

        key = (name, _label_items(labels))
        current = self._counters.get(key, 0)
        delta = target - current
        if delta <= 0:
            return 0
        self._counters[key] = target
        return delta

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self._gauges[(name, _label_items(labels))] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = TIME_BUCKETS,
        **labels: object,
    ) -> None:
        """Record ``value`` into the histogram series.

        Bucket edges are fixed at the first observation of a series;
        later observations (and merges) must agree on the edges.
        """

        key = (name, _label_items(labels))
        series = self._histograms.get(key)
        edges = tuple(float(edge) for edge in buckets)
        if series is None:
            series = {
                "buckets": edges,
                "counts": [0] * (len(edges) + 1),
                "sum": [],
                "count": 0,
            }
            self._histograms[key] = series
        elif series["buckets"] != edges:
            raise ValueError(
                f"histogram {name!r} bucket edges changed: "
                f"{series['buckets']} != {edges}"
            )
        counts: List[int] = series["counts"]  # type: ignore[assignment]
        index = len(edges)
        for i, edge in enumerate(edges):
            if value <= edge:
                index = i
                break
        counts[index] += 1
        series["sum"].append(float(value))  # type: ignore[union-attr]
        series["count"] = int(series["count"]) + 1

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object) -> float:
        """Current counter (or gauge) value; 0 when the series is absent."""

        key = (name, _label_items(labels))
        if key in self._counters:
            return self._counters[key]
        return self._gauges.get(key, 0)

    def snapshot(self) -> Dict[str, object]:
        """Versioned, deterministically ordered dump of every series."""

        series: List[Dict[str, object]] = []
        for (name, items), value in self._counters.items():
            series.append(
                {
                    "name": name,
                    "labels": dict(items),
                    "kind": "counter",
                    "value": value,
                }
            )
        for (name, items), value in self._gauges.items():
            series.append(
                {
                    "name": name,
                    "labels": dict(items),
                    "kind": "gauge",
                    "value": value,
                }
            )
        for (name, items), hist in self._histograms.items():
            series.append(
                {
                    "name": name,
                    "labels": dict(items),
                    "kind": "histogram",
                    "buckets": list(hist["buckets"]),  # type: ignore[arg-type]
                    "counts": list(hist["counts"]),  # type: ignore[arg-type]
                    "sum": math.fsum(hist["sum"]),  # type: ignore[arg-type]
                    "count": hist["count"],
                }
            )
        series.sort(key=lambda entry: (entry["name"], sorted(entry["labels"].items())))
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "series": series,
            "help": dict(sorted(self._help.items())),
        }

    # ------------------------------------------------------------------
    # merge / restore
    # ------------------------------------------------------------------
    def merge(self, *snapshots: Mapping[str, object]) -> None:
        """Fold one or more snapshots into this registry.

        All float sums contributed by ``snapshots`` for one series are
        folded with a single :func:`math.fsum` together with the local
        value, so one ``merge`` call gives the same bits regardless of
        the order its arguments are passed in.  Counters and histogram
        bucket counts add; gauges take the maximum.
        """

        counter_parts: Dict[_SeriesKey, List[float]] = {}
        hist_sum_parts: Dict[_SeriesKey, List[float]] = {}
        for snap in snapshots:
            if snap.get("format") != SNAPSHOT_FORMAT:
                raise ValueError(f"not a metrics snapshot: {snap.get('format')!r}")
            if snap.get("version") != SNAPSHOT_VERSION:
                raise ValueError(
                    f"unsupported metrics snapshot version {snap.get('version')!r}"
                )
            for entry in snap.get("series", ()):  # type: ignore[union-attr]
                name = entry["name"]
                key = (name, _label_items(entry.get("labels", {})))
                kind = entry["kind"]
                if kind == "counter":
                    counter_parts.setdefault(key, []).append(entry["value"])
                elif kind == "gauge":
                    current = self._gauges.get(key)
                    value = entry["value"]
                    if current is None or value > current:
                        self._gauges[key] = value
                elif kind == "histogram":
                    edges = tuple(float(edge) for edge in entry["buckets"])
                    series = self._histograms.get(key)
                    if series is None:
                        series = {
                            "buckets": edges,
                            "counts": [0] * (len(edges) + 1),
                            "sum": [],
                            "count": 0,
                        }
                        self._histograms[key] = series
                    elif series["buckets"] != edges:
                        raise ValueError(
                            f"histogram {name!r} bucket edges mismatch on merge"
                        )
                    counts: List[int] = series["counts"]  # type: ignore[assignment]
                    incoming = entry["counts"]
                    if len(incoming) != len(counts):
                        raise ValueError(
                            f"histogram {name!r} bucket count mismatch on merge"
                        )
                    for i, count in enumerate(incoming):
                        counts[i] += count
                    hist_sum_parts.setdefault(key, []).append(float(entry["sum"]))
                    series["count"] = int(series["count"]) + int(entry["count"])
                else:  # pragma: no cover - forward-compat guard
                    raise ValueError(f"unknown series kind {kind!r}")
        for key, parts in counter_parts.items():
            local = self._counters.get(key, 0)
            if all(isinstance(part, int) for part in parts) and isinstance(local, int):
                self._counters[key] = local + sum(parts)
            else:
                self._counters[key] = math.fsum([local] + parts)
        for key, parts in hist_sum_parts.items():
            series = self._histograms[key]
            series["sum"].append(math.fsum(parts))  # type: ignore[union-attr]

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, object]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        help_map = snapshot.get("help")
        if isinstance(help_map, Mapping):
            registry._help.update(help_map)
        return registry

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every series."""

        snapshot = self.snapshot()
        by_name: Dict[str, List[Dict[str, object]]] = {}
        kinds: Dict[str, str] = {}
        for entry in snapshot["series"]:  # type: ignore[union-attr]
            by_name.setdefault(entry["name"], []).append(entry)
            kinds[entry["name"]] = entry["kind"]
        lines: List[str] = []
        for name in sorted(by_name):
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kinds[name]}")
            for entry in by_name[name]:
                labels = entry["labels"]
                if entry["kind"] == "histogram":
                    cumulative = 0
                    for edge, count in zip(
                        list(entry["buckets"]) + [math.inf], entry["counts"]
                    ):
                        cumulative += count
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_value(edge)
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_labels)}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)}"
                        f" {_format_value(entry['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} {entry['count']}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)}"
                        f" {_format_value(entry['value'])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def render_rows(self) -> List[List[str]]:
        """``[series, kind, value]`` rows for the human-readable table."""

        rows: List[List[str]] = []
        for entry in self.snapshot()["series"]:  # type: ignore[union-attr]
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(entry["labels"].items())
            )
            series = entry["name"] + (f"{{{label_text}}}" if label_text else "")
            if entry["kind"] == "histogram":
                value = (
                    f"count={entry['count']}"
                    f" sum={_format_value(entry['sum'])}"
                )
            else:
                value = _format_value(entry["value"])
            rows.append([series, entry["kind"], value])
        return rows


def _render_labels(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


class NullRegistry(MetricsRegistry):
    """Inert registry: every recording call is a no-op."""

    enabled = False

    def describe(self, name: str, help_text: str) -> None:  # noqa: D102
        return None

    def inc(self, name: str, value: float = 1, **labels: object) -> None:  # noqa: D102
        return None

    def advance(self, name: str, target: float, **labels: object) -> float:  # noqa: D102
        return 0

    def set_gauge(self, name: str, value: float, **labels: object) -> None:  # noqa: D102
        return None

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = TIME_BUCKETS,
        **labels: object,
    ) -> None:  # noqa: D102
        return None

    def merge(self, *snapshots: Mapping[str, object]) -> None:  # noqa: D102
        return None
