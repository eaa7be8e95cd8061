"""Comparator algorithms evaluated against the paper's contribution.

* :mod:`repro.baselines.unsorted` — "Baseline": the semi-external greedy
  scan without the global degree ordering.
* :mod:`repro.baselines.dynamic_update` — "DynamicUpdate": the classic
  in-memory minimum-degree greedy with dynamic degree updates
  (Halldórsson & Radhakrishnan), which is *not* semi-external.
* :mod:`repro.baselines.external_mis` — "STXXL": an external-memory
  maximal-independent-set algorithm in the style of Zeh's time-forward
  processing, used as the external comparator.
* :mod:`repro.baselines.exact` — exact branch-and-bound solver for small
  graphs (ground truth in the tests).
* :mod:`repro.baselines.local_search` — an in-memory (1,2)-swap descent
  to a local optimum, an additional comparator for ablations.
"""

from repro.baselines.unsorted import baseline_mis
from repro.baselines.dynamic_update import dynamic_update_mis
from repro.baselines.external_mis import external_maximal_is
from repro.baselines.exact import exact_mis, independence_number
from repro.baselines.local_search import local_search_mis

__all__ = [
    "baseline_mis",
    "dynamic_update_mis",
    "external_maximal_is",
    "exact_mis",
    "independence_number",
    "local_search_mis",
]
