"""Incremental maintenance of an independent set under graph updates.

The paper's conclusion lists "incremental massive graphs with frequent
updates" as the main direction for future work.  This sub-package provides
that direction: :class:`DynamicMISMaintainer` keeps a maximal
independent set valid across edge insertions/deletions, vertex arrivals
and vertex deletions, repairing locally after each update.  Batched
updates (``apply_updates``) dispatch through the kernel-backend lookup
— scalar python reference or conflict-free numpy waves, bit-identical —
and the delta overlay compacts back into fresh CSR base arrays past
``compact_threshold``.  A ``rebuild`` hook re-runs the swap pipelines
when the accumulated drift warrants it, and
:class:`repro.pipeline.stream.StreamSession` turns the maintainer into a
checkpointed streaming session (``repro-mis watch``).
"""

from repro.dynamic.maintainer import DynamicMISMaintainer, UpdateStats

__all__ = ["DynamicMISMaintainer", "UpdateStats"]
