"""Non-sampling baselines for the communication-cost comparison (Fig. 5-b).

* :mod:`repro.baselines.push_all` — ``ALL + ALL``: every tuple's value is
  pushed to the querying node at every step (exact, maximally expensive).
* :mod:`repro.baselines.olston_filter` — ``ALL + FILTER``: adaptive
  bound-width filters per Olston et al. (SIGMOD'03); nodes push only
  values that escape their filter windows, and window widths adapt to
  update rates under a total-width budget that guarantees the same
  ``2 epsilon`` precision the paper configures.

Two in-network alternatives from the related work (Section VII) are also
implemented so the paper's qualitative claims about them are measurable:

* :mod:`repro.baselines.push_sum` — gossip aggregation (refs [4]/[8]);
* :mod:`repro.baselines.tree_aggregation` — TAG-style spanning-tree
  aggregation (ref [15]) with its churn fragility.

The sampling-based configurations (``ALL + INDEP`` and Digest itself) are
:class:`~repro.core.session.DigestSession` queries, not separate
baselines — see :class:`~repro.core.session.EngineConfig`.
"""

from repro.baselines.olston_filter import FilterConfig, OlstonFilterBaseline
from repro.baselines.push_all import PushAllBaseline
from repro.baselines.push_sum import PushSumBaseline, PushSumRun
from repro.baselines.tree_aggregation import (
    TreeAggregationBaseline,
    TreeSnapshot,
)

__all__ = [
    "FilterConfig",
    "OlstonFilterBaseline",
    "PushAllBaseline",
    "PushSumBaseline",
    "PushSumRun",
    "TreeAggregationBaseline",
    "TreeSnapshot",
]
