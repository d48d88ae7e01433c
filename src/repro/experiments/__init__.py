"""Experiment harness reproducing every table and figure (Section VI).

Each module exposes ``run(...) -> <Result>`` returning structured rows and
a ``main()`` that prints the same series the paper plots:

* :mod:`repro.experiments.fig4a` — snapshot queries vs ``delta/sigma``
  for ALL and PRED-k (Figure 4-a).
* :mod:`repro.experiments.fig4b` — samples per snapshot query vs
  ``epsilon`` for INDEP and RPT (Figure 4-b).
* :mod:`repro.experiments.fig5a` — total samples for the four
  scheduler x evaluator combinations (Figure 5-a) and the improvement
  factors quoted in Section VI-B3.
* :mod:`repro.experiments.fig5b` — total messages for ALL+ALL,
  ALL+FILTER, ALL+INDEP and Digest (Figure 5-b).
* :mod:`repro.experiments.table1` — Monte-Carlo verification of the
  estimator variances (Table 1).
* :mod:`repro.experiments.table2` — generator calibration vs the
  published dataset parameters (Table II).
* :mod:`repro.experiments.mixing` — sampling cost scaling vs network
  size (Theorem 4 and the measured messages-per-sample).
* :mod:`repro.experiments.ablations` — design-choice ablations called
  out in DESIGN.md.
* :mod:`repro.experiments.multi_query` — shared multi-query session vs
  one session per query: messages per query, pool hit rate, per-query
  ``(epsilon, p)`` coverage (the amortization of Section III's shared
  operator).
"""

from repro.experiments.harness import (
    ExperimentRun,
    build_instance,
    make_engine,
    run_continuous_query,
)

__all__ = [
    "ExperimentRun",
    "build_instance",
    "make_engine",
    "run_continuous_query",
]
