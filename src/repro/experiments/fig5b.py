"""Figure 5-b: communication cost comparison (log scale in the paper).

Methodology (Section VI-B3): same query as Figure 5-a
(``delta/sigma = 1``, ``epsilon/sigma = 0.25``, ``p = 0.95``), but the
metric is the *total number of messages*:

* ``ALL+ALL`` — push every tuple every step (exact baseline);
* ``ALL+FILTER`` — Olston adaptive filters with precision window
  ``H - L < 2 epsilon``;
* ``ALL+INDEP`` — naive sample-based pull;
* ``Digest`` — PRED3 + RPT.

Expected shape: Digest beats ALL+FILTER by over an order of magnitude and
ALL+ALL by almost two; even ALL+INDEP beats ALL+FILTER; Digest's advantage
over ALL+INDEP roughly doubles relative to the sample-count comparison
because retained samples are (nearly) free to derive.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.olston_filter import FilterConfig, OlstonFilterBaseline
from repro.baselines.push_all import PushAllBaseline
from repro.core.query import Precision
from repro.experiments.harness import (
    build_instance,
    canonical_query,
    make_engine,
    pick_origin,
    run_continuous_query,
)
from repro.experiments.report import format_table
from repro.obs.console import emit

SYSTEMS = ("ALL+ALL", "ALL+FILTER", "ALL+INDEP", "Digest(PRED3+RPT)")


@dataclass
class Fig5bResult:
    dataset: str
    sigma: float
    messages: dict[str, int]
    samples: dict[str, int]  # zero for push-based systems

    def ratio(self, system: str) -> float:
        """Message ratio of ``system`` over Digest."""
        digest = self.messages["Digest(PRED3+RPT)"]
        return self.messages[system] / digest if digest else float("inf")

    def to_table(self) -> str:
        headers = ["system", "total messages", "x Digest", "samples"]
        rows = [
            [name, self.messages[name], self.ratio(name), self.samples[name]]
            for name in SYSTEMS
        ]
        return format_table(
            headers,
            rows,
            title=f"Figure 5-b ({self.dataset}): total communication cost",
        )


def run(
    dataset: str = "temperature",
    scale: float = 0.25,
    seed: int = 0,
    delta_ratio: float = 1.0,
    epsilon_ratio: float = 0.25,
    confidence: float = 0.95,
) -> Fig5bResult:
    # default scale is larger than the other figures': the separation
    # between push- and sample-based systems grows with relation size, and
    # 0.25 is the smallest scale where the paper's orders-of-magnitude
    # ordering is unambiguous
    probe = build_instance(dataset, scale, seed)
    sigma = probe.config.expected_sigma  # type: ignore[attr-defined]
    precision = Precision(
        delta=delta_ratio * sigma,
        epsilon=epsilon_ratio * sigma,
        confidence=confidence,
    )
    messages: dict[str, int] = {}
    samples: dict[str, int] = {}

    # --- push-based systems -------------------------------------------------
    for name in ("ALL+ALL", "ALL+FILTER"):
        instance = build_instance(dataset, scale, seed)
        origin = pick_origin(instance, seed)
        query = canonical_query(instance, precision).query
        if name == "ALL+ALL":
            system = PushAllBaseline(
                instance.graph, instance.database, query, origin
            )
        else:
            system = OlstonFilterBaseline(
                instance.graph,
                instance.database,
                query,
                origin,
                FilterConfig(epsilon_bound=precision.epsilon),
            )
        for time in range(instance.n_steps):
            instance.step(time)
            system.step(time)
        messages[name] = system.ledger.total
        samples[name] = 0

    # --- sample-based systems ----------------------------------------------
    for name, scheduler, evaluator in (
        ("ALL+INDEP", "all", "independent"),
        ("Digest(PRED3+RPT)", "pred", "repeated"),
    ):
        instance = build_instance(dataset, scale, seed)
        origin = pick_origin(instance, seed)
        engine = make_engine(
            instance, precision, scheduler, evaluator, origin, seed
        )
        run_result = run_continuous_query(instance, engine)
        messages[name] = run_result.messages_total
        samples[name] = run_result.samples_total

    return Fig5bResult(
        dataset=dataset, sigma=sigma, messages=messages, samples=samples
    )


def main() -> int:
    from repro.experiments.plotting import ascii_bars

    result = run(dataset="temperature")
    emit(result.to_table())
    emit()
    emit(
        ascii_bars(
            {name: float(result.messages[name]) for name in SYSTEMS},
            title="Figure 5-b: total messages",
            log=True,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
