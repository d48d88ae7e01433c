"""Per-query guarantee auditing: promised vs. achieved ``(ε, p)``.

The paper's contract is live — at every update time the estimate must
satisfy ``|X̂ − X| <= ε`` with probability ``p`` — so the reproduction
should judge it live too. A :class:`GuaranteeAuditor` is registered with
each query's *promise* (its precision parameters) and is a
:class:`~repro.obs.tracer.TraceSink`: it audits every ``snapshot_query``
span the session ends for that query. A snapshot violates the promise
when the evaluator had to degrade it, or when its honest re-statement
(the span's ``achieved_epsilon`` / ``achieved_confidence``) falls short
of what was promised.

A span that carries the caller's ``truth`` also counts toward
**coverage**: the answer is within when ``|aggregate − truth| <= max(ε,
achieved_epsilon)``. Coverage is reported next to the burn rate (which
it leaves untouched) with its Clopper–Pearson upper bound.

A replay (:class:`repro.obs.alerts.AlertReplay`) feeds a rebuilt auditor
the recorded spans, so live and replayed audits read the same record. A
session on :data:`~repro.obs.tracer.NULL_TRACER` ends no spans, so it
keeps no audit, just as it keeps no counters.

SLO framing: a promise of confidence ``p`` budgets a ``1 − p`` fraction
of violating snapshots. The **burn rate** over the recent observation
window is::

    burn = violating_fraction / (1 - p)

``burn <= 1`` means the query is living within its error budget;
``burn > 1`` means it is burning budget faster than the promise allows
(the standard SRE reading, per-query). :meth:`GuaranteeAuditor.signals`
exposes the worst burn rate and the overall recent violation fraction as
live-pipeline contributor signals, so burn-rate alert rules
(:mod:`repro.obs.alerts`) can page on them; :meth:`verdict` renders one
query's full audit as an immutable :class:`AuditVerdict`.

This module imports nothing from ``repro.core`` (the session imports
*us*); it reads only span attributes.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from scipy.stats import beta

from repro.errors import QueryError
from repro.obs.schema import SPAN_SNAPSHOT_QUERY

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.tracer import Span, Trace, TraceEvent

#: trace meta key under which a session records every query's promise
#: (``{query_id: {"epsilon": ..., "confidence": ...}}``), so a replayed
#: trace can rebuild the auditor — and therefore the burn-rate signals —
#: without the session that produced it
META_PROMISES = "promises"

#: two-sided level of the coverage interval: a false alarm near 1e-3 per
#: run, yet coverage of 0.88 or less over 120 answer ticks still fails
COVERAGE_ALPHA = 0.002


def coverage_upper_bound(within: int, answers: int, trials: int) -> float:
    """Clopper–Pearson upper bound on the coverage probability.

    Answers emitted at the same tick share one walk batch, so they are
    not independent trials: the interval is taken over ``trials``, the
    number of distinct answer ticks, at the observed coverage rate. That
    is conservative against correlated misses yet still rejects a real
    shortfall (e.g. 0.85 observed over 80 ticks).
    """
    if trials == 0:
        return 0.0
    hits = round(trials * within / answers)
    if hits >= trials:
        return 1.0
    return float(beta.ppf(1.0 - COVERAGE_ALPHA / 2, hits + 1, trials - hits))


@dataclass(frozen=True)
class GuaranteePromise:
    """One query's declared precision contract."""

    query_id: str
    epsilon: float
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise QueryError(
                f"promise for {self.query_id!r}: confidence must be in "
                f"(0, 1), got {self.confidence}"
            )
        if self.epsilon <= 0.0:
            raise QueryError(
                f"promise for {self.query_id!r}: epsilon must be > 0, "
                f"got {self.epsilon}"
            )

    @property
    def error_budget(self) -> float:
        """Allowed violating fraction (``1 - p``)."""
        return 1.0 - self.confidence


@dataclass(frozen=True)
class Coverage:
    """Answers judged against the truth, those within ε, and the trials
    (distinct answer ticks session-wide, answers per query)."""

    answers: int
    within: int
    trials: int

    @property
    def rate(self) -> float:
        return self.within / self.answers if self.answers else 0.0

    @property
    def upper_bound(self) -> float:
        return coverage_upper_bound(self.within, self.answers, self.trials)


@dataclass(frozen=True)
class AuditVerdict:
    """One query's audit standing at a point in the run."""

    query_id: str
    promised_epsilon: float
    promised_confidence: float
    snapshots: int
    violations: int
    recent_violations: int
    recent_window: int
    burn_rate: float
    ok: bool
    #: this query's answers judged against a caller-supplied truth
    coverage: Coverage

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.snapshots if self.snapshots else 0.0


class GuaranteeAuditor:
    """Continuously compares achieved precision against each promise.

    ``recent_window`` bounds the burn-rate horizon: the rate is computed
    over the last that-many observations per query (bounded memory, and
    a recovered query stops paging once the bad snapshots age out).
    """

    def __init__(self, recent_window: int = 16) -> None:
        if recent_window < 1:
            raise QueryError(
                f"recent_window must be >= 1, got {recent_window}"
            )
        self.recent_window = recent_window
        self._promises: dict[str, GuaranteePromise] = {}
        self._recent: dict[str, deque[bool]] = {}
        self._snapshots: dict[str, int] = {}
        self._violations: dict[str, int] = {}
        self._judged: Counter[str] = Counter()
        self._within: Counter[str] = Counter()
        self._answer_ticks: set[int] = set()

    def register(
        self, query_id: str, epsilon: float, confidence: float
    ) -> GuaranteePromise:
        """Declare one query's promise (idempotent for equal promises)."""
        promise = GuaranteePromise(query_id, epsilon, confidence)
        existing = self._promises.get(query_id)
        if existing is not None and existing != promise:
            raise QueryError(
                f"query {query_id!r} already registered with a different "
                f"promise"
            )
        self._promises[query_id] = promise
        self._recent.setdefault(
            query_id, deque(maxlen=self.recent_window)
        )
        self._snapshots.setdefault(query_id, 0)
        self._violations.setdefault(query_id, 0)
        return promise

    def query_ids(self) -> list[str]:
        return sorted(self._promises)

    def violates(
        self,
        query_id: str,
        degraded: bool,
        achieved_epsilon: float | None,
        achieved_confidence: float | None,
    ) -> bool:
        """Do these snapshot outcomes break the query's promise?

        A degraded estimate is a violation by definition (the evaluator
        itself declared the contract unmet); additionally, an honest
        re-statement that promises less than the contract — wider
        interval at the promised confidence, or less confidence at the
        promised interval — violates even if the degraded flag were ever
        decoupled from it.
        """
        promise = self._promise(query_id)
        if degraded:
            return True
        if achieved_epsilon is not None and achieved_epsilon > promise.epsilon:
            return True
        return (
            achieved_confidence is not None
            and achieved_confidence < promise.confidence
        )

    def on_span_end(self, span: "Span") -> None:
        """Audit a finished ``snapshot_query`` span of a registered query.

        ``degraded`` is always set; the re-statements and ``truth`` only
        when present.
        """
        if span.name != SPAN_SNAPSHOT_QUERY:
            return
        query_id = span.attrs.get("query")
        if not isinstance(query_id, str) or query_id not in self._promises:
            return
        achieved_epsilon = _as_optional_float(span.attrs.get("achieved_epsilon"))
        violated = self.violates(
            query_id,
            bool(span.attrs.get("degraded", False)),
            achieved_epsilon,
            _as_optional_float(span.attrs.get("achieved_confidence")),
        )
        self._snapshots[query_id] += 1
        if violated:
            self._violations[query_id] += 1
        self._recent[query_id].append(violated)
        truth = _as_optional_float(span.attrs.get("truth"))
        if truth is None:
            return
        tolerance = max(self._promises[query_id].epsilon, achieved_epsilon or 0.0)
        within = abs(float(span.attrs["aggregate"]) - truth) <= tolerance
        self._judged[query_id] += 1
        self._within[query_id] += within
        self._answer_ticks.add(span.start)

    def on_event(self, event: "TraceEvent") -> None:
        return None

    def _promise(self, query_id: str) -> GuaranteePromise:
        try:
            return self._promises[query_id]
        except KeyError:
            raise QueryError(
                f"no promise registered for query {query_id!r}"
            ) from None

    def burn_rate(self, query_id: str) -> float:
        """Recent violating fraction over the promise's error budget."""
        promise = self._promise(query_id)
        recent = self._recent[query_id]
        if not recent:
            return 0.0
        fraction = sum(recent) / len(recent)
        return fraction / promise.error_budget

    def verdict(self, query_id: str) -> AuditVerdict:
        """The query's current audit standing."""
        promise = self._promise(query_id)
        recent = self._recent[query_id]
        burn = self.burn_rate(query_id)
        judged = self._judged[query_id]
        return AuditVerdict(
            query_id=query_id,
            promised_epsilon=promise.epsilon,
            promised_confidence=promise.confidence,
            snapshots=self._snapshots[query_id],
            violations=self._violations[query_id],
            recent_violations=sum(recent),
            recent_window=self.recent_window,
            burn_rate=burn,
            ok=burn <= 1.0,
            coverage=Coverage(judged, self._within[query_id], judged),
        )

    def verdicts(self) -> dict[str, AuditVerdict]:
        """All verdicts, keyed by query id (sorted)."""
        return {query_id: self.verdict(query_id) for query_id in self.query_ids()}

    def coverage(self) -> Coverage:
        """Every judged answer of the session, over distinct answer ticks."""
        return Coverage(
            sum(self._judged.values()),
            sum(self._within.values()),
            len(self._answer_ticks),
        )

    def signals(self) -> dict[str, float]:
        """Live-pipeline contributor signals (worst-case across queries)."""
        burns = [self.burn_rate(query_id) for query_id in self._promises]
        recents = [len(r) for r in self._recent.values()]
        violations = [sum(r) for r in self._recent.values()]
        total_recent = sum(recents)
        return {
            "audit_burn_rate": max(burns, default=0.0),
            "audit_violation_fraction": (
                sum(violations) / total_recent if total_recent else 0.0
            ),
        }


def _as_optional_float(value: object) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def auditor_from_trace(
    trace: "Trace", recent_window: int = 16
) -> GuaranteeAuditor | None:
    """Rebuild an auditor from a trace's recorded promises (or ``None``).

    Reads :data:`META_PROMISES` from the trace metadata; a trace
    produced without a session (or before promises were recorded) has
    none, and replay proceeds without audit signals.
    """
    raw = trace.meta.get(META_PROMISES)
    if not isinstance(raw, dict) or not raw:
        return None
    auditor = GuaranteeAuditor(recent_window=recent_window)
    for query_id in sorted(raw):
        promise = raw[query_id]
        if not isinstance(promise, dict):
            raise QueryError(
                f"malformed promise for query {query_id!r} in trace meta"
            )
        auditor.register(
            str(query_id),
            float(promise["epsilon"]),
            float(promise["confidence"]),
        )
    return auditor
