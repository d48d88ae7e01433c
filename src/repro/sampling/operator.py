"""The sampling operator ``S`` (Sections III and V).

Given a weight function, :class:`SamplingOperator` derives random sample
nodes whose distribution is within total-variation distance ``gamma`` of
``p_v = w_v / sum w_u``, by Metropolis random walks. On top of node
sampling it implements the two tuple-sampling schemes of Section III:

* **two-stage sampling** — node weighted by content size ``m_v``, then a
  uniform local tuple: uniform over the whole relation (Digest's choice);
* **cluster sampling** — a node sample returns its entire fragment as a
  batch (provided for the ablation showing why Digest avoids it).

Walk-length policy
------------------
The guaranteed length is Theorem 3's bound
``tau(gamma) <= theta^-1 log(1/(p_min gamma))`` with ``theta`` the
eigengap of the forwarding matrix. Computing ``theta`` exactly on every
occasion would dominate the simulation, so the operator caches it and
recomputes only when the node count has drifted by more than
``recompute_drift``, the origin changed, or the partition plan's
:attr:`~repro.network.partitions.PartitionPlan.epoch` moved (a cut, a
heal or a link flap, however few nodes it moves); callers can also pin
``walk_length`` explicitly.

Batch mode and continued walks (Section VI-A)
---------------------------------------------
``sample_nodes(n=...)`` advances ``n`` agents in lock-step. After the
first convergence the operator keeps the walker positions; later requests
*continue* those walks, which only need the reset time (the relaxation
time ``ceil(1/theta)``) instead of the full mixing time — the optimization
the paper uses to expedite its experiments. The operator draws each
agent's lazy steps as a ``Binomial(length, 1 - laziness)`` budget of
proposals (the draw the kernel itself would make first) and hands the
budgets to one :func:`~repro.sampling.walker.batch_walk` call at laziness
0, so a fault-free request draws exactly the stream of one lazy kernel
call.

Under message loss ``q`` every message of a walk risks loss, and
:meth:`SamplingOperator.sample_nodes` is the only place a lost one is
retried, inside its one kernel call. An agent's outbound leg of ``b``
proposals arrives with ``(1 - q) ** budget``, drawn before the walk; a
lost leg is retried at once (a continued agent restarts from its already
mixed pool node with a fresh reset-length leg, a fresh agent continues
its walk by one). After the walk the end stays put: its sample goes home
over ``h`` hops with ``(1 - q) ** hops``, and a lost return is resent
from the end over the same hops. Which node was sampled therefore does
not depend on which messages arrived. An agent sends at most
:data:`MAX_ATTEMPTS` messages (outbound legs plus resends); what is still
lost then is a shortfall of the call.

Per-occasion host cost
----------------------
Under churn every occasion sees a new overlay version, so what an
occasion pays for its snapshot must scale with what changed. The walk
context comes from the graph's spliced CSR snapshot
(:meth:`OverlayGraph.csr`); the tuple path's content-size weights are one
gather from the database's size array
(:meth:`P2PDatabase.content_size_array`); and on the full overlay the
agents' return hops are read from the origin's BFS array
(:meth:`OverlayGraph.hop_counts`, aligned with the context's rows) at the
kernel's compact end positions, with no per-call dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.db.aggregates import ValueSpec
from repro.db.relation import P2PDatabase
from repro.errors import SamplingError
from repro.network.faults import FaultPlan
from repro.network.graph import OverlayGraph
from repro.network.messaging import MessageLedger
from repro.network.partitions import PartitionPlan
from repro.obs.schema import SPAN_SAMPLE_ACQUISITION
from repro.obs.tracer import NO_TIME, NULL_TRACER, Tracer, bridge_fault_log
from repro.sampling import mixing
from repro.sampling.walker import WalkContext, batch_walk
from repro.sampling.weights import WeightFunction, content_size_weights

_NO_NODES = np.empty(0, dtype=np.int64)
_NO_NODES.setflags(write=False)

#: the most sends one agent makes in a request under loss: its outbound
#: legs plus the resends of its lost return
MAX_ATTEMPTS = 8


@dataclass(frozen=True)
class SamplerConfig:
    """Tuning knobs for the sampling operator.

    ``gamma`` is the total-variation tolerance of Definition 2. With
    ``walk_length=None`` the length comes from ``length_policy``:

    * ``"empirical"`` (default) — the exact number of steps after which the
      walk started at the originator is within ``gamma`` of the target,
      found by iterating the start distribution with sparse matvecs. This
      matches what the paper *measures* (tens of messages per sample).
    * ``"theorem3"`` — the analytic worst-case bound
      ``theta^-1 log(1/(p_min gamma))``, guaranteed but conservative
      (typically ~10x the empirical length).

    Both are recomputed when the overlay drifts by more than
    ``recompute_drift`` in node count, when the origin changes and when
    the partition plan's epoch moves. ``reset_length`` defaults to the
    relaxation time ``ceil(1/theta)``. Continued walks can be disabled for
    ablation with ``continued_walks=False``.
    """

    gamma: float = 0.01
    laziness: float = 0.5
    walk_length: int | None = None
    reset_length: int | None = None
    continued_walks: bool = True
    recompute_drift: float = 0.10
    max_walk_length: int = 1_000_000
    length_policy: str = "empirical"

    def __post_init__(self) -> None:
        if self.length_policy not in ("empirical", "theorem3"):
            raise SamplingError(
                f"length_policy must be 'empirical' or 'theorem3', "
                f"got {self.length_policy!r}"
            )
        if not 0.0 < self.gamma < 1.0:
            raise SamplingError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 <= self.laziness < 1.0:
            raise SamplingError(f"laziness must be in [0, 1), got {self.laziness}")
        if self.walk_length is not None and self.walk_length < 1:
            raise SamplingError(f"walk_length must be >= 1, got {self.walk_length}")
        if self.reset_length is not None and self.reset_length < 1:
            raise SamplingError(f"reset_length must be >= 1, got {self.reset_length}")
        if not 0.0 < self.recompute_drift <= 1.0:
            raise SamplingError(
                f"recompute_drift must be in (0, 1], got {self.recompute_drift}"
            )


class SampleSource(Protocol):
    """The slice of the sampling substrate evaluators consume.

    Implemented by :class:`SamplingOperator` itself and by
    :class:`~repro.sampling.pool.PoolLease` (a query's handle on the
    shared :class:`~repro.sampling.pool.SamplePool`) — anything that can
    deliver uniform tuple samples with a query's values and weighted node
    samples.
    """

    def sample_values(
        self,
        database: P2PDatabase,
        spec: ValueSpec,
        n: int,
        origin: int,
        allow_partial: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``n`` uniform tuples: ``(tuple_ids, y, indicator)`` under ``spec``.

        Three parallel arrays in draw order: the int64 tuple ids and their
        :meth:`~repro.db.aggregates.ValueSpec.values` (partial under
        faults).
        """
        ...

    def sample_nodes(
        self, weight: WeightFunction, n: int, origin: int
    ) -> list[int]:
        """Draw ``n`` node ids with probability proportional to weight."""
        ...


@dataclass
class _TupleWalkCache:
    """The tuple path's last walk context (a single entry).

    ``weight`` is the content-size weight :meth:`SamplingOperator.sample_tuples`
    hands to ``sample_nodes`` for ``database``; recognizing it by identity
    is what lets ``sample_nodes`` reuse ``context`` while the overlay
    version, ``database.layout_version`` and the ``scope`` object (the
    partition plan's cached reachable set, ``None`` for the full overlay)
    all match the ones it was built for (any other weight callable is
    opaque and re-evaluated).
    """

    database: P2PDatabase
    weight: WeightFunction
    layout_version: int = -1
    scope: dict[int, int] | None = None
    context: WalkContext | None = None


@dataclass
class _SpectralCache:
    """Cached eigengap-derived walk lengths keyed by overlay drift."""

    n_nodes: int = -1
    origin: int = -1
    #: the partition plan's epoch they were computed under (0: no plan)
    partition_epoch: int = 0
    gap: float = 0.0
    mix_length: int = 0
    reset_length: int = 0
    valid: bool = False


class SamplingOperator:
    """Distributed node/tuple sampling via Metropolis walks.

    Parameters
    ----------
    graph:
        The live overlay. Walks run on a :class:`WalkContext` built from
        its per-version CSR snapshot (:meth:`OverlayGraph.csr`). While a
        partition is open the context covers only the origin's reachable
        region. The tuple path keeps its last context and takes a fresh
        one only when the graph version, the database's ``layout_version``
        or the scope changed — that is, when the topology, some ``m_v``
        weight, or the partition plan's reachable set changed (the plan
        hands back the same set object while its epoch holds). A weight
        function passed to :meth:`sample_nodes` directly is opaque and is
        re-evaluated on every call.
    rng:
        Randomness source (all draws flow through it).
    ledger:
        The message ledger walk proposals and sample-return hops are
        booked on (a fresh one when omitted).
    config:
        See :class:`SamplerConfig`.
    faults:
        Optional :class:`~repro.network.faults.FaultPlan`. The abstract
        sampler executes walks in batch, so faults act at leg
        granularity: an outbound leg of ``b`` proposals is lost with
        probability ``1 - (1 - loss)**b`` and retried before the walk,
        and a return over ``h`` hops is lost with ``1 - (1 - loss)**h``
        and resent from the walk's end, up to :data:`MAX_ATTEMPTS`
        messages per agent. Each call's span ends with its lost messages
        (``n_lost``) and its ledger delta (``messages_by_category``);
        callers see the shortfall via partial results, never an exception.
    """

    def __init__(
        self,
        graph: OverlayGraph,
        rng: np.random.Generator,
        ledger: MessageLedger | None = None,
        config: SamplerConfig | None = None,
        faults: FaultPlan | None = None,
        tracer: Tracer | None = None,
        partitions: PartitionPlan | None = None,
    ) -> None:
        self._graph = graph
        self._rng = rng
        self._ledger = ledger if ledger is not None else MessageLedger()
        self._config = config if config is not None else SamplerConfig()
        self._faults = faults
        #: correlated-failure plan; while a partition is open, walks are
        #: confined to the origin's reachable region (the walk must mix
        #: over the population it can actually touch), and its epoch
        #: keys the cached walk length
        self._partitions = partitions
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if faults is not None:
            bridge_fault_log(faults.log, self._tracer)
        self._spectral = _SpectralCache()
        self._tuple_walk: _TupleWalkCache | None = None
        #: the last partition scope and its hop counts, one per scope row
        self._scope_hops: tuple[dict[int, int], np.ndarray] | None = None
        #: continued-walk agent positions (node ids)
        self._pool_nodes = _NO_NODES
        self.samples_drawn = 0
        self.walks_started = 0

    @property
    def config(self) -> SamplerConfig:
        return self._config

    @property
    def pool_nodes(self) -> list[int]:
        """Current continued-walk agent positions (copy, node ids)."""
        return self._pool_nodes.tolist()

    # ------------------------------------------------------------------
    # walk-length policy
    # ------------------------------------------------------------------

    def _walk_lengths(self, context: WalkContext, origin: int) -> tuple[int, int]:
        """(full mixing length, reset length) for the current occasion."""
        config = self._config
        if config.walk_length is not None:
            reset = (
                config.reset_length
                if config.reset_length is not None
                else max(1, config.walk_length // 4)
            )
            return config.walk_length, reset
        cache = self._spectral
        partitions = self._partitions
        partition_epoch = partitions.epoch if partitions is not None else 0
        drifted = (
            not cache.valid
            or cache.n_nodes <= 0
            or cache.origin != origin
            or cache.partition_epoch != partition_epoch
            or abs(context.n_nodes - cache.n_nodes)
            > config.recompute_drift * cache.n_nodes
        )
        if drifted:
            # the eigengap + mixing-length computation is the host-side
            # hot spot of abstract-mode runs; keep it under one profiled
            # section so `repro trace` output can show its wall cost
            with self._tracer.profile("spectral_recompute"):
                self._recompute_spectral(context, origin, partition_epoch)
            cache = self._spectral
        return cache.mix_length, cache.reset_length

    def _recompute_spectral(
        self, context: WalkContext, origin: int, partition_epoch: int
    ) -> None:
        """Refresh the spectral cache for the current overlay snapshot."""
        config = self._config
        matrix = mixing.sparse_transition_matrix(context, config.laziness)
        gap = mixing.eigengap_sparse(matrix)
        if gap <= 0.0:
            raise SamplingError(
                "zero eigengap: the walk cannot converge on this overlay"
            )
        if config.length_policy == "theorem3":
            positive = context.weights[context.weights > 0]
            p_min = float(positive.min() / context.weights.sum())
            mix_length = mixing.mixing_time_bound(gap, p_min, config.gamma)
        else:
            mix_length = self._empirical_mix_length(
                matrix, context, origin, config.gamma
            )
        if mix_length > config.max_walk_length:
            raise SamplingError(
                f"required walk length {mix_length} exceeds the configured "
                f"maximum {config.max_walk_length}"
            )
        reset_length = (
            config.reset_length
            if config.reset_length is not None
            else mixing.relaxation_time(gap)
        )
        self._spectral = _SpectralCache(
            n_nodes=context.n_nodes,
            origin=origin,
            partition_epoch=partition_epoch,
            gap=gap,
            mix_length=mix_length,
            reset_length=reset_length,
            valid=True,
        )

    def _empirical_mix_length(
        self,
        matrix: object,  # scipy.sparse matrix
        context: WalkContext,
        origin: int,
        gamma: float,
    ) -> int:
        """Steps until the walk *from this origin* is within ``gamma`` TV.

        Iterates the origin's point-mass distribution with sparse
        vector-matrix products — O(|E|) per step — and returns the first
        step within tolerance.
        """
        target = context.target_distribution()
        distribution = np.zeros(context.n_nodes)
        distribution[context.compact_index(origin)] = 1.0
        transpose = matrix.T.tocsr()
        for step in range(1, self._config.max_walk_length + 1):
            distribution = transpose @ distribution
            if 0.5 * float(np.abs(distribution - target).sum()) <= gamma:
                return step
        raise SamplingError(
            f"walk from origin {origin} did not mix to gamma={gamma} within "
            f"{self._config.max_walk_length} steps"
        )

    @property
    def last_eigengap(self) -> float | None:
        """Most recently computed eigengap (None before the first walk)."""
        return self._spectral.gap if self._spectral.valid else None

    # ------------------------------------------------------------------
    # walk contexts
    # ------------------------------------------------------------------

    def _context(
        self, weight: WeightFunction, scope: dict[int, int] | None
    ) -> WalkContext:
        """Walk context for ``weight`` over ``scope`` (``None``: the overlay).

        The tuple path's content-size weight reuses the cached context
        while the overlay version, the database layout and the scope
        object are all unchanged; every other weight is evaluated afresh.
        """
        cache = self._tuple_walk
        if cache is not None and weight is not cache.weight:
            cache = None
        if (
            cache is not None
            and cache.context is not None
            and cache.context.graph_version == self._graph.version
            and cache.layout_version == cache.database.layout_version
            and cache.scope is scope
        ):
            return cache.context
        if scope is None:
            context = WalkContext.from_graph(self._graph, weight)
        else:
            context = WalkContext.from_subgraph(self._graph, weight, scope)
        if cache is not None:
            cache.context = context
            cache.layout_version = cache.database.layout_version
            cache.scope = scope
        return context

    def _return_hops(self, scope: dict[int, int]) -> np.ndarray:
        """``scope``'s BFS hop counts, aligned with its walk context's rows.

        A scope's context rows are its node ids in ascending order, so the
        array serves every context built over the same scope object; it is
        built once per scope (the partition plan hands back the same dict
        while its epoch holds).
        """
        cached = self._scope_hops
        if cached is None or cached[0] is not scope:
            nodes = np.fromiter(scope.keys(), dtype=np.int64, count=len(scope))
            hops = np.fromiter(scope.values(), dtype=np.int64, count=len(scope))
            cached = (scope, hops[np.argsort(nodes)])
            self._scope_hops = cached
        return cached[1]

    def _tuple_weight(self, database: P2PDatabase) -> WeightFunction:
        """The content-size weight of ``database``, stable across calls."""
        cache = self._tuple_walk
        if cache is None or cache.database is not database:
            cache = _TupleWalkCache(database, content_size_weights(database))
            self._tuple_walk = cache
        return cache.weight

    # ------------------------------------------------------------------
    # node sampling
    # ------------------------------------------------------------------

    def sample_nodes(self, weight: WeightFunction, n: int, origin: int) -> list[int]:
        """Draw ``n`` sample node ids with probability proportional to weight.

        Runs ``n`` agents in batch mode. With continued walks enabled,
        agents left over from previous occasions resume from their last
        position and only walk the reset length; new agents (and all agents
        when the feature is off) start at ``origin`` and walk the full
        mixing length. Under a fault plan a lost outbound leg is retried
        before the one kernel call (see :meth:`_send_outbound`) and a lost
        return is resent from the walk's end after it, up to
        :data:`MAX_ATTEMPTS` messages per agent; the samples still lost
        then are missing from the result.
        """
        if n < 0:
            raise SamplingError(f"cannot draw {n} samples")
        if n == 0:
            return []
        if origin not in self._graph:
            raise SamplingError(f"origin node {origin} is not in the overlay")
        span = self._tracer.span(
            SPAN_SAMPLE_ACQUISITION, n_requested=n, origin=origin
        )
        scope: dict[int, int] | None = None
        partitions = self._partitions
        if partitions is not None and partitions.active:
            scope = partitions.reachable(self._graph, origin)
        population = len(scope) if scope is not None else len(self._graph)
        if population <= 1:
            # the origin is alone (in the overlay, or on its side of a
            # cut): the only reachable "sample" is itself and no walk can
            # leave, so no message is sent. Decided before any context is
            # built, so a lone zero-weight origin is served, not rejected
            self._tracer.end(
                span,
                n_continued=0,
                n_fresh=n,
                mix_length=0,
                reset_length=0,
                n_delivered=n,
                attempts=0,
                messages_by_category={},
                n_lost=0,
            )
            self.samples_drawn += n
            return [origin] * n
        context = self._context(weight, scope)
        mix_length, reset_length = self._walk_lengths(context, origin)
        config = self._config
        ledger = self._ledger
        steps_before, returns_before = ledger.walk_steps, ledger.sample_returns

        continued = _NO_NODES
        if config.continued_walks and self._pool_nodes.size:
            # agents survive only if their node is still in the overlay
            # (and, under a partition, on the origin's side of the cut):
            # exactly the context's nodes. node_ids is sorted and unique,
            # so one search gives each pool node's row and tells whether
            # it is there (a node past the largest id gets row n_nodes,
            # which the clipped read rejects)
            rows = np.searchsorted(context.node_ids, self._pool_nodes)
            alive = context.node_ids.take(rows, mode="clip") == self._pool_nodes
            continued = rows[alive][:n]
        n_fresh = n - continued.size

        # one batch: continued agents resume where they stopped and walk
        # the reset length, fresh agents leave the origin and walk the
        # full mixing length; at laziness 0 the kernel walks the drawn
        # budgets as given
        starts = np.full(n, context.compact_index(origin), dtype=np.int64)
        starts[: continued.size] = continued
        budgets = self._budgets(
            np.repeat((reset_length, mix_length), (continued.size, n_fresh))
        )
        faults = self._faults
        if faults is not None:
            arrived, sent = self._send_outbound(
                faults, budgets, continued.size, reset_length
            )
        end_rows, _ = batch_walk(context, starts, budgets, self._rng, ledger, 0.0)
        self.walks_started += n_fresh
        final_positions = context.node_ids[end_rows]

        if config.continued_walks:
            # pool positions survive even if a message is lost: the agent
            # itself still sits at its final node
            self._pool_nodes = final_positions
        if scope is None:
            # the origin's BFS over this version's CSR rows, which are the
            # context's rows; an agent in another component (-1) walks no
            # hops home
            hops = np.maximum(self._graph.hop_counts(origin)[end_rows], 0)
        else:
            # under a partition the return route is confined to the
            # reachable region, so return-hop accounting uses its BFS
            hops = self._return_hops(scope)[end_rows]
        if faults is None:
            ledger.record_sample_return(int(hops.sum()))
            delivered: list[int] = final_positions.tolist()
            attempts, n_lost = 1, 0
        else:
            # the end stays put: only an agent whose outbound leg arrived
            # sends its sample home, and a lost return is resent from the
            # end over the same hops
            home = np.zeros(n, dtype=bool)
            pending = np.flatnonzero(arrived)
            while pending.size:
                ledger.record_sample_return(int(hops[pending].sum()))
                pending = self._send(faults, pending, hops[pending], sent, home)
            delivered = final_positions[home].tolist()
            attempts = int(sent.max())
            # ``sent`` counts all sends but the first return, which only an
            # arrived leg makes: every send but a delivered return was lost
            n_lost = int(sent.sum()) - len(delivered)
        self.samples_drawn += len(delivered)
        # retained-vs-fresh tagging: continued agents only paid the reset
        # length; fresh agents paid the full mixing length from the origin
        self._tracer.end(
            span,
            n_continued=int(continued.size),
            n_fresh=n_fresh,
            mix_length=mix_length,
            reset_length=reset_length,
            n_delivered=len(delivered),
            attempts=attempts,
            messages_by_category={
                "walk_steps": ledger.walk_steps - steps_before,
                "sample_returns": ledger.sample_returns - returns_before,
            },
            n_lost=n_lost,
        )
        return delivered

    def _budgets(self, lengths: np.ndarray) -> np.ndarray:
        """Each agent's proposals: ``Binomial(length, 1 - laziness)``."""
        laziness = self._config.laziness
        if laziness > 0.0:
            return self._rng.binomial(lengths, 1.0 - laziness)
        return lengths

    @staticmethod
    def _send(
        faults: FaultPlan,
        pending: np.ndarray,
        exposures: np.ndarray,
        sent: np.ndarray,
        arrived: np.ndarray,
    ) -> np.ndarray:
        """Make one send (an outbound leg or a return) per ``pending`` agent.

        This is the one loss rule: a send over ``exposures`` hops arrives
        with ``(1 - loss) ** exposures``. Arrivals are marked in
        ``arrived``. Returns the agents whose send was lost and who have
        made fewer than :data:`MAX_ATTEMPTS` sends, their ``sent`` counts
        already raised for the next one.
        """
        lost = faults.walks_lost(exposures)
        arrived[pending[~lost]] = True
        pending = pending[lost]
        pending = pending[sent[pending] < MAX_ATTEMPTS]
        sent[pending] += 1
        return pending

    def _send_outbound(
        self,
        faults: FaultPlan,
        budgets: np.ndarray,
        n_continued: int,
        reset_length: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw the loss of every outbound leg, retrying lost legs in place.

        A leg of ``b`` proposals is exposed ``b`` times. An agent whose leg is
        lost draws a fresh ``Binomial(reset_length, 1 - laziness)`` leg: a
        continued agent (the first ``n_continued``) restarts from its pool
        node, which is already mixed, so its lost leg is booked but not
        walked; a fresh agent continues its lost walk, the new leg added
        to its budget. ``budgets`` is updated in place. Returns the mask of
        agents whose last leg arrived and each agent's legs.
        """
        arrived = np.zeros(budgets.size, dtype=bool)
        legs = np.ones(budgets.size, dtype=np.int64)
        pending = np.arange(budgets.size)
        pending = self._send(faults, pending, budgets, legs, arrived)
        while pending.size:
            leg = self._budgets(np.full(pending.size, reset_length, dtype=np.int64))
            restart = pending < n_continued
            self._ledger.record_walk_steps(int(budgets[pending[restart]].sum()))
            budgets[pending] = np.where(restart, leg, budgets[pending] + leg)
            pending = self._send(faults, pending, leg, legs, arrived)
        return arrived, legs

    # ------------------------------------------------------------------
    # tuple sampling
    # ------------------------------------------------------------------

    def sample_tuples(
        self,
        database: P2PDatabase,
        n: int,
        origin: int,
        allow_partial: bool = False,
    ) -> np.ndarray:
        """Two-stage sampling: the ids of ``n`` uniformly random tuples of ``R``.

        Stage one samples ``n`` nodes with ``w_v = m_v`` in one
        :meth:`sample_nodes` call, which retries lost messages itself;
        stage two draws a uniform local tuple at each sampled node, all in
        one ``integers`` call over their sizes (the integers, and the
        generator state after them, of one scalar draw per node). Empty
        nodes have zero weight, so a walk ends on one only if it started on
        one and spent its whole budget among empty nodes. Such a miss, or a
        sample lost for good, is a shortfall: with ``allow_partial=True``
        the call returns the tuples actually drawn — the evaluator degrades
        its precision — instead of raising. The ids come back as one int64
        array in draw order.
        """
        if database.n_tuples == 0:
            raise SamplingError("cannot sample tuples from an empty relation")
        weight = self._tuple_weight(database)
        nodes = np.array(self.sample_nodes(weight, n, origin), dtype=np.int64)
        sizes = database.content_size_array(nodes)
        held = sizes > 0
        nodes = nodes[held]
        positions = self._rng.integers(0, sizes[held])
        drawn = np.fromiter(
            (
                database.store(node).tuple_id_at(position)
                for node, position in zip(nodes.tolist(), positions.tolist())
            ),
            dtype=np.int64,
            count=nodes.size,
        )
        if drawn.size < n:
            if not allow_partial:
                raise SamplingError(
                    f"failed to draw {n} tuples ({drawn.size} drawn): walks "
                    f"were lost or ended on empty nodes"
                )
            if self._faults is not None:
                # the operator keeps no clock; the bridged tracer stamps it
                self._faults.record(
                    NO_TIME, "sample_shortfall", detail=f"{drawn.size} of {n}"
                )
        return drawn

    def sample_values(
        self,
        database: P2PDatabase,
        spec: ValueSpec,
        n: int,
        origin: int,
        allow_partial: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`sample_tuples` and the drawn tuples' values under ``spec``."""
        tuple_ids = self.sample_tuples(database, n, origin, allow_partial)
        return (tuple_ids, *spec.values(database, tuple_ids))

    def cluster_sample(
        self, database: P2PDatabase, origin: int
    ) -> tuple[int, np.ndarray]:
        """Cluster sampling: one node (uniform) and its entire fragment.

        Returns the node and its tuple ids (an int64 array, in local
        order). Provided for the two-stage-vs-cluster ablation (Section
        III argues intra-node correlation makes this imprecise for P2P
        content).
        """
        from repro.sampling.weights import uniform_weights

        node = self.sample_nodes(uniform_weights(), 1, origin)[0]
        return node, np.array(database.store(node).tuple_ids(), dtype=np.int64)

    def reset_pool(self) -> None:
        """Drop continued-walk state (e.g. between independent experiments)."""
        self._pool_nodes = _NO_NODES
