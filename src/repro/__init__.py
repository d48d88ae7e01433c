"""Digest: fixed-precision approximate continuous aggregate queries in
peer-to-peer databases.

A faithful reproduction of Banaei-Kashani & Shahabi (ICDE 2008). The
package is layered exactly like the paper's system:

* **bottom tier** — :mod:`repro.network` (unstructured overlay),
  :mod:`repro.db` (horizontally partitioned relation) and
  :mod:`repro.sampling` (the Metropolis MCMC sampling operator);
* **top tier** — :mod:`repro.core` (snapshot evaluators, extrapolation
  scheduler, and the :class:`~repro.core.session.DigestSession` composing
  them for every query at one node);
* **periphery** — :mod:`repro.baselines` (push-based comparators),
  :mod:`repro.datasets` (calibrated synthetic workloads),
  :mod:`repro.sim` (discrete-event engine) and :mod:`repro.experiments`
  (one runner per paper table/figure).

Quickstart::

    import numpy as np
    from repro import (
        ContinuousQuery, DigestSession, OverlayGraph, P2PDatabase,
        Precision, Schema, parse_query, power_law_topology,
    )

    rng = np.random.default_rng(0)
    graph = OverlayGraph(power_law_topology(200, rng=rng), n_nodes=200)
    db = P2PDatabase(Schema(("temperature",)), graph.nodes())
    for node in graph.nodes():
        db.insert(node, {"temperature": float(rng.normal(70, 8))})

    cq = ContinuousQuery(
        parse_query("SELECT AVG(temperature) FROM R"),
        Precision(delta=2.0, epsilon=2.0, confidence=0.95),
        duration=100,
    )
    session = DigestSession(graph, db, origin=0, rng=rng)
    qid = session.add_query(cq)
    for t in range(100):
        ...  # apply your updates
        session.step(t)  # {query id: estimate} for the queries that ran
    print(session.runtime(qid).result.last().estimate)
"""

from repro.baselines import FilterConfig, OlstonFilterBaseline, PushAllBaseline
from repro.core import (
    ContinuousQuery,
    DigestSession,
    EngineConfig,
    IndependentEvaluator,
    Precision,
    Query,
    QuerySet,
    RepeatedEvaluator,
    RunningResult,
    TaylorExtrapolator,
    parse_query,
)
from repro.db import (
    AggregateOp,
    Expression,
    LocalStore,
    P2PDatabase,
    Predicate,
    Schema,
    exact_aggregate,
)
from repro.errors import (
    DigestError,
    ExpressionError,
    QueryError,
    SamplingError,
    SimulationError,
    StoreError,
    TopologyError,
)
from repro.network import (
    ChurnConfig,
    ChurnProcess,
    MessageLedger,
    OverlayGraph,
    mesh_topology,
    power_law_topology,
    random_topology,
    small_world_topology,
)
from repro.sampling import SamplePool, SamplerConfig, SamplingOperator

__version__ = "1.0.0"

__all__ = [
    "AggregateOp",
    "ChurnConfig",
    "ChurnProcess",
    "ContinuousQuery",
    "DigestError",
    "DigestSession",
    "EngineConfig",
    "Expression",
    "ExpressionError",
    "FilterConfig",
    "IndependentEvaluator",
    "LocalStore",
    "MessageLedger",
    "OlstonFilterBaseline",
    "OverlayGraph",
    "P2PDatabase",
    "Precision",
    "Predicate",
    "PushAllBaseline",
    "Query",
    "QueryError",
    "QuerySet",
    "RepeatedEvaluator",
    "RunningResult",
    "SamplePool",
    "SamplerConfig",
    "SamplingError",
    "SamplingOperator",
    "Schema",
    "SimulationError",
    "StoreError",
    "TaylorExtrapolator",
    "TopologyError",
    "exact_aggregate",
    "mesh_topology",
    "parse_query",
    "power_law_topology",
    "random_topology",
    "small_world_topology",
    "__version__",
]
