"""Public-API surface tests."""

import numpy as np
import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_from_docstring():
    """The package docstring's quickstart must actually run."""
    rng = np.random.default_rng(0)
    graph = repro.OverlayGraph(
        repro.power_law_topology(60, rng=rng), n_nodes=60
    )
    db = repro.P2PDatabase(repro.Schema(("temperature",)), graph.nodes())
    for node in graph.nodes():
        db.insert(node, {"temperature": float(rng.normal(70, 8))})

    continuous = repro.ContinuousQuery(
        repro.parse_query("SELECT AVG(temperature) FROM R"),
        repro.Precision(delta=2.0, epsilon=2.0, confidence=0.95),
        duration=10,
    )
    session = repro.DigestSession(graph, db, 0, rng)
    result = session.runtime(session.add_query(continuous)).result
    for t in range(10):
        session.step(t)
    estimate = result.last().estimate
    truth = db.exact_values(repro.Expression("temperature")).mean()
    assert abs(estimate - truth) < 5.0


def test_errors_are_digest_errors():
    for name in (
        "ExpressionError",
        "QueryError",
        "SamplingError",
        "SimulationError",
        "StoreError",
        "TopologyError",
    ):
        assert issubclass(getattr(repro, name), repro.DigestError)
