"""Cross-module property-based tests (hypothesis).

Each property pins an invariant the system's correctness rests on, over
randomized structures rather than hand-picked cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.repeated import (
    _best_partition,
    combined_variance,
    solve_allocation,
)
from repro.core.result import NotificationFilter, UpdateRecord
from repro.errors import QueryError
from repro.network.graph import OverlayGraph
from repro.sampling.metropolis import metropolis_matrix, stationary_distribution
from repro.sampling.weights import table_weights


# ----------------------------------------------------------------------
# Metropolis stationarity over random graphs and weights
# ----------------------------------------------------------------------

@st.composite
def connected_graph_with_weights(draw):
    n = draw(st.integers(3, 12))
    # random spanning tree guarantees connectivity...
    edges = set()
    for node in range(1, n):
        parent = draw(st.integers(0, node - 1))
        edges.add((parent, node))
    # ...plus random extra edges
    extra = draw(st.integers(0, n))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    weights = {
        node: draw(st.floats(0.1, 10.0)) for node in range(n)
    }
    return sorted(edges), n, weights


@given(data=connected_graph_with_weights())
@settings(max_examples=60, deadline=None)
def test_property_metropolis_stationary_on_random_graphs(data):
    edges, n, weights = data
    graph = OverlayGraph(edges, n_nodes=n)
    weight = table_weights(weights)
    node_ids, matrix = metropolis_matrix(graph, weight)
    _, pi = stationary_distribution(graph, weight)
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-10)
    assert (matrix >= -1e-12).all()
    np.testing.assert_allclose(pi @ matrix, pi, atol=1e-10)
    balance = pi[:, None] * matrix
    np.testing.assert_allclose(balance, balance.T, atol=1e-10)


# ----------------------------------------------------------------------
# overlay graph vs a reference model under random operations
# ----------------------------------------------------------------------

@given(
    operations=st.lists(
        st.tuples(st.sampled_from(["add", "remove", "join", "leave"]), st.integers(0, 9), st.integers(0, 9)),
        max_size=40,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_graph_matches_reference_model(operations):
    graph = OverlayGraph([(0, 1)], n_nodes=3)
    model_nodes = {0, 1, 2}
    model_edges = {(0, 1)}

    def norm(u, v):
        return (min(u, v), max(u, v))

    for op, a, b in operations:
        nodes = sorted(model_nodes)
        if op == "add" and len(nodes) >= 2:
            u, v = nodes[a % len(nodes)], nodes[b % len(nodes)]
            if u != v:
                graph.add_edge(u, v)
                model_edges.add(norm(u, v))
        elif op == "remove" and model_edges:
            edge = sorted(model_edges)[a % len(model_edges)]
            graph.remove_edge(*edge)
            model_edges.discard(edge)
        elif op == "join" and nodes:
            anchor = nodes[a % len(nodes)]
            new = graph.join(attach_to=[anchor])
            model_nodes.add(new)
            model_edges.add(norm(new, anchor))
        elif op == "leave" and len(nodes) > 1:
            victim = nodes[a % len(nodes)]
            neighbors = list(graph.neighbors(victim))
            graph.leave(victim, rewire=True)
            model_nodes.discard(victim)
            model_edges = {e for e in model_edges if victim not in e}
            for left, right in zip(neighbors, neighbors[1:]):
                model_edges.add(norm(left, right))
    assert set(graph.nodes()) == model_nodes
    assert set(graph.edges()) == model_edges
    for node in model_nodes:
        assert graph.degree(node) == sum(1 for e in model_edges if node in e)


# ----------------------------------------------------------------------
# departures with rewiring never disconnect the overlay
# ----------------------------------------------------------------------

@given(
    data=connected_graph_with_weights(),
    departures=st.lists(st.integers(0, 11), max_size=8),
    crash_seed=st.integers(0, 1_000),
    crash_probability=st.floats(0.0, 0.5),
)
@settings(max_examples=80, deadline=None)
def test_property_rewire_preserves_connectivity(
    data, departures, crash_seed, crash_probability
):
    from repro.network.faults import CrashProcess, FaultConfig, FaultPlan

    edges, n, _ = data
    graph = OverlayGraph(edges, n_nodes=n)
    assert graph.is_connected()
    # explicit departures with ring rewiring...
    for pick in departures:
        nodes = sorted(graph.nodes())
        if len(nodes) <= 2:
            break
        graph.leave(nodes[pick % len(nodes)], rewire=True)
        assert graph.is_connected()
    # ...then randomized crash rounds on top of whatever is left
    plan = FaultPlan(
        FaultConfig(crash_probability=crash_probability, min_nodes=2),
        rng=crash_seed,
    )
    crash = CrashProcess(graph, plan)
    for time in range(4):
        crash.step(time)
        assert graph.is_connected()


# ----------------------------------------------------------------------
# partition heal repair: connectivity restored within degree bounds
# ----------------------------------------------------------------------

def _reference_components(nodes, edges):
    """Connected components of an (nodes, edges) snapshot, test-local."""
    adjacency = {node: set() for node in nodes}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen, components = set(), []
    for start in nodes:
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        seen |= component
        components.append(sorted(component))
    return components


@given(
    data=connected_graph_with_weights(),
    seed=st.integers(0, 10_000),
    duration=st.integers(2, 5),
    max_degree=st.integers(2, 6),
    leave_probability=st.floats(0.0, 0.35),
    join_rate=st.floats(0.0, 1.5),
    crash_probability=st.floats(0.0, 0.3),
)
@settings(max_examples=60, deadline=None)
def test_property_partition_heal_restores_connectivity_within_bounds(
    data,
    seed,
    duration,
    max_degree,
    leave_probability,
    join_rate,
    crash_probability,
):
    """Under any churn+crash+partition interleaving, the heal-time repair
    reconnects the survivors, and every bridge endpoint either had degree
    headroom or sat in a component where nobody did (connectivity wins)."""
    from repro.network.churn import ChurnConfig, ChurnProcess
    from repro.network.faults import CrashProcess, FaultConfig, FaultPlan
    from repro.network.partitions import (
        PartitionEpisode,
        PartitionPlan,
        PartitionSchedule,
    )

    edges, n, _ = data
    graph = OverlayGraph(edges, n_nodes=n)
    plan = PartitionPlan(
        PartitionSchedule(
            episodes=(PartitionEpisode(start=0, duration=duration),)
        ),
        rng=seed + 1,
        heal_policy="repair",
        max_degree=max_degree,
    )
    churn = ChurnProcess(
        graph,
        # rewire=False departures are what genuinely fragments the
        # overlay mid-episode; the heal-time repair must cope with it
        ChurnConfig(
            leave_probability=leave_probability,
            join_rate=join_rate,
            rewire=False,
            min_nodes=2,
        ),
        rng=np.random.default_rng(seed),
    )
    crash = CrashProcess(
        graph,
        FaultPlan(
            FaultConfig(crash_probability=crash_probability, min_nodes=2),
            rng=seed + 2,
        ),
    )
    for time in range(duration):
        plan.step(time, graph)
        churn.step()
        crash.step(time)

    # snapshot the pre-heal state the repair must respect
    degrees_before = {node: graph.degree(node) for node in graph.nodes()}
    edges_before = set(graph.edges())
    components_before = _reference_components(graph.nodes(), edges_before)

    plan.step(duration, graph)  # the heal tick
    assert not plan.active
    if len(graph) > 1:
        assert graph.is_connected()

    added = set(graph.edges()) - edges_before
    component_of = {
        node: index
        for index, component in enumerate(components_before)
        for node in component
    }
    saturated = [
        all(degrees_before[node] >= max_degree for node in component)
        for component in components_before
    ]
    for u, v in added:
        for endpoint in (u, v):
            assert (
                degrees_before[endpoint] < max_degree
                or saturated[component_of[endpoint]]
            )
    # components chain left-to-right, so repair adds at most two bridge
    # edges per node (an interior component's inbound and outbound link)
    for node in degrees_before:
        assert graph.degree(node) <= degrees_before[node] + 2


# ----------------------------------------------------------------------
# allocation solver invariants
# ----------------------------------------------------------------------

@given(
    sigma2=st.floats(0.1, 50.0),
    rho=st.floats(0.0, 0.98),
    var_prev_scale=st.floats(0.1, 3.0),
    target_scale=st.floats(0.05, 0.9),
    retained=st.integers(0, 500),
)
@settings(max_examples=150, deadline=None)
def test_property_allocation_meets_target_minimally(
    sigma2, rho, var_prev_scale, target_scale, retained
):
    base_n = 100
    var_prev = var_prev_scale * sigma2 / base_n
    v_target = target_scale * sigma2 / 10
    n, g = solve_allocation(
        sigma2, rho, var_prev, v_target, retained_available=retained, min_n=2
    )
    assert 0 <= g <= min(n, retained)
    achieved = combined_variance(sigma2, n, g, rho, var_prev)
    assert achieved <= v_target * (1 + 1e-9)
    # never cheaper than the information-theoretic floor of this model:
    # even with a free perfect prior, f fresh samples cap W at n/sigma2 + W_g
    if n > 2:
        best_prev = min(
            combined_variance(sigma2, n - 1, candidate, rho, var_prev)
            for candidate in range(0, min(n - 1, retained) + 1)
        )
        assert best_prev > v_target * (1 - 1e-9)


def _full_range_allocation(
    sigma2, rho, var_prev, v_target, retained, min_n, max_n
):
    """Reference sizing: binary search over all of ``[min_n, max_n]``."""

    def best_var(n):
        return _best_partition(sigma2, n, rho, var_prev, retained)[1]

    if best_var(max_n) > v_target:
        return "raise"
    low, high = min_n, max_n
    while low < high:
        middle = (low + high) // 2
        if best_var(middle) <= v_target:
            high = middle
        else:
            low = middle + 1
    return low, _best_partition(sigma2, low, rho, var_prev, retained)[0]


@given(
    log_sigma2=st.floats(-4.0, 4.0),
    rho=st.one_of(
        st.sampled_from([0.0, 0.999, -0.999, 1.0, -1.0]), st.floats(-1.0, 1.0)
    ),
    log_prev=st.one_of(st.none(), st.floats(0.0, 5.0)),
    log_target=st.floats(-1.0, 6.5),
    retained=st.integers(0, 3000),
    min_n=st.sampled_from([2, 30]),
    max_n=st.sampled_from([50, 1000, 1_000_000]),
)
@settings(max_examples=300, deadline=None)
def test_property_bracketed_allocation_matches_full_search(
    log_sigma2, rho, log_prev, log_target, retained, min_n, max_n
):
    """The bracketed search returns the full-range search's ``(n, g)``.

    Infeasible targets raise in both, and a previous estimate may be
    exact (``var_prev = 0``).
    """
    sigma2 = 10.0**log_sigma2
    var_prev = 0.0 if log_prev is None else sigma2 / 10.0**log_prev
    v_target = sigma2 / 10.0**log_target
    expected = _full_range_allocation(
        sigma2, rho, var_prev, v_target, retained, min_n, max_n
    )
    try:
        got = solve_allocation(
            sigma2, rho, var_prev, v_target, retained, min_n=min_n, max_n=max_n
        )
    except QueryError:
        got = "raise"
    assert got == expected


def test_allocation_all_fresh_bound_a_hair_short():
    """``sigma2 / v_target`` rounds to 5, yet 5 fresh samples miss the
    target by one ulp: the search must widen its upper bound, not stop."""
    v_target = math.nextafter(0.2, 0.0)
    assert 1.0 / v_target == 5.0 and 1.0 / 5 > v_target
    expected = _full_range_allocation(1.0, 0.0, 0.1, v_target, 0, 2, 1_000_000)
    assert expected == (6, 0)
    assert solve_allocation(1.0, 0.0, 0.1, v_target, 0) == expected


# ----------------------------------------------------------------------
# notification filter: no firing within the delta window
# ----------------------------------------------------------------------

@given(
    delta=st.floats(0.1, 10.0),
    estimates=st.lists(st.floats(-100, 100), min_size=1, max_size=50),
)
@settings(max_examples=150, deadline=None)
def test_property_notifications_respect_delta(delta, estimates):
    fired_values = []
    filter_ = NotificationFilter(delta, lambda r: fired_values.append(r.estimate))
    for time, estimate in enumerate(estimates):
        filter_.offer(UpdateRecord(time=time, estimate=estimate))
    # consecutive notifications always differ by >= delta
    for previous, current in zip(fired_values, fired_values[1:]):
        assert abs(current - previous) >= delta
    # and every suppressed update was within delta of the last notification
    assert filter_.notifications_fired == len(fired_values)
    assert filter_.updates_seen == len(estimates)


# ----------------------------------------------------------------------
# trace round trip on scripted random worlds
# ----------------------------------------------------------------------

@given(
    seed=st.integers(0, 10_000),
    n_steps=st.integers(2, 8),
)
@settings(max_examples=25, deadline=None)
def test_property_trace_roundtrip_random_worlds(seed, n_steps):
    from repro.datasets.temperature import TemperatureConfig, TemperatureDataset
    from repro.datasets.traces import TraceRecorder, replay_trace

    config = TemperatureConfig().scaled(0.02)
    source = TemperatureDataset(config, seed=seed).build()
    recorder = TraceRecorder(source)
    averages = []
    for t in range(n_steps):
        source.step(t)
        recorder.observe(t)
        averages.append(source.true_average())
    replayed = replay_trace(recorder.finish())
    for t in range(n_steps):
        replayed.step(t)
        assert replayed.true_average() == pytest.approx(averages[t], rel=1e-9)
