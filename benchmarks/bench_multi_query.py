"""Multi-query amortization bench: shared session vs. independent engines.

The ISSUE 4 acceptance gate: four co-resident queries with overlapping
epsilon demands must pay >= 30% fewer walk messages per query than four
independent engines, while every query still meets its own ``(epsilon, p)``
contract. Alongside the rendered table this bench saves the
machine-readable ``multi_query.json`` payload that
``collect_results.py`` promotes to ``BENCH_multi_query.json``.
"""

import json
import time

from conftest import bench_seed

from repro.experiments import multi_query


def test_multi_query_amortization(benchmark, record_table, results_dir):
    start = time.perf_counter()
    result = benchmark.pedantic(
        multi_query.run,
        kwargs={
            "scale": 0.08,
            "steps": 30,
            "seed": bench_seed(),
        },
        rounds=1,
        iterations=1,
    )
    wall_clock = time.perf_counter() - start
    record_table("multi_query", result.to_table())
    payload = result.to_json_dict(wall_clock_seconds=wall_clock)
    path = results_dir / "multi_query.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[json saved to {path}]")

    # the ISSUE acceptance: >= 30% fewer messages per query via sharing
    assert result.message_savings >= 0.30
    assert result.batches_coalesced > 0
    assert result.pool_hit_rate > 0.5
    # each query's own marginal guarantee, with single-run sampling slack
    for outcome in result.outcomes:
        assert outcome.audit.answers > 0
        assert outcome.audit.rate >= result.confidence - 0.15
