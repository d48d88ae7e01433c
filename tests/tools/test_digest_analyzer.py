"""Tests for the cross-module digest analyzer (tools.digest_analyzer).

Organization mirrors the architecture: fixture-driven tests per
cross-module rule (DGL009-DGL015) — each seeded violation must be
caught — then the pragma layer, the baseline, the cache, SARIF, the
CLI, the rule catalog against its docs, and the repository meta-test
(the invariant CI enforces: zero non-baselined findings).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.digest_analyzer import (
    ALL_PROJECT_RULES,
    ALL_RULES,
    ANALYZER_VERSION,
    RULE_CATALOG,
    AnalysisResult,
    Finding,
    analyze_paths,
    analyze_sources,
    write_baseline,
)
from tools.digest_analyzer.baseline import apply_baseline, load_baseline
from tools.digest_analyzer.pragmas import parse_pragmas
from tools.digest_analyzer.sarif import render_sarif
from tools.digest_analyzer.schema_facts import (
    SchemaParseError,
    parse_schema_source,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SCHEMA_PATH = "src/repro/obs/schema.py"
SCHEMA_TEXT = (REPO_ROOT / SCHEMA_PATH).read_text(encoding="utf-8")


def analyze(
    sources: dict[str, str], select: set[str] | None = None
) -> AnalysisResult:
    """Run the engine over dedented fixture sources plus the real schema."""
    merged = {SCHEMA_PATH: SCHEMA_TEXT}
    merged.update(
        {path: textwrap.dedent(text) for path, text in sources.items()}
    )
    return analyze_sources(
        merged, select=frozenset(select) if select else None
    )


def codes(
    sources: dict[str, str], select: set[str] | None = None
) -> list[str]:
    return [f.code for f in analyze(sources, select).findings]


def run_cli(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.digest_analyzer", *args],
        cwd=cwd,
        env={"PYTHONPATH": str(REPO_ROOT)},
        capture_output=True,
        text=True,
    )


# ----------------------------------------------------------------------
# DGL009 -- trace-schema conformance
# ----------------------------------------------------------------------


class TestTraceSchemaConformance:
    PATH = "src/repro/core/snippet.py"

    def test_undeclared_span_name_literal(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                def run(tracer, t):
                    span = tracer.span("bogus_span", time=t)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "undeclared span name 'bogus_span'" in result.findings[0].message

    def test_declared_literal_must_become_constant(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                def run(tracer, t):
                    span = tracer.span("walk", time=t)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "repro.obs.schema.SPAN_WALK" in result.findings[0].message

    def test_undeclared_attribute_key(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import SPAN_WALK

                def run(tracer, t):
                    tracer.span(SPAN_WALK, time=t, walker_id=1, bogus_key=2)
                """
            },
            select={"DGL009"},
        )
        messages = [f.message for f in result.findings]
        assert any("bogus_key" in m for m in messages)

    def test_missing_required_keys_over_visible_lifecycle(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import SPAN_WALK

                def run(tracer, t):
                    span = tracer.span(SPAN_WALK, time=t, walker_id=1)
                    tracer.end(span, time=t + 1, outcome="completed")
                """
            },
            select={"DGL009"},
        )
        missing = [f for f in result.findings if "required" in f.message]
        assert len(missing) == 1
        for key in ("origin", "walk_length", "attempts"):
            assert key in missing[0].message

    def test_complete_lifecycle_is_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    from repro.obs.schema import SPAN_WALK

                    def run(tracer, t):
                        span = tracer.span(
                            SPAN_WALK, time=t, walker_id=1, origin=0, walk_length=8
                        )
                        tracer.end(
                            span, time=t + 1, outcome="completed", attempts=1
                        )
                    """
                },
                select={"DGL009"},
            )
            == []
        )

    def test_span_constant_recorded_as_event(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import SPAN_WALK

                def run(tracer, t):
                    tracer.event(SPAN_WALK, time=t)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "declared as a span" in result.findings[0].message

    def test_dynamic_name_expression(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                def run(tracer, t, which):
                    tracer.event(which, time=t)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "must be a repro.obs.schema constant" in result.findings[0].message

    def test_event_missing_required_keys(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import EVENT_HOP

                def run(tracer, t, span):
                    tracer.event(EVENT_HOP, time=t, span=span, node=3)
                """
            },
            select={"DGL009"},
        )
        assert [f.code for f in result.findings] == ["DGL009"]
        assert "steps_remaining" in result.findings[0].message

    def test_tests_are_out_of_scope(self) -> None:
        assert (
            codes(
                {
                    "tests/obs/snippet.py": """\
                    def run(tracer):
                        tracer.span("walk", time=0)
                    """
                },
                select={"DGL009"},
            )
            == []
        )

    def test_repo_producers_are_clean(self) -> None:
        """The real src/repro tree conforms to its own schema."""
        result = analyze_paths(
            [REPO_ROOT / "src"],
            repo_root=REPO_ROOT,
            select=frozenset({"DGL009"}),
        )
        assert result.findings == []


class TestFastAppendExtraction:
    """The inlined hot-path emitter shape stays schema-checked.

    ``<span>.events.append(TraceEvent(time, NAME, {...}))`` is the
    allocation-light equivalent of ``span.add_event(...)``; the
    extractor must summarize it as an ``add_event`` fact so DGL009 sees
    the same attribute keys it would on the method form.
    """

    PATH = "src/repro/core/snippet.py"

    def test_fact_shape_matches_add_event(self) -> None:
        from tools.digest_analyzer.extract import extract_file_facts

        source = textwrap.dedent(
            """\
            from repro.obs.schema import EVENT_HOP
            from repro.obs.tracer import TraceEvent

            def run(span, t, node):
                span.events.append(
                    TraceEvent(t, EVENT_HOP, {"node": node, "bogus_key": 1})
                )
            """
        )
        facts, _findings = extract_file_facts(source, self.PATH)
        (fact,) = facts.trace_calls
        assert fact.kind == "add_event"
        assert fact.name_ref == "repro.obs.schema.EVENT_HOP"
        assert fact.name_literal is None
        assert fact.attr_keys == ["node", "bogus_key"]
        assert fact.span_var == "span"

    def test_fast_append_is_schema_checked(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                from repro.obs.schema import EVENT_HOP, SPAN_WALK
                from repro.obs.tracer import TraceEvent

                def run(tracer, t, node):
                    span = tracer.span(
                        SPAN_WALK, time=t, walker_id=1, origin=0, walk_length=4
                    )
                    span.events.append(
                        TraceEvent(t, EVENT_HOP, {"node": node, "bogus": 1})
                    )
                    tracer.end(span, time=t + 1, outcome="completed", attempts=1)
                """
            },
            select={"DGL009"},
        )
        messages = [f.message for f in result.findings]
        assert any("steps_remaining" in m for m in messages)
        assert any("bogus" in m for m in messages)

    def test_conforming_fast_append_is_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    from repro.obs.schema import EVENT_HOP, SPAN_WALK
                    from repro.obs.tracer import TraceEvent

                    def run(tracer, t, node, left):
                        span = tracer.span(
                            SPAN_WALK, time=t, walker_id=1, origin=0, walk_length=4
                        )
                        span.events.append(
                            TraceEvent(
                                t, EVENT_HOP, {"node": node, "steps_remaining": left}
                            )
                        )
                        tracer.end(
                            span, time=t + 1, outcome="completed", attempts=1
                        )
                    """
                },
                select={"DGL009"},
            )
            == []
        )

    def test_non_span_receiver_is_not_matched(self) -> None:
        from tools.digest_analyzer.extract import extract_file_facts

        source = textwrap.dedent(
            """\
            from repro.obs.tracer import TraceEvent

            def run(queue, t):
                queue.events.append(TraceEvent(t, "hop", {}))
            """
        )
        facts, _findings = extract_file_facts(source, self.PATH)
        assert facts.trace_calls == []


# ----------------------------------------------------------------------
# DGL010 -- hard-coded trace names in consumers
# ----------------------------------------------------------------------


class TestTraceNameLiterals:
    def test_name_comparison_literal(self) -> None:
        result = analyze(
            {
                "src/repro/obs/consumer.py": """\
                def walks(trace):
                    return [s for s in trace.spans if s.name == "walk"]
                """
            },
            select={"DGL010"},
        )
        assert [f.code for f in result.findings] == ["DGL010"]
        assert "SPAN_WALK" in result.findings[0].message

    def test_spans_named_literal(self) -> None:
        result = analyze(
            {
                "tools/trace_analysis/extra.py": """\
                def batches(trace):
                    return trace.spans_named("shared_walk_batch")
                """
            },
            select={"DGL010"},
        )
        assert [f.code for f in result.findings] == ["DGL010"]
        assert "SPAN_SHARED_WALK_BATCH" in result.findings[0].message

    def test_membership_comparison_literals(self) -> None:
        result = analyze(
            {
                "benchmarks/collect.py": """\
                def interesting(span):
                    return span.name in ("walk", "shared_walk_batch")
                """
            },
            select={"DGL010"},
        )
        assert [f.code for f in result.findings] == ["DGL010", "DGL010"]

    def test_non_trace_literal_is_clean(self) -> None:
        assert (
            codes(
                {
                    "src/repro/obs/consumer.py": """\
                    def named_bob(things):
                        return [t for t in things if t.name == "bob"]
                    """
                },
                select={"DGL010"},
            )
            == []
        )

    def test_attr_value_literal_is_clean(self) -> None:
        """'walk' as an attribute *value* is not a name position."""
        assert (
            codes(
                {
                    "src/repro/obs/consumer.py": """\
                    def walk_messages(events):
                        return [e for e in events if e.attrs.get("category") == "walk"]
                    """
                },
                select={"DGL010"},
            )
            == []
        )

    def test_tests_are_out_of_scope(self) -> None:
        assert (
            codes(
                {
                    "tests/obs/snippet.py": """\
                    def walks(trace):
                        return trace.spans_named("walk")
                    """
                },
                select={"DGL010"},
            )
            == []
        )


# ----------------------------------------------------------------------
# DGL011 -- RNG-stream provenance
# ----------------------------------------------------------------------


class TestRngStreamCrossing:
    PATH = "src/repro/experiments/snippet.py"

    def test_one_generator_two_streams(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                import numpy as np
                from repro.network.churn import ChurnProcess
                from repro.network.faults import FaultPlan

                def wire(graph, config, rng: np.random.Generator):
                    plan = FaultPlan(config, rng=rng)
                    churn = ChurnProcess(graph, rng=rng)
                    return plan, churn
                """
            },
            select={"DGL011"},
        )
        assert [f.code for f in result.findings] == ["DGL011"]
        message = result.findings[0].message
        assert "'churn'" in message and "'fault'" in message

    def test_crossing_hidden_behind_helper(self) -> None:
        """The generator reaches the second stream only through a local
        helper -- invisible to any per-file syntactic check."""
        result = analyze(
            {
                self.PATH: """\
                import numpy as np
                from repro.network.churn import ChurnProcess
                from repro.network.faults import FaultPlan

                def _build_faults(config, rng: np.random.Generator):
                    return FaultPlan(config, rng=rng)

                def wire(graph, config, rng: np.random.Generator):
                    plan = _build_faults(config, rng)
                    churn = ChurnProcess(graph, rng=rng)
                    return plan, churn
                """
            },
            select={"DGL011"},
        )
        assert [f.code for f in result.findings] == ["DGL011"]
        assert result.findings[0].line == 10  # the ChurnProcess call
        assert "_build_faults" in result.findings[0].message

    def test_separate_streams_are_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    import numpy as np
                    from repro.network.churn import ChurnProcess
                    from repro.network.faults import FaultPlan

                    def wire(graph, config, seed: int):
                        fault_rng = np.random.default_rng(seed)
                        churn_rng = np.random.default_rng(seed + 1)
                        plan = FaultPlan(config, rng=fault_rng)
                        churn = ChurnProcess(graph, rng=churn_rng)
                        return plan, churn
                    """
                },
                select={"DGL011"},
            )
            == []
        )

    def test_alias_does_not_launder_the_stream(self) -> None:
        result = analyze(
            {
                self.PATH: """\
                import numpy as np
                from repro.network.churn import ChurnProcess
                from repro.network.faults import FaultPlan

                def wire(graph, config, rng: np.random.Generator):
                    plan = FaultPlan(config, rng=rng)
                    other = rng
                    churn = ChurnProcess(graph, rng=other)
                    return plan, churn
                """
            },
            select={"DGL011"},
        )
        assert [f.code for f in result.findings] == ["DGL011"]

    def test_same_stream_twice_is_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    import numpy as np
                    from repro.network.faults import FaultPlan

                    def wire(config, other_config, rng: np.random.Generator):
                        first = FaultPlan(config, rng=rng)
                        second = FaultPlan(other_config, rng=rng)
                        return first, second
                    """
                },
                select={"DGL011"},
            )
            == []
        )

    def test_inline_draws_plus_one_sink_are_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    import numpy as np
                    from repro.network.topology import power_law_topology

                    def build(n: int, seed: int):
                        rng = np.random.default_rng(seed)
                        edges = power_law_topology(n, rng=rng)
                        weights = rng.normal(0.0, 1.0, n)
                        return edges, weights
                    """
                },
                select={"DGL011"},
            )
            == []
        )


# ----------------------------------------------------------------------
# DGL012 -- wall-clock reachability
# ----------------------------------------------------------------------

_TIMING_HELPER = """\
import time

def now_ms() -> int:
    return int(time.time() * 1000)
"""

_SIM_CALLER = """\
from repro.util.timing import now_ms

def tick() -> int:
    return now_ms()
"""


class TestWallClockReachability:
    def test_reaches_wall_clock_through_helper_module(self) -> None:
        sources = {
            "src/repro/util/timing.py": _TIMING_HELPER,
            "src/repro/core/runner.py": _SIM_CALLER,
        }
        result = analyze(sources, select={"DGL012"})
        assert [f.code for f in result.findings] == ["DGL012"]
        finding = result.findings[0]
        assert finding.path == "src/repro/core/runner.py"
        assert "time.time" in finding.message
        assert "repro.util.timing.now_ms" in finding.message

    def test_two_level_indirection(self) -> None:
        sources = {
            "src/repro/util/timing.py": _TIMING_HELPER,
            "src/repro/util/stats.py": """\
            from repro.util.timing import now_ms

            def stamp() -> int:
                return now_ms()
            """,
            "src/repro/sampling/walker.py": """\
            from repro.util.stats import stamp

            def step() -> int:
                return stamp()
            """,
        }
        result = analyze(sources, select={"DGL012"})
        assert [
            (f.code, f.path) for f in result.findings
        ] == [("DGL012", "src/repro/sampling/walker.py")]

    def test_profiling_module_is_exempt(self) -> None:
        sources = {
            "src/repro/obs/profile_extra.py": """\
            import time

            def profile_now() -> float:
                return time.perf_counter()
            """,
            "src/repro/core/runner.py": """\
            from repro.obs.profile_extra import profile_now

            def tick() -> float:
                return profile_now()
            """,
        }
        # only repro.obs.profile* modules are whitelisted wall-clock readers
        result = analyze(sources, select={"DGL012"})
        assert result.findings == []

    def test_sim_scoped_callee_owns_its_finding(self) -> None:
        """core -> core -> util chain: the finding lands once, on the
        sim function that makes the boundary-crossing call."""
        sources = {
            "src/repro/util/timing.py": _TIMING_HELPER,
            "src/repro/core/inner.py": _SIM_CALLER.replace("tick", "inner_tick"),
            "src/repro/core/outer.py": """\
            from repro.core.inner import inner_tick

            def outer_tick() -> int:
                return inner_tick()
            """,
        }
        result = analyze(sources, select={"DGL012"})
        assert [f.path for f in result.findings] == ["src/repro/core/inner.py"]

    def test_direct_read_and_reached_read_are_both_reported(self) -> None:
        sources = {
            "src/repro/util/timing.py": _TIMING_HELPER,
            "src/repro/core/runner.py": """\
            import time
            from repro.util.timing import now_ms

            class Runner:
                started = time.time()

                def tick(self) -> float:
                    return time.perf_counter() + now_ms()
            """,
        }
        result = analyze(sources, select={"DGL012"})
        assert [(f.line, f.col) for f in result.findings] == [
            (5, 15),
            (8, 16),
            (8, 38),
        ]
        direct, _, reached = result.findings
        assert "time.time" in direct.message
        assert "repro.util.timing.now_ms" in reached.message


# ----------------------------------------------------------------------
# DGL013 -- handler-raise reachability
# ----------------------------------------------------------------------

_RAISING_HANDLER_INDIRECT = """\
class Router:
    def _handle_packet(self, message):
        self._validate(message)

    def _validate(self, message):
        if message is None:
            raise ValueError("empty message")
"""


class TestHandlerRaiseReachability:
    PATH = "src/repro/protocol/snippet.py"

    def test_raise_hidden_in_helper_method(self) -> None:
        result = analyze(
            {self.PATH: _RAISING_HANDLER_INDIRECT}, select={"DGL013"}
        )
        assert [f.code for f in result.findings] == ["DGL013"]
        message = result.findings[0].message
        assert "_handle_packet" in message
        assert "ValueError" in message

    def test_cross_module_helper(self) -> None:
        sources = {
            "src/repro/protocol/checks.py": """\
            def require_alive(node, graph):
                if node not in graph:
                    raise KeyError(node)
            """,
            "src/repro/protocol/router.py": """\
            from repro.protocol.checks import require_alive

            class Router:
                def _deliver_sample(self, node, graph):
                    require_alive(node, graph)
            """,
        }
        result = analyze(sources, select={"DGL013"})
        assert [
            (f.code, f.path) for f in result.findings
        ] == [("DGL013", "src/repro/protocol/router.py")]

    def test_not_implemented_error_is_exempt(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    class Router:
                        def _handle_packet(self, message):
                            self._dispatch(message)

                        def _dispatch(self, message):
                            raise NotImplementedError
                    """
                },
                select={"DGL013"},
            )
            == []
        )

    def test_helper_exemption_does_not_cover_direct_raises(self) -> None:
        findings = analyze(
            {
                self.PATH: """\
                class Router:
                    def _handle_packet(self, message):
                        self._dispatch(message)
                        raise NotImplementedError

                    def _dispatch(self, message):
                        raise AssertionError
                """
            },
            select={"DGL013"},
        ).findings
        assert [f.line for f in findings] == [4]
        assert "NotImplementedError" in findings[0].message

    def test_nested_closure_under_protocol_is_a_handler(self) -> None:
        findings = analyze(
            {
                self.PATH: """\
                class Router:
                    def start(self, message):
                        def deliver(time):
                            self._validate(message)
                        self.simulation.schedule_in(1, deliver)

                    def _validate(self, message):
                        raise ValueError(message)
                """
            },
            select={"DGL013"},
        ).findings
        assert [f.line for f in findings] == [4]
        assert "Router.start.deliver" in findings[0].message

    def test_only_protocol_is_in_scope(self) -> None:
        for scope in ("sampling", "obs", "core"):
            assert (
                codes(
                    {f"src/repro/{scope}/snippet.py": _RAISING_HANDLER_INDIRECT},
                    select={"DGL013"},
                )
                == []
            )

    def test_recording_instead_of_raising_is_clean(self) -> None:
        assert (
            codes(
                {
                    self.PATH: """\
                    class Router:
                        def _handle_packet(self, message):
                            self._record(message)

                        def _record(self, message):
                            self.faults.append(message)
                    """
                },
                select={"DGL013"},
            )
            == []
        )


# ----------------------------------------------------------------------
# DGL014 -- layering conformance
# ----------------------------------------------------------------------


class TestLayeringConformance:
    def test_protocol_importing_core_is_flagged(self) -> None:
        sources = {
            "src/repro/protocol/snippet.py": """\
            from repro.core.scheduler import WalkBatchPlan

            def plan():
                return WalkBatchPlan
            """
        }
        result = analyze(sources, select={"DGL014"})
        assert [
            (f.code, f.path, f.line) for f in result.findings
        ] == [("DGL014", "src/repro/protocol/snippet.py", 1)]
        assert "repro.core.scheduler" in result.findings[0].message

    def test_network_importing_protocol_is_flagged(self) -> None:
        sources = {
            "src/repro/network/snippet.py": """\
            import repro.protocol.runtime
            """
        }
        assert codes(sources, select={"DGL014"}) == ["DGL014"]

    def test_stack_direction_is_allowed(self) -> None:
        """core -> protocol and protocol -> network flow with the stack."""
        sources = {
            "src/repro/core/snippet.py": """\
            from repro.protocol.runtime import ProtocolSampler
            """,
            "src/repro/protocol/other.py": """\
            from repro.network.graph import OverlayGraph
            """,
        }
        assert codes(sources, select={"DGL014"}) == []

    def test_type_checking_guard_is_still_a_crossing(self) -> None:
        sources = {
            "src/repro/protocol/snippet.py": """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core.scheduler import WalkBatchPlan
            """
        }
        result = analyze(sources, select={"DGL014"})
        assert [f.code for f in result.findings] == ["DGL014"]
        assert "TYPE_CHECKING" in result.findings[0].message

    def test_relative_import_resolves_to_absolute(self) -> None:
        """``from ..core import x`` in repro/protocol is repro.core."""
        sources = {
            "src/repro/protocol/snippet.py": """\
            from ..core import scheduler
            """
        }
        assert codes(sources, select={"DGL014"}) == ["DGL014"]

    def test_deferred_function_level_import_is_seen(self) -> None:
        sources = {
            "src/repro/network/snippet.py": """\
            def lazily():
                from repro.protocol.runtime import ProtocolSampler
                return ProtocolSampler
            """
        }
        assert codes(sources, select={"DGL014"}) == ["DGL014"]

    def test_tests_and_benchmarks_are_exempt(self) -> None:
        sources = {
            "tests/protocol/snippet.py": """\
            from repro.core.session import DigestSession
            from repro.protocol.runtime import ProtocolSampler
            """,
            "benchmarks/bench_snippet.py": """\
            from repro.core.session import DigestSession
            from repro.protocol.runtime import ProtocolSampler
            """,
        }
        assert codes(sources, select={"DGL014"}) == []


# ----------------------------------------------------------------------
# DGL015 -- context propagation
# ----------------------------------------------------------------------


class TestContextPropagation:
    PATH = "src/repro/protocol/snippet.py"

    def test_forwarded_ctx_name_passes(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import WalkToken

            def forward(token):
                return WalkToken(
                    walker_id=token.walker_id,
                    origin=token.origin,
                    steps_remaining=token.steps_remaining - 1,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx=token.ctx,
                )
            """
        }
        assert codes(sources, select={"DGL015"}) == []

    def test_missing_ctx_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import SampleReturn

            def respond(token):
                return SampleReturn(
                    walker_id=token.walker_id,
                    origin=token.origin,
                    sampled_node=3,
                    at_node=3,
                )
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [(f.code, f.path) for f in result.findings] == [
            ("DGL015", self.PATH)
        ]
        assert "without ctx=" in result.findings[0].message

    def test_explicit_ctx_none_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import BounceBack

            def bounce(token):
                return BounceBack(
                    walker_id=token.walker_id, origin=token.origin, ctx=None
                )
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [f.code for f in result.findings] == ["DGL015"]
        assert "drops context" in result.findings[0].message

    def test_hand_built_ctx_dict_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import WalkToken

            def forge(token):
                return WalkToken(
                    walker_id=0,
                    origin=0,
                    steps_remaining=1,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx={"trace_id": 1, "span_id": 1, "attempt": 1},
                )
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [f.code for f in result.findings] == ["DGL015"]
        assert "hand-built ctx dict" in result.findings[0].message

    def test_direct_trace_context_construction_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import TraceContext

            def forge():
                return TraceContext(trace_id=1, span_id=1, attempt=1)
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [f.code for f in result.findings] == ["DGL015"]
        assert "direct TraceContext" in result.findings[0].message

    def test_minting_outside_the_lifecycle_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import mint_context

            def remint(record):
                return mint_context(record.span_id, record.span_id, 2)
            """
        }
        result = analyze(sources, select={"DGL015"})
        assert [f.code for f in result.findings] == ["DGL015"]
        assert "stamping authority" in result.findings[0].message

    def test_reminting_at_the_construction_site_is_flagged(self) -> None:
        sources = {
            self.PATH: """\
            from repro.protocol.messages import WalkToken, mint_context

            def launch(span_id):
                return WalkToken(
                    walker_id=0,
                    origin=0,
                    steps_remaining=5,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx=mint_context(span_id, span_id, 1),
                )
            """
        }
        # both the mint-outside-authority and the re-mint-at-ctor findings
        assert codes(sources, select={"DGL015"}) == ["DGL015", "DGL015"]

    def test_lifecycle_module_may_mint(self) -> None:
        sources = {
            "src/repro/protocol/lifecycle.py": """\
            from repro.protocol.messages import WalkToken, mint_context

            def launch(span_id, attempt):
                ctx = mint_context(span_id, span_id, attempt)
                return WalkToken(
                    walker_id=0,
                    origin=0,
                    steps_remaining=5,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx=ctx,
                )
            """
        }
        assert codes(sources, select={"DGL015"}) == []

    def test_weight_advertisement_is_control_traffic(self) -> None:
        """WeightAdvertisement is caused by no single walk; ctx-free
        construction is legitimate there."""
        sources = {
            "src/repro/network/snippet.py": """\
            from repro.protocol.messages import WeightAdvertisement

            def advertise(node):
                return WeightAdvertisement(sender=node, weight=1.0, degree=4)
            """
        }
        assert codes(sources, select={"DGL015"}) == []

    def test_tests_and_tools_are_exempt(self) -> None:
        sources = {
            "tests/protocol/snippet.py": """\
            from repro.protocol.messages import TraceContext, WalkToken

            def fixture():
                return WalkToken(
                    walker_id=0,
                    origin=0,
                    steps_remaining=1,
                    sender=0,
                    sender_weight=1.0,
                    sender_degree=4,
                    ctx=TraceContext(trace_id=1, span_id=1, attempt=1),
                )
            """
        }
        assert codes(sources, select={"DGL015"}) == []


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------


class TestPragmas:
    PATH = "src/repro/sampling/snippet.py"

    def test_dgl_disable_suppresses_exactly_the_named_rule(self) -> None:
        assert (
            codes(
                {
                    self.PATH: (
                        "import numpy as np\n"
                        "rng = np.random.default_rng()  # dgl: disable=DGL001\n"
                    )
                }
            )
            == []
        )

    def test_dgl_disable_with_wrong_code_does_not_suppress(self) -> None:
        result = analyze(
            {
                self.PATH: (
                    "import numpy as np\n"
                    "rng = np.random.default_rng()  # dgl: disable=DGL004\n"
                )
            }
        )
        found = {f.code for f in result.findings}
        assert "DGL001" in found  # the real finding survives
        assert "DGL099" in found  # and the useless pragma is reported

    def test_unused_suppression_is_reported(self) -> None:
        result = analyze(
            {self.PATH: "x = 1  # dgl: disable=DGL007\n"}
        )
        assert [f.code for f in result.findings] == ["DGL099"]
        assert "DGL007" in result.findings[0].message

    def test_unused_detection_skipped_under_select(self) -> None:
        assert (
            codes(
                {self.PATH: "x = 1  # dgl: disable=DGL007\n"},
                select={"DGL001"},
            )
            == []
        )

    def test_bare_noqa_still_works_without_unused_reporting(self) -> None:
        assert (
            codes(
                {
                    self.PATH: (
                        "import numpy as np\n"
                        "rng = np.random.default_rng()  # noqa\n"
                    )
                }
            )
            == []
        )

    def test_docstring_example_is_not_a_pragma(self) -> None:
        source = (
            '"""Suppress with `# dgl: disable=DGL001` on the line."""\n'
            "x = 1\n"
        )
        assert parse_pragmas(source) == {}

    def test_multiple_codes_one_pragma(self) -> None:
        pragmas = parse_pragmas("y = a == 1.0  # dgl: disable=DGL004, DGL001\n")
        assert pragmas[1].dgl_codes == ("DGL004", "DGL001")


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def _finding(path: str, line: int, code: str, message: str) -> Finding:
    return Finding(path=path, line=line, col=1, code=code, message=message)


class TestBaseline:
    def test_round_trip_absorbs_findings_line_independently(
        self, tmp_path: Path
    ) -> None:
        old = [_finding("src/a.py", 10, "DGL004", "float equality")]
        baseline_file = tmp_path / "baseline.json"
        write_baseline(old, baseline_file)
        # the same finding, drifted to another line, still matches
        drifted = [_finding("src/a.py", 99, "DGL004", "float equality")]
        fresh, stale = apply_baseline(drifted, load_baseline(baseline_file))
        assert fresh == [] and not stale

    def test_new_findings_are_not_absorbed(self, tmp_path: Path) -> None:
        baseline_file = tmp_path / "baseline.json"
        write_baseline(
            [_finding("src/a.py", 1, "DGL004", "float equality")], baseline_file
        )
        new = [
            _finding("src/a.py", 1, "DGL004", "float equality"),
            _finding("src/a.py", 2, "DGL004", "other message"),
        ]
        fresh, stale = apply_baseline(new, load_baseline(baseline_file))
        assert [f.message for f in fresh] == ["other message"]
        assert not stale

    def test_counts_are_a_multiset(self, tmp_path: Path) -> None:
        pair = [
            _finding("src/a.py", 1, "DGL004", "float equality"),
            _finding("src/a.py", 2, "DGL004", "float equality"),
        ]
        baseline_file = tmp_path / "baseline.json"
        write_baseline(pair, baseline_file)
        triple = pair + [_finding("src/a.py", 3, "DGL004", "float equality")]
        fresh, _stale = apply_baseline(triple, load_baseline(baseline_file))
        assert len(fresh) == 1

    def test_stale_entries_are_reported(self, tmp_path: Path) -> None:
        baseline_file = tmp_path / "baseline.json"
        write_baseline(
            [_finding("src/gone.py", 1, "DGL004", "fixed long ago")],
            baseline_file,
        )
        fresh, stale = apply_baseline([], load_baseline(baseline_file))
        assert fresh == []
        assert sum(stale.values()) == 1

    def test_missing_baseline_is_empty(self, tmp_path: Path) -> None:
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_committed_baseline_loads(self) -> None:
        baseline = load_baseline(
            REPO_ROOT / "tools" / "digest_analyzer" / "baseline.json"
        )
        assert baseline  # grandfathered findings exist and parse


# ----------------------------------------------------------------------
# schema facts (static parse)
# ----------------------------------------------------------------------


class TestSchemaFacts:
    def test_real_schema_parses(self) -> None:
        facts = parse_schema_source(SCHEMA_TEXT, SCHEMA_PATH)
        assert "walk" in facts.spans
        assert "fault" in facts.events
        assert facts.resolve_ref("repro.obs.schema.SPAN_WALK") == "walk"
        assert facts.resolve_ref("somewhere.else.SPAN_WALK") is None
        assert "outcome" in facts.spans["walk"].required

    def test_restructured_registry_fails_loudly(self) -> None:
        with pytest.raises(SchemaParseError):
            parse_schema_source(
                "SPAN_SCHEMAS = build_registry()\nEVENT_SCHEMAS = {}\n",
                "schema.py",
            )


# ----------------------------------------------------------------------
# engine: unparseable files, cache, SARIF
# ----------------------------------------------------------------------


class TestEngine:
    def test_syntax_error_is_a_finding_not_a_crash(self) -> None:
        result = analyze({"src/repro/core/broken.py": "def f(:\n    pass\n"})
        broken = [
            f for f in result.findings if f.path == "src/repro/core/broken.py"
        ]
        assert [f.code for f in broken] == ["DGL000"]
        assert broken[0].line == 1
        assert result.parse_failures == 1

    def test_null_bytes_are_a_finding_not_a_crash(self) -> None:
        result = analyze({"src/repro/core/binary.py": "x = 1\x00"})
        assert [
            f.code
            for f in result.findings
            if f.path == "src/repro/core/binary.py"
        ] == ["DGL000"]

    def test_cache_hits_on_second_run(self, tmp_path: Path) -> None:
        (tmp_path / "proj").mkdir()
        target = tmp_path / "proj" / "mod.py"
        target.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        cache_file = tmp_path / "cache.json"
        first = analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        second = analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert [f.code for f in second.findings] == [
            f.code for f in first.findings
        ]

    def test_cache_from_another_version_is_ignored_and_rewritten(
        self, tmp_path: Path
    ) -> None:
        (tmp_path / "proj").mkdir()
        (tmp_path / "proj" / "mod.py").write_text("x = 1\n")
        cache_file = tmp_path / "cache.json"
        analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        # forge the same cache as an older analyzer would have saved it
        document = json.loads(cache_file.read_text())
        document["version"] = "stale"
        for entry in document["files"].values():
            entry["key"] = entry["key"].rsplit(":", 1)[0] + ":stale"
        cache_file.write_text(json.dumps(document))
        result = analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        assert (result.cache_hits, result.cache_misses) == (0, 1)
        rewritten = json.loads(cache_file.read_text())
        assert rewritten["version"] == ANALYZER_VERSION
        assert all(
            entry["key"].endswith(f":{ANALYZER_VERSION}")
            for entry in rewritten["files"].values()
        )

    def test_cache_invalidated_by_content_change(self, tmp_path: Path) -> None:
        (tmp_path / "proj").mkdir()
        target = tmp_path / "proj" / "mod.py"
        target.write_text("x = 1\n")
        cache_file = tmp_path / "cache.json"
        analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        target.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        result = analyze_paths(
            [tmp_path / "proj"], repo_root=tmp_path, cache_path=cache_file
        )
        assert result.cache_misses == 1
        assert [f.code for f in result.findings] == ["DGL001"]

    def test_sarif_document_shape(self) -> None:
        finding = _finding("src/a.py", 3, "DGL011", "stream crossing")
        document = json.loads(
            render_sarif([finding], {"DGL011": ("summary", "rationale")}, "1")
        )
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "digest-analyzer"
        result = run["results"][0]
        assert result["ruleId"] == "DGL011"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/a.py"
        assert location["region"]["startLine"] == 3
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids.index("DGL011") == result["ruleIndex"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_list_rules_covers_the_full_catalog(self) -> None:
        process = run_cli("--list-rules")
        assert process.returncode == 0
        for code in (
            "DGL000",
            "DGL001",
            "DGL008",
            "DGL009",
            "DGL010",
            "DGL011",
            "DGL012",
            "DGL013",
            "DGL099",
        ):
            assert code in process.stdout
        assert set(RULE_CATALOG) >= {"DGL009", "DGL013", "DGL099"}
        # folded into DGL012/DGL013
        assert "DGL002" not in process.stdout
        assert "DGL006" not in process.stdout

    def test_findings_exit_one_and_render_locations(
        self, tmp_path: Path
    ) -> None:
        bad = tmp_path / "src" / "repro" / "sampling" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        process = run_cli(
            "--root", str(tmp_path), "--no-cache", "--select", "DGL001"
        )
        assert process.returncode == 1
        assert "bad.py:2:7: DGL001" in process.stdout

    def test_unknown_rule_code_exits_two(self) -> None:
        process = run_cli("--select", "DGL999", "src")
        assert process.returncode == 2

    def test_missing_path_exits_two(self) -> None:
        process = run_cli("definitely/not/here")
        assert process.returncode == 2

    def test_sarif_output_is_written(self, tmp_path: Path) -> None:
        bad = tmp_path / "src" / "repro" / "sampling" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        sarif_file = tmp_path / "out.sarif"
        process = run_cli(
            "--root",
            str(tmp_path),
            "--no-cache",
            "--sarif",
            str(sarif_file),
        )
        assert process.returncode == 1
        document = json.loads(sarif_file.read_text())
        assert document["runs"][0]["results"]

    def test_write_baseline_then_clean(self, tmp_path: Path) -> None:
        bad = tmp_path / "src" / "repro" / "sampling" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        write = run_cli("--root", str(tmp_path), "--no-cache", "--write-baseline")
        assert write.returncode == 0
        check = run_cli("--root", str(tmp_path), "--no-cache")
        assert check.returncode == 0, check.stdout + check.stderr


# ----------------------------------------------------------------------
# the rule catalog against its docs
# ----------------------------------------------------------------------


class TestRuleCatalogDocs:
    """docs/API.md's code table and docs/DEVELOPMENT.md's per-rule
    headings list exactly the implemented rules; the two pseudo-codes
    (DGL000 unparseable file, DGL099 unused suppression) are documented
    in prose instead."""

    PSEUDO_CODES = frozenset({"DGL000", "DGL099"})

    @staticmethod
    def _rule_codes() -> set[str]:
        return {rule.code for rule in (*ALL_RULES, *ALL_PROJECT_RULES)}

    def _doc(self, name: str) -> str:
        return (REPO_ROOT / "docs" / name).read_text(encoding="utf-8")

    def test_catalog_is_the_rules_plus_pseudo_codes(self) -> None:
        assert set(RULE_CATALOG) == self._rule_codes() | self.PSEUDO_CODES

    def test_api_table_lists_every_rule(self) -> None:
        text = self._doc("API.md")
        tabled = set(re.findall(r"^\| `(DGL\d{3})` \|", text, re.MULTILINE))
        assert tabled == self._rule_codes()
        for code in self.PSEUDO_CODES:
            assert f"`{code}`" in text

    def test_development_headings_list_every_rule(self) -> None:
        text = self._doc("DEVELOPMENT.md")
        headed = set(re.findall(r"^### (DGL\d{3}) ", text, re.MULTILINE))
        assert headed == self._rule_codes()
        for code in self.PSEUDO_CODES:
            assert f"`{code}`" in text


# ----------------------------------------------------------------------
# the repository meta-test
# ----------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_analyzer_reports_zero_non_baselined_findings(self) -> None:
        """The CI invariant: the repo analyzes clean against its own
        committed baseline (and the baseline itself has no stale
        entries)."""
        process = run_cli("--no-cache", "--stats")
        assert process.returncode == 0, process.stdout + process.stderr
        assert "stale baseline entry" not in process.stderr

    def test_runs_fast_enough_for_ci(self) -> None:
        import time

        started = time.perf_counter()
        run_cli("--no-cache")
        elapsed = time.perf_counter() - started
        # "under a few seconds" with generous CI headroom
        assert elapsed < 30.0
