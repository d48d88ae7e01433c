"""Fixture tests for the analyzer's per-file rules, and for the direct
cases of the wall-clock (DGL012) and handler-raise (DGL013) rules.

Organization mirrors the rule catalog: one test class per rule with
known-bad fixtures (must flag) and known-good fixtures (must pass), run
through :func:`analyze_sources` restricted to the per-file codes plus
DGL012/DGL013 (which absorbed the per-file DGL002/DGL006); then
engine-level behavior (noqa, scoping, select, CLI), and finally the
meta-test asserting ``src/repro`` and ``tools`` have no per-file finding
even with the baseline ignored -- the analyzer's own meta-test runs
against the baseline, so without this one a per-file finding in
``src/`` could be grandfathered silently.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.digest_analyzer import Finding, analyze_paths, analyze_sources
from tools.digest_analyzer.rules_local import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"
#: the per-file rules plus the two project rules that own a direct case
LOCAL_CODES = frozenset(rule.code for rule in ALL_RULES) | {"DGL012", "DGL013"}


def lint(
    source: str, path: str, select: frozenset[str] = LOCAL_CODES
) -> list[Finding]:
    """Findings for ``source`` as though it lived at ``path``."""
    return analyze_sources({path: source}, select=select).findings


def lint_paths(paths: list[Path]) -> list[Finding]:
    """Findings on disk, cache and baseline both off."""
    return analyze_paths(paths, repo_root=REPO_ROOT, select=LOCAL_CODES).findings


def codes(source: str, path: str) -> list[str]:
    return [f.code for f in lint(textwrap.dedent(source), path)]


# ----------------------------------------------------------------------
# DGL001 -- unseeded randomness
# ----------------------------------------------------------------------


class TestUnseededRandomness:
    PATH = "src/repro/sampling/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\nrng = np.random.default_rng()\n",
            "from numpy.random import default_rng\nrng = default_rng()\n",
            "import numpy as np\nnp.random.seed(7)\n",
            "import numpy as np\nx = np.random.rand(3)\n",
            "import numpy.random as npr\nx = npr.choice([1, 2])\n",
            "import random\nx = random.random()\n",
            "import random\nrandom.shuffle([1, 2, 3])\n",
            "from random import randint\nx = randint(0, 9)\n",
        ],
    )
    def test_flags_unseeded_and_global_rng(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == ["DGL001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # explicit seeds and threaded generators are the convention
            "import numpy as np\nrng = np.random.default_rng(42)\n",
            "import numpy as np\ndef f(seed: int) -> object:\n    return np.random.default_rng(seed)\n",
            "from numpy.random import default_rng\nrng = default_rng(0)\n",
            "import numpy as np\nrng = np.random.Generator(np.random.PCG64(1))\n",
            "import random\nrng = random.Random(7)\n",
            # method calls on a threaded generator are not module-level calls
            "def step(rng: object) -> float:\n    return rng.normal()\n",
        ],
    )
    def test_allows_explicit_state(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == []

    def test_fires_anywhere_in_src(self) -> None:
        bad = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes(bad, "src/repro/experiments/snippet.py") == ["DGL001"]


# ----------------------------------------------------------------------
# DGL012 -- wall-clock reads in simulation code (the direct case)
# ----------------------------------------------------------------------


class TestWallClockInSimulation:
    PATH = "src/repro/core/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.perf_counter()\n",
            "import time\nt = time.monotonic_ns()\n",
            "from time import perf_counter\nt = perf_counter()\n",
            "from datetime import datetime\nt = datetime.now()\n",
            "import datetime\nt = datetime.datetime.utcnow()\n",
            "import datetime\nt = datetime.date.today()\n",
        ],
    )
    @pytest.mark.parametrize("scope", ["core", "sim", "sampling", "protocol"])
    def test_flags_wall_clock_in_simulation_scopes(
        self, snippet: str, scope: str
    ) -> None:
        assert codes(snippet, f"src/repro/{scope}/snippet.py") == ["DGL012"]

    def test_out_of_scope_paths_are_exempt(self) -> None:
        # experiments/ may time themselves; they are reporting, not protocol
        snippet = "import time\nt = time.perf_counter()\n"
        assert codes(snippet, "src/repro/experiments/snippet.py") == []

    def test_sleep_is_not_a_clock_read(self) -> None:
        assert codes("import time\ntime.sleep(0.1)\n", self.PATH) == []

    def test_each_read_is_reported_at_its_line(self) -> None:
        # module level, class body, a default argument, both same-named
        # defs of an if/else, an except branch: every read is its own
        # finding at its own line
        snippet = """\
        import time
        t = time.time()

        class Clock:
            started = time.monotonic()

        def stamp(at: float = time.perf_counter()) -> float:
            return at

        if hasattr(time, "time_ns"):
            def now() -> float:
                return time.time_ns() / 1e9
        else:
            def now() -> float:
                return time.time() + time.process_time()

        try:
            import fastclock
        except ImportError:
            fallback = time.monotonic_ns()
        """
        findings = lint(textwrap.dedent(snippet), self.PATH)
        assert [(f.code, f.line) for f in findings] == [
            ("DGL012", 2),
            ("DGL012", 5),
            ("DGL012", 7),
            ("DGL012", 12),
            ("DGL012", 15),
            ("DGL012", 15),
            ("DGL012", 20),
        ]


# ----------------------------------------------------------------------
# DGL003 -- locality reach-through
# ----------------------------------------------------------------------


class TestLocalityReachThrough:
    PATH = "src/repro/sampling/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            # classic telepathy: reading the graph's private adjacency
            "def walk(graph: object) -> int:\n    return graph._adjacency[0]\n",
            # reaching into a store owned by another node
            "def peek(store: object) -> list:\n    return store._rows\n",
            # chained receiver: self's operator is fine, *its* cache is not
            "class W:\n    def f(self) -> list:\n        return self._op._cache\n",
        ],
    )
    def test_flags_private_reach_through(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == ["DGL003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "class W:\n    def f(self) -> list:\n        return self._cache\n",
            "class W:\n    @classmethod\n    def f(cls) -> dict:\n        return cls._registry\n",
            # module-private helpers from explicit imports are intra-package
            "from repro.sampling import mixing\ng = mixing._spectral_gap\n",
            # dunders are protocol, not private state
            "def f(obj: object) -> type:\n    return obj.__class__\n",
            # the public messaging API is exactly what the rule steers to
            "def f(ledger: object, hops: int) -> None:\n    ledger.record_sample_return(hops)\n",
        ],
    )
    def test_allows_local_and_public_access(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == []

    def test_only_sampling_and_protocol_are_in_scope(self) -> None:
        snippet = "def walk(graph: object) -> int:\n    return graph._adjacency[0]\n"
        assert codes(snippet, "src/repro/network/snippet.py") == []
        assert codes(snippet, "src/repro/protocol/snippet.py") == ["DGL003"]


# ----------------------------------------------------------------------
# DGL004 -- float equality
# ----------------------------------------------------------------------


class TestFloatEquality:
    PATH = "src/repro/core/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(x: float) -> bool:\n    return x == 0.5\n",
            "def f(x: float) -> bool:\n    return x != 1.5\n",
            "def f(x: float) -> bool:\n    return 0.95 == x\n",
            "def f(a: float, b: float) -> bool:\n    return a < b == 2.5\n",
        ],
    )
    def test_flags_non_sentinel_float_equality(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == ["DGL004"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(x: float) -> bool:\n    return x == 0.0\n",  # degenerate guard
            "def f(x: float) -> bool:\n    return x == -0.0\n",
            'def f(x: float) -> bool:\n    return x == float("inf")\n',
            "def f(x: float) -> bool:\n    return x == 1\n",  # int comparison
            "def f(x: float) -> bool:\n    return x < 0.5\n",  # ordering is fine
            "import math\ndef f(x: float) -> bool:\n    return math.isclose(x, 0.5)\n",
        ],
    )
    def test_allows_sentinels_and_ordering(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == []

    def test_out_of_scope_paths_are_exempt(self) -> None:
        snippet = "def f(x: float) -> bool:\n    return x == 0.5\n"
        assert codes(snippet, "src/repro/db/snippet.py") == []


# ----------------------------------------------------------------------
# DGL005 -- missing annotations on public API
# ----------------------------------------------------------------------


class TestMissingAnnotations:
    PATH = "src/repro/core/snippet.py"

    @pytest.mark.parametrize(
        "snippet,missing",
        [
            ("def f(x):\n    return x\n", "x, return"),
            ("def f(x: int):\n    return x\n", "return"),
            ("def f(x) -> int:\n    return x\n", "x"),
            ("def f(*args, **kw) -> None:\n    pass\n", "*args, **kw"),
            (
                "class C:\n    def __init__(self, x: int):\n        self.x = x\n",
                "return",
            ),
            ("class C:\n    def m(self, x) -> None:\n        pass\n", "x"),
        ],
    )
    def test_flags_annotation_gaps(self, snippet: str, missing: str) -> None:
        findings = lint(snippet, self.PATH)
        assert [f.code for f in findings] == ["DGL005"]
        assert findings[0].message.endswith(missing)

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(x: int) -> int:\n    return x\n",
            "def _helper(x):\n    return x\n",  # private: exempt
            "class C:\n    def _m(self, x):\n        pass\n",
            # closures are not public API
            "def f() -> int:\n    def inner(x):\n        return x\n    return inner(1)\n",
            "class C:\n    def m(self) -> None:\n        pass\n",
        ],
    )
    def test_allows_annotated_private_and_nested(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == []

    def test_only_repro_paths_are_in_scope(self) -> None:
        assert codes("def f(x):\n    return x\n", "somewhere/else/snippet.py") == []


# ----------------------------------------------------------------------
# DGL013 -- protocol handlers must not raise (the direct case)
# ----------------------------------------------------------------------


class TestHandlerRaises:
    PATH = "src/repro/protocol/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            # a raise inside a scheduled-delivery handler aborts the run
            """\
            class Sampler:
                def _handle_step(self, message: object) -> None:
                    if message is None:
                        raise ValueError("bad message")
            """,
            """\
            class Sampler:
                def _receive_token(self, token: object) -> None:
                    raise RuntimeError("unreachable holder")
            """,
            # nested defs are delivery closures even under a benign name
            """\
            class Sampler:
                def transmit(self, node: int) -> None:
                    def deliver(time: int) -> None:
                        raise RuntimeError("boom")
                    self.simulation.schedule_in(1, deliver)
            """,
            # module-level handler functions count too
            """\
            def _on_timeout(state: object) -> None:
                raise TimeoutError(state)
            """,
        ],
    )
    def test_flags_raises_in_delivery_paths(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == ["DGL013"]

    def test_each_raise_is_reported_once(self) -> None:
        # a raise belongs to its innermost function only -- a handler
        # containing a raising closure yields one finding, not two
        snippet = """\
        class Sampler:
            def _handle_return(self, message: object) -> None:
                def forward(time: int) -> None:
                    raise RuntimeError("next hop gone")
                self.simulation.schedule_in(1, forward)
        """
        assert codes(snippet, self.PATH) == ["DGL013"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # the degradation contract: record the fault and drop the message
            """\
            class Sampler:
                def _handle_step(self, message: object) -> None:
                    if message is None:
                        self.fault_log.record(0, "message_loss")
                        return
            """,
            # validation raises at the caller-facing API are legal
            """\
            class Sampler:
                def start_walk(self, origin: int) -> None:
                    if origin < 0:
                        raise ValueError("bad origin")
            """,
            """\
            class Sampler:
                def run_walks(self, n: int) -> list:
                    if n <= 0:
                        raise ValueError("need at least one walk")
                    return []
            """,
        ],
    )
    def test_allows_recording_and_api_validation(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == []

    def test_only_protocol_is_in_scope(self) -> None:
        snippet = """\
        class Sampler:
            def _handle_step(self, message: object) -> None:
                raise ValueError("bad message")
        """
        assert codes(snippet, "src/repro/sampling/snippet.py") == []
        assert codes(snippet, self.PATH) == ["DGL013"]

    def test_every_direct_raise_is_reported_whatever_its_type(self) -> None:
        # the NotImplementedError/AssertionError exemption covers raises
        # reached through helpers, never one written in the handler; a
        # raise under except/finally/match branches counts too
        snippet = """\
        class Sampler:
            def _handle_step(self, message: object) -> None:
                try:
                    message.check()
                except KeyError:
                    raise NotImplementedError
                finally:
                    raise AssertionError
                match message:
                    case None:
                        raise
        """
        findings = lint(textwrap.dedent(snippet), self.PATH)
        assert [(f.code, f.line) for f in findings] == [
            ("DGL013", 6),
            ("DGL013", 8),
            ("DGL013", 11),
        ]


# ----------------------------------------------------------------------
# DGL007 -- no print() in src/repro/
# ----------------------------------------------------------------------


class TestNoPrint:
    PATH = "src/repro/experiments/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            'print("hello")\n',
            "def main() -> int:\n    print(1, 2, sep=',')\n    return 0\n",
            'import builtins\nbuiltins.print("x")\n',
            # file= does not excuse it: redirection goes through emit()
            'import sys\nprint("x", file=sys.stderr)\n',
        ],
    )
    def test_flags_print_calls(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == ["DGL007"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # the sanctioned chokepoint
            'from repro.obs.console import emit\nemit("hello")\n',
            # a method named print on some object is not builtins.print
            'def f(doc: object) -> None:\n    doc.print("x")\n',
            # an explicitly imported print is a deliberate rebinding
            "from repro.obs.console import emit as print\nprint()\n",
            # mentioning print in a docstring is not a call
            '"""Example::\n\n    print(engine.result)\n"""\n',
        ],
    )
    def test_allows_emit_and_non_builtin_print(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == []

    def test_only_repro_paths_are_in_scope(self) -> None:
        # tools/ and benchmarks/ are harness-side; they may print
        assert codes('print("x")\n', "tools/somewhere/snippet.py") == []
        assert codes('print("x")\n', self.PATH) == ["DGL007"]


# ----------------------------------------------------------------------
# DGL008 -- SamplingOperator constructed only inside repro.sampling
# ----------------------------------------------------------------------


class TestDirectOperatorConstruction:
    PATH = "src/repro/core/snippet.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            # the canonical offender: a private, unshareable substrate
            "from repro.sampling.operator import SamplingOperator\n"
            "op = SamplingOperator(g, rng)\n",
            # package re-export and aliasing do not launder it
            "from repro.sampling import SamplingOperator\n"
            "op = SamplingOperator(g, rng)\n",
            "from repro.sampling.operator import SamplingOperator as SO\n"
            "op = SO(g, rng)\n",
            "import repro.sampling.operator as operator\n"
            "op = operator.SamplingOperator(g, rng)\n",
        ],
    )
    def test_flags_construction_outside_sampling(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == ["DGL008"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # the sanctioned route: the pool owns the operator
            "from repro.sampling.pool import SamplePool\n"
            "pool = SamplePool(g, rng)\nop = pool.operator\n",
            # importing the type for annotations is fine; only calls flag
            "from repro.sampling.operator import SamplingOperator\n"
            "def f(op: SamplingOperator) -> None:\n    pass\n",
            # a same-named class from elsewhere is not ours
            "from somewhere.else_ import SamplingOperator\n"
            "op = SamplingOperator()\n",
        ],
    )
    def test_allows_pool_route_and_annotations(self, snippet: str) -> None:
        assert codes(snippet, self.PATH) == []

    def test_sampling_package_itself_is_exempt(self) -> None:
        snippet = (
            "from repro.sampling.operator import SamplingOperator\n"
            "op = SamplingOperator(g, rng)\n"
        )
        assert codes(snippet, "src/repro/sampling/pool.py") == []
        assert codes(snippet, "src/repro/experiments/snippet.py") == ["DGL008"]


# ----------------------------------------------------------------------
# engine behavior: noqa, select, errors
# ----------------------------------------------------------------------


class TestEngine:
    PATH = "src/repro/sampling/snippet.py"
    BAD = "import numpy as np\nrng = np.random.default_rng()"

    def test_noqa_with_matching_code_suppresses(self) -> None:
        assert codes(f"{self.BAD}  # noqa: DGL001\n", self.PATH) == []

    def test_bare_noqa_suppresses(self) -> None:
        assert codes(f"{self.BAD}  # noqa\n", self.PATH) == []

    def test_noqa_with_other_code_does_not_suppress(self) -> None:
        assert codes(f"{self.BAD}  # noqa: DGL012\n", self.PATH) == ["DGL001"]

    def test_noqa_code_list(self) -> None:
        assert codes(f"{self.BAD}  # noqa: DGL004, DGL001\n", self.PATH) == []

    def test_select_restricts_rules(self) -> None:
        bad_both = (
            "import numpy as np\nimport time\n"
            "rng = np.random.default_rng()\nt = time.time()\n"
        )
        path = "src/repro/core/snippet.py"
        assert codes(bad_both, path) == ["DGL001", "DGL012"]
        only = lint(bad_both, path, select=frozenset({"DGL012"}))
        assert [f.code for f in only] == ["DGL012"]

    def test_unknown_select_raises(self) -> None:
        # the CLI validates --select; an unknown code is a usage error
        result = run_cli("--select", "DGL999", "src/repro")
        assert result.returncode == 2
        assert "DGL999" in result.stderr

    def test_syntax_error_reports_dgl000(self) -> None:
        assert codes("def broken(:\n", self.PATH) == ["DGL000"]

    def test_missing_path_raises(self, tmp_path: Path) -> None:
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_findings_are_sorted_and_renderable(self, tmp_path: Path) -> None:
        scoped = tmp_path / "repro" / "core"
        scoped.mkdir(parents=True)
        bad = scoped / "bad.py"
        bad.write_text(
            "import time\n\n"
            "def f(x: float) -> float:\n"
            "    return time.time() if x == 0.5 else 0\n"
        )
        # DGL012 needs a ``repro`` component; the def is annotated, so
        # DGL005 stays quiet. The file lies outside the repository, so
        # findings keep its full path
        findings = lint_paths([tmp_path])
        assert findings == sorted(findings)
        assert {f.code for f in findings} == {"DGL012", "DGL004"}
        rendered = findings[0].render()
        assert str(bad) in rendered and ":DGL" not in rendered

    def test_rule_catalog_is_complete(self) -> None:
        assert [r.code for r in ALL_RULES] == [
            "DGL001",
            "DGL003",
            "DGL004",
            "DGL005",
            "DGL007",
            "DGL008",
        ]
        for rule in ALL_RULES:
            assert rule.summary and rule.rationale


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-m", "tools.digest_analyzer", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT)},
    )


#: one known-bad file per per-file rule: (scope directory, source, code
#: reported). The DGL002/DGL006 fixtures are the direct cases of the
#: per-file rules folded into DGL012/DGL013, which now report them.
BAD_FIXTURES = {
    "DGL001": (
        "sampling",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "DGL001",
    ),
    "DGL002": ("repro/core", "import time\nt = time.time()\n", "DGL012"),
    "DGL003": ("protocol", "def f(g):\n    return g._adjacency\n", "DGL003"),
    "DGL004": ("core", "def f(x):\n    return x == 0.5\n", "DGL004"),
    "DGL005": ("repro", "def f(x):\n    return x\n", "DGL005"),
    "DGL006": (
        "repro/protocol",
        "def _handle_x(m: object) -> None:\n    raise ValueError(m)\n",
        "DGL013",
    ),
    "DGL007": ("repro", 'print("hi")\n', "DGL007"),
    "DGL008": (
        "repro/core",
        "from repro.sampling.operator import SamplingOperator\n"
        "op = SamplingOperator(None, None)\n",
        "DGL008",
    ),
}


class TestCli:
    def test_clean_tree_exits_zero(self) -> None:
        result = run_cli(
            "--no-baseline",
            "--no-cache",
            "--select",
            ",".join(sorted(LOCAL_CODES)),
            "src/repro",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("fixture", sorted(BAD_FIXTURES))
    def test_each_rule_bad_fixture_exits_nonzero(
        self, fixture: str, tmp_path: Path
    ) -> None:
        scope, source, code = BAD_FIXTURES[fixture]
        scoped = tmp_path / scope
        scoped.mkdir(parents=True)
        bad = scoped / "bad.py"
        bad.write_text(source)
        result = run_cli("--no-baseline", "--no-cache", str(bad))
        assert result.returncode == 1, (result.stdout, result.stderr)
        assert code in result.stdout

    def test_list_rules(self) -> None:
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule in ALL_RULES:
            assert rule.code in result.stdout

    def test_missing_path_is_usage_error(self) -> None:
        result = run_cli("definitely/not/a/path")
        assert result.returncode == 2
        assert "error" in result.stderr


# ----------------------------------------------------------------------
# meta: the repository itself must be clean
# ----------------------------------------------------------------------


class TestRepositoryIsClean:
    def test_src_repro_has_zero_findings(self) -> None:
        findings = lint_paths([SRC_REPRO])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_tools_are_clean_too(self) -> None:
        # the analyzer lints itself (DGL001's scope applies everywhere;
        # DGL005 and DGL012 do not, because tools/ is not repro/)
        findings = lint_paths([REPO_ROOT / "tools"])
        assert findings == [], "\n".join(f.render() for f in findings)
