"""The per-file rules (DGL001, DGL003-DGL005, DGL007, DGL008), run in
the analyzer's first pass.

Each rule is a small AST pass over one module. Rules are scoped by path
(``applies_to``) so the same engine lints ``src/`` in CI and known-bad
fixtures in the test suite; paths are matched on their components, so
``src/repro/core/x.py`` and a fixture named ``fixtures/core/bad.py`` both
fall under a rule scoped to ``core``. Since the tools/- and tests/-wide
coverage extension, the simulation-structure rule (DGL003) explicitly
exempts ``tests/`` and ``benchmarks/`` trees -- a test may reach into
private state to assert on it; the hygiene rules (seeded RNGs, float
comparison) follow the code everywhere.

The cross-module rules (DGL009-DGL015) live in
``tools.digest_analyzer.rules_project``; they need the whole-program
facts the extractor builds and cannot run per file. The wall-clock and
handler-raise invariants are enforced there only (DGL012, DGL013): each
reports the direct case as well as the reachable one.

Name resolution is import-aware but deliberately shallow: a call is only
attributed to, say, ``numpy.random`` when the receiver is a plain
``Name``/``Attribute`` chain whose root was imported from numpy. Aliasing
through local variables (``r = np.random; r.seed(0)``) is not chased --
the rules aim at the patterns that actually appear in review, not at
adversarial obfuscation.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.digest_analyzer.findings import Finding

# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module/object paths they were bound to.

    ``import numpy as np`` binds ``np -> numpy``; ``from numpy.random
    import default_rng`` binds ``default_rng -> numpy.random.default_rng``.
    Relative imports are skipped (they can never be numpy/stdlib modules).
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    mapping[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds the top-level name ``a``
                    mapping[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                bound = alias.asname if alias.asname is not None else alias.name
                mapping[bound] = f"{node.module}.{alias.name}"
    return mapping


def _dotted_parts(node: ast.expr) -> list[str] | None:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _resolve(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Canonical dotted path of a Name/Attribute chain, or None.

    Returns e.g. ``numpy.random.default_rng`` for ``np.random.default_rng``
    under ``import numpy as np``. Unresolvable roots (local variables,
    ``self``) return None.
    """
    parts = _dotted_parts(node)
    if parts is None:
        return None
    root = imports.get(parts[0])
    if root is None:
        return None
    return ".".join([root, *parts[1:]])


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class Rule:
    """One lint rule: a code, docs, a path scope, and an AST check."""

    code: str = "DGL000"
    name: str = ""
    summary: str = ""
    rationale: str = ""

    def applies_to(self, path_parts: tuple[str, ...]) -> bool:
        raise NotImplementedError

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


# ----------------------------------------------------------------------
# DGL001 -- no unseeded / global-state randomness
# ----------------------------------------------------------------------

#: numpy.random attributes that construct explicit, threadable RNG state.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: stdlib ``random`` attributes that construct explicit instances.
_STDLIB_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})


class UnseededRandomness(Rule):
    code = "DGL001"
    name = "unseeded-randomness"
    summary = (
        "no unseeded np.random.default_rng() and no module-level "
        "np.random.* / random.* calls; thread an explicit np.random.Generator"
    )
    rationale = (
        "Every coverage number in RESULTS.md assumes bit-identical reruns. "
        "An unseeded Generator or the hidden global RNG makes the (epsilon, "
        "p) guarantee unverifiable: reruns draw different samples, so a "
        "failed coverage check cannot be reproduced. Follow the "
        "network/topology.py:_as_seed convention and accept a Generator "
        "(or explicit seed) parameter instead."
    )

    def applies_to(self, path_parts: tuple[str, ...]) -> bool:
        return True

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        imports = _import_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            full = _resolve(node.func, imports)
            if full is None:
                continue
            if full == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    yield self._finding(
                        path,
                        node,
                        "np.random.default_rng() without a seed; pass an "
                        "explicit seed or thread a np.random.Generator "
                        "(see repro.network.topology._as_seed)",
                    )
            elif full.startswith("numpy.random."):
                attr = full.rsplit(".", 1)[1]
                if attr not in _NP_RANDOM_ALLOWED:
                    yield self._finding(
                        path,
                        node,
                        f"{full}() uses numpy's hidden global RNG; thread "
                        "an explicit np.random.Generator instead",
                    )
            elif full.startswith("random."):
                attr = full.split(".", 2)[1]
                if attr not in _STDLIB_RANDOM_ALLOWED:
                    yield self._finding(
                        path,
                        node,
                        f"{full}() uses the stdlib global RNG; thread an "
                        "explicit np.random.Generator instead",
                    )


# ----------------------------------------------------------------------
# DGL003 -- locality: no private-state reach-through
# ----------------------------------------------------------------------

_LOCALITY_SCOPES = frozenset({"sampling", "protocol"})

#: Trees exempt even when a scope component matches: a test may
#: legitimately reach into private state to assert on it.
_STRUCTURE_EXEMPT = frozenset({"tests", "benchmarks"})


class LocalityReachThrough(Rule):
    code = "DGL003"
    name = "locality-reach-through"
    summary = (
        "sampling/ and protocol/ may not access private state of other "
        "objects (obj._attr); remote node state flows through "
        "network/messaging.py"
    )
    rationale = (
        "Theorem 1's message costs assume a walker learns about a remote "
        "node only by sending it a message that MessageLedger records. "
        "Reading another object's underscore state (graph._adjacency, "
        "store._rows) is free telepathy: the simulation stays correct-"
        "looking while the reported message counts undercount the protocol."
    )

    def applies_to(self, path_parts: tuple[str, ...]) -> bool:
        if _STRUCTURE_EXEMPT.intersection(path_parts):
            return False
        return bool(_LOCALITY_SCOPES.intersection(path_parts))

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        imports = _import_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or _is_dunder(attr):
                continue
            base = node.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls"):
                    continue
                if base.id in imports:
                    # module-level private helper from an explicit import
                    # (e.g. ``mixing._spectral_gap``) -- intra-package
                    # convention, not remote-state reach-through
                    continue
                receiver = base.id
            else:
                rendered = _dotted_parts(base)
                receiver = ".".join(rendered) if rendered else "<expr>"
            yield self._finding(
                path,
                node,
                f"reach-through into private state {receiver!r}.{attr}; "
                "access remote node state via repro.network.messaging "
                "so the message cost is recorded",
            )


# ----------------------------------------------------------------------
# DGL004 -- no float equality against non-sentinel literals
# ----------------------------------------------------------------------


class FloatEquality(Rule):
    code = "DGL004"
    name = "float-equality"
    summary = (
        "no == / != against float literals (other than the exact "
        "sentinels 0.0 and inf) in estimator/threshold code under core/"
    )
    rationale = (
        "Estimator and threshold arithmetic (Sections IV-B, V) decides "
        "whether a sample allocation meets the variance target; an exact "
        "comparison against a rounded float literal flips on the last ulp "
        "and silently changes the allocation. Exact comparison is only "
        "meaningful against values float represents exactly and that the "
        "code assigns literally: 0.0 (empty/degenerate guards) and "
        "float('inf') (unbounded targets)."
    )

    def applies_to(self, path_parts: tuple[str, ...]) -> bool:
        return "core" in path_parts

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[i], operands[i + 1]):
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, float)
                        and side.value != 0.0
                    ):
                        yield self._finding(
                            path,
                            node,
                            f"float equality against {side.value!r}; use "
                            "math.isclose with an explicit tolerance, or "
                            "compare against an exact sentinel",
                        )


# ----------------------------------------------------------------------
# DGL005 -- public API must be fully annotated
# ----------------------------------------------------------------------


class MissingAnnotations(Rule):
    code = "DGL005"
    name = "missing-annotations"
    summary = (
        "public functions and methods in src/repro/ must annotate every "
        "parameter and the return type"
    )
    rationale = (
        "The package ships py.typed: downstream callers (experiments, "
        "benchmarks, future services) type-check against these signatures, "
        "and mypy's strict-leaning config only checks bodies it can see "
        "types for. A public def without annotations is a hole in both."
    )

    def applies_to(self, path_parts: tuple[str, ...]) -> bool:
        return "repro" in path_parts

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        yield from self._check_body(tree.body, path)

    def _check_body(self, body: list[ast.stmt], path: str) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_body(node.body, path)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # private helpers may stay unannotated; nested closures are
                # never public API and are not visited at all
                if node.name.startswith("_") and not _is_dunder(node.name):
                    continue
                missing = self._missing(node)
                if missing:
                    kind = "method" if node.args.args and node.args.args[
                        0
                    ].arg in ("self", "cls") else "function"
                    yield self._finding(
                        path,
                        node,
                        f"public {kind} {node.name!r} is missing annotations "
                        f"for: {', '.join(missing)}",
                    )

    def _missing(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
        args = node.args
        ordered = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        missing = [
            a.arg
            for a in ordered
            if a.annotation is None and a.arg not in ("self", "cls")
        ]
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"*{args.vararg.arg}")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"**{args.kwarg.arg}")
        if node.returns is None:
            missing.append("return")
        return missing


# ----------------------------------------------------------------------
# DGL007 -- no print() in src/repro/
# ----------------------------------------------------------------------


class NoPrint(Rule):
    code = "DGL007"
    name = "no-print"
    summary = (
        "no print() inside src/repro/; report through "
        "repro.obs.console.emit, the tracer/metrics, or returned structures"
    )
    rationale = (
        "print() is output the telemetry layer cannot see: it bypasses the "
        "trace, cannot be attributed to a span or counter, and is "
        "unredirectable by a harness embedding the package. "
        "repro.obs.console.emit is the one sanctioned stdout chokepoint "
        "(resolved per call, so capture still works); measurements belong "
        "on RunMetrics, spans, or the structures experiments return."
    )

    def applies_to(self, path_parts: tuple[str, ...]) -> bool:
        return "repro" in path_parts

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        imports = _import_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                hit = func.id == "print" and func.id not in imports
            else:
                hit = _resolve(func, imports) == "builtins.print"
            if hit:
                yield self._finding(
                    path,
                    node,
                    "print() in src/repro/; use repro.obs.console.emit "
                    "(or record on the tracer/metrics) instead",
                )


# ----------------------------------------------------------------------
# DGL008 -- SamplingOperator is constructed only inside repro.sampling
# ----------------------------------------------------------------------


class DirectOperatorConstruction(Rule):
    code = "DGL008"
    name = "direct-operator-construction"
    summary = (
        "no direct SamplingOperator construction outside repro.sampling; "
        "obtain the operator through SamplePool (pool.operator / "
        "pool.lease)"
    )
    rationale = (
        "The multi-query amortization argument (shared walks priced once, "
        "per-consumer reuse cursors, pool_hit/pool_miss accounting) only "
        "holds if every query reaches the sampling substrate through the "
        "one pool that owns it. A privately constructed SamplingOperator "
        "is an unshared side channel: its walks cannot be coalesced with "
        "co-resident queries and its draws never appear in the pool "
        "counters, so the reported amortization overstates itself. "
        "Construct a repro.sampling.pool.SamplePool and use its .operator "
        "(or a per-query .lease) instead; tests and harness code outside "
        "src/repro are exempt."
    )

    def applies_to(self, path_parts: tuple[str, ...]) -> bool:
        return "repro" in path_parts and "sampling" not in path_parts

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        imports = _import_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            full = _resolve(node.func, imports)
            if full is None:
                continue
            if full.startswith("repro.sampling") and full.endswith(
                ".SamplingOperator"
            ):
                yield self._finding(
                    path,
                    node,
                    "direct SamplingOperator construction outside "
                    "repro.sampling; build a SamplePool and use "
                    ".operator / .lease so walks stay shareable and "
                    "pool accounting stays honest",
                )


#: Registry in code order; the runner and ``--list-rules`` both use it.
ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomness(),
    LocalityReachThrough(),
    FloatEquality(),
    MissingAnnotations(),
    NoPrint(),
    DirectOperatorConstruction(),
)

RULES_BY_CODE: dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}
