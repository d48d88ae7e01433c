"""Pass 1: per-file fact extraction (and the per-file rules).

The analyzer never holds every AST at once. Each file is parsed exactly
once and reduced to a :class:`FileFacts` summary — functions, resolved
call edges, direct raises, wall-clock reads, RNG taint flows, trace
span/event call sites, and trace-name literals. The summaries are small,
JSON-serializable (so the on-disk cache can store them keyed by content
hash), and everything pass 2 (:mod:`tools.digest_analyzer.project`)
needs to run the cross-module rules.

The per-file rules (:mod:`tools.digest_analyzer.rules_local`) run here
too, during the same parse;
their *raw* findings (pre-suppression, pre-baseline) are cached alongside
the facts. Suppression and baselining are run-time policy, applied by the
engine after pass 2, so cached entries stay valid when only a pragma or
the baseline changes elsewhere.

Name resolution is import-aware but deliberately shallow, matching the
per-file rules: a call is attributed to ``repro.sampling.pool.SamplePool``
only when the receiver is a plain Name/Attribute chain the import map can
root. ``self.method`` calls resolve to the enclosing class; bare names
resolve to module-level definitions. Aliasing through arbitrary locals is
not chased — except for RNG values, whose assignments and aliases *are*
tracked (that is what DGL011 is for).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Any, Iterable, Iterator

from tools.digest_analyzer.findings import Finding
from tools.digest_analyzer.rules_local import (
    ALL_RULES,
    Rule,
    _dotted_parts,
    _import_map,
    _resolve,
)

#: Bump to invalidate every cached entry (facts layout or rule change).
ANALYZER_VERSION = "4"

#: Local markers the resolver uses for names pass 2 must finish resolving.
LOCAL_PREFIX = "@local."  # module-level def in the same file
SELF_PREFIX = "@self."  # method on the enclosing class


@dataclass
class CallFact:
    """One resolved call site inside a function."""

    lineno: int
    col: int
    #: canonical dotted target, ``@local.f``, or ``@self.meth``
    target: str
    #: RNG-ish arguments: ``(slot, taint)`` where slot is a 0-based
    #: positional index or a keyword name, taint the local taint root
    rng_args: list[tuple[int | str, str]] = field(default_factory=list)
    #: classification of a ``ctx=`` keyword argument, when present:
    #: ``"name"`` (a Name/Attribute chain — forwarded), ``"call:<target>"``
    #: (built by calling <target>), ``"dict"`` (hand-built literal),
    #: ``"none"`` (explicit None), or ``"other"`` (DGL015 raw material)
    ctx_arg: str | None = None


@dataclass
class FunctionFact:
    """One function or method, summarized."""

    qualname: str  # module-relative, e.g. "ProtocolSampler._handle_timeout"
    lineno: int
    params: list[str]
    rng_params: list[str]
    #: a scheduled-delivery entry point: named by ``_HANDLER_PREFIXES``,
    #: or a def nested in another def under ``protocol/`` (a closure
    #: handed to the event loop)
    is_handler: bool
    calls: list[CallFact] = field(default_factory=list)
    #: direct ``raise`` statements: ``(lineno, col, exception name or "")``
    raises: list[tuple[int, int, str]] = field(default_factory=list)
    #: direct wall-clock calls: ``(lineno, col, dotted clock)``
    wall_clock: list[tuple[int, int, str]] = field(default_factory=list)


@dataclass
class TraceCallFact:
    """One tracer call site: span/event/add_event open, end, or set."""

    kind: str  # "span" | "event" | "add_event" | "end" | "set"
    lineno: int
    col: int
    function: str
    #: literal name value, when the name argument was a string constant
    name_literal: str | None = None
    #: dotted resolution of a constant name argument (e.g.
    #: ``repro.obs.schema.SPAN_WALK``); None when literal or unresolvable
    name_ref: str | None = None
    #: attribute keys set at this call
    attr_keys: list[str] = field(default_factory=list)
    #: rendered span variable: assignment target for "span", the span
    #: argument for "end", the receiver for "set"/"add_event"
    span_var: str | None = None


@dataclass
class ImportFact:
    """One import statement, resolved to the absolute module it names.

    Relative imports (``from .batching import ...``) are resolved against
    the importing file's package so layering rules (DGL014) see the same
    dotted module either way. ``type_checking`` marks imports inside an
    ``if TYPE_CHECKING:`` block — they create no runtime dependency, but
    still couple the layers and are reported (with the guard noted).
    """

    lineno: int
    col: int
    #: absolute dotted module referenced (``repro.core.scheduler``)
    module: str
    type_checking: bool = False


@dataclass
class NameLiteralFact:
    """A string literal in a trace-name position (DGL010 raw material).

    ``context`` records the syntactic position: ``name_cmp`` (compared
    against an ``.name`` attribute) or ``spans_named`` (argument to
    ``Trace.spans_named``).
    """

    lineno: int
    col: int
    value: str
    context: str


@dataclass
class FileFacts:
    """Everything pass 2 needs to know about one file."""

    path: str
    functions: list[FunctionFact] = field(default_factory=list)
    trace_calls: list[TraceCallFact] = field(default_factory=list)
    name_literals: list[NameLiteralFact] = field(default_factory=list)
    imports: list[ImportFact] = field(default_factory=list)
    parse_error: bool = False

    def to_json(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "parse_error": self.parse_error,
            "functions": [
                {
                    "qualname": f.qualname,
                    "lineno": f.lineno,
                    "params": f.params,
                    "rng_params": f.rng_params,
                    "is_handler": f.is_handler,
                    "calls": [
                        {
                            "lineno": c.lineno,
                            "col": c.col,
                            "target": c.target,
                            "rng_args": [list(a) for a in c.rng_args],
                            "ctx_arg": c.ctx_arg,
                        }
                        for c in f.calls
                    ],
                    "raises": [list(r) for r in f.raises],
                    "wall_clock": [list(w) for w in f.wall_clock],
                }
                for f in self.functions
            ],
            "trace_calls": [
                {
                    "kind": t.kind,
                    "lineno": t.lineno,
                    "col": t.col,
                    "function": t.function,
                    "name_literal": t.name_literal,
                    "name_ref": t.name_ref,
                    "attr_keys": t.attr_keys,
                    "span_var": t.span_var,
                }
                for t in self.trace_calls
            ],
            "name_literals": [
                {
                    "lineno": n.lineno,
                    "col": n.col,
                    "value": n.value,
                    "context": n.context,
                }
                for n in self.name_literals
            ],
            "imports": [
                {
                    "lineno": i.lineno,
                    "col": i.col,
                    "module": i.module,
                    "type_checking": i.type_checking,
                }
                for i in self.imports
            ],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "FileFacts":
        facts = cls(path=data["path"], parse_error=data["parse_error"])
        for f in data["functions"]:
            fact = FunctionFact(
                qualname=f["qualname"],
                lineno=f["lineno"],
                params=list(f["params"]),
                rng_params=list(f["rng_params"]),
                is_handler=f["is_handler"],
                raises=[(r[0], r[1], r[2]) for r in f["raises"]],
                wall_clock=[(w[0], w[1], w[2]) for w in f["wall_clock"]],
            )
            fact.calls = [
                CallFact(
                    lineno=c["lineno"],
                    col=c["col"],
                    target=c["target"],
                    rng_args=[(a[0], a[1]) for a in c["rng_args"]],
                    ctx_arg=c.get("ctx_arg"),
                )
                for c in f["calls"]
            ]
            facts.functions.append(fact)
        facts.trace_calls = [TraceCallFact(**t) for t in data["trace_calls"]]
        facts.name_literals = [
            NameLiteralFact(**n) for n in data["name_literals"]
        ]
        facts.imports = [ImportFact(**i) for i in data.get("imports", [])]
        return facts


#: naming convention for scheduled-delivery entry points (DGL013)
_HANDLER_PREFIXES = ("_handle", "_deliver", "_receive", "_on_")

#: wall-clock readers (DGL012); ``time.sleep`` reads nothing
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: tracer receivers: last component of the receiver chain must hit this
_TRACER_HINT = "tracer"
_SPAN_HINT = "span"


def _render(node: ast.expr) -> str | None:
    """Best-effort source rendering of a Name/Attribute/Subscript chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _render(node.value)
        return None if base is None else f"{base}.{node.attr}"
    if isinstance(node, ast.Subscript):
        base = _render(node.value)
        return None if base is None else f"{base}[...]"
    return None


def _is_rngish_param(arg: ast.arg) -> bool:
    """Generator-annotated, or named by the ``rng`` convention."""
    if arg.arg == "rng" or arg.arg.endswith("_rng"):
        return True
    if arg.annotation is not None:
        try:
            rendered = ast.unparse(arg.annotation)
        except Exception:  # pragma: no cover - malformed annotation
            return False
        return "Generator" in rendered
    return False


class _FunctionExtractor:
    """Walks one function body; collects calls, raises, taints, spans."""

    def __init__(
        self,
        fact: FunctionFact,
        imports: dict[str, str],
        module_defs: frozenset[str],
        facts: FileFacts,
    ) -> None:
        self.fact = fact
        self.imports = imports
        self.module_defs = module_defs
        self.facts = facts
        #: local taint: alias name -> taint root name
        self.taint: dict[str, str] = {p: p for p in fact.rng_params}
        self._fresh = 0

    # -- resolution ----------------------------------------------------

    def _resolve_call_target(self, func: ast.expr) -> str | None:
        if isinstance(func, ast.Name):
            if func.id in self.imports:
                return self.imports[func.id]
            if func.id in self.module_defs:
                return LOCAL_PREFIX + func.id
            return None
        if isinstance(func, ast.Attribute):
            parts = _dotted_parts(func)
            if parts is None:
                return None
            if parts[0] == "self" and len(parts) == 2:
                return SELF_PREFIX + parts[1]
            resolved = _resolve(func, self.imports)
            return resolved
        return None

    def _taint_of(self, node: ast.expr) -> str | None:
        """Taint root of an expression used as a call argument."""
        if isinstance(node, ast.Name):
            return self.taint.get(node.id)
        if isinstance(node, ast.Call):
            target = self._resolve_call_target(node.func)
            if target == "numpy.random.default_rng":
                self._fresh += 1
                return f"<fresh#{self._fresh}>"
        return None

    # -- statement walk ------------------------------------------------

    def walk(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(
        self, stmt: ast.stmt | ast.excepthandler | ast.match_case
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # decorators and defaults run here, at def time; the body is
            # extracted as its own function
            for expr in [
                *stmt.decorator_list,
                *stmt.args.defaults,
                *stmt.args.kw_defaults,
            ]:
                if expr is not None:
                    self._visit_expr_tree(expr)
            return
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = ""
            if isinstance(exc, ast.Name):
                name = exc.id
            elif isinstance(exc, ast.Attribute):
                name = exc.attr
            self.fact.raises.append((stmt.lineno, stmt.col_offset + 1, name))
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._visit_assignment(stmt)
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, (ast.stmt, ast.excepthandler, ast.match_case)):
                self._visit_stmt(node)
            else:
                self._visit_expr_tree(node)

    def _visit_assignment(self, stmt: ast.Assign | ast.AnnAssign) -> None:
        value = stmt.value
        if value is None:
            return
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        simple = [t.id for t in targets if isinstance(t, ast.Name)]
        # rng taint: fresh construction or alias of a tainted local
        taint = self._taint_of(value)
        for name in simple:
            if taint is not None:
                self.taint[name] = taint
            else:
                self.taint.pop(name, None)
        # span variable: record the assignment target on the trace fact
        if isinstance(value, ast.Call):
            trace = self._match_trace_call(value)
            if trace is not None and trace.kind == "span":
                rendered = [_render(t) for t in targets]
                trace.span_var = next(
                    (r for r in rendered if r is not None), None
                )

    def _visit_expr_tree(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Call):
                self._visit_call(child)
            elif isinstance(child, ast.Compare):
                self._visit_compare(child)

    # -- call handling -------------------------------------------------

    def _visit_call(self, call: ast.Call) -> None:
        target = self._resolve_call_target(call.func)
        if target is not None:
            if target in _WALL_CLOCK_CALLS:
                self.fact.wall_clock.append(
                    (call.lineno, call.col_offset + 1, target)
                )
            fact = CallFact(lineno=call.lineno, col=call.col_offset + 1, target=target)
            for index, arg in enumerate(call.args):
                taint = self._taint_of(arg)
                if taint is not None:
                    fact.rng_args.append((index, taint))
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                taint = self._taint_of(keyword.value)
                if taint is not None:
                    fact.rng_args.append((keyword.arg, taint))
                if keyword.arg == "ctx":
                    fact.ctx_arg = self._classify_ctx(keyword.value)
            self.fact.calls.append(fact)
        trace = self._match_trace_call(call)
        if trace is not None and trace not in self.facts.trace_calls:
            self.facts.trace_calls.append(trace)
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "spans_named"
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            self.facts.name_literals.append(
                NameLiteralFact(
                    lineno=call.args[0].lineno,
                    col=call.args[0].col_offset + 1,
                    value=call.args[0].value,
                    context="spans_named",
                )
            )

    def _classify_ctx(self, value: ast.expr) -> str:
        """Summarize what a ``ctx=`` keyword argument is (DGL015 fuel)."""
        if isinstance(value, ast.Constant) and value.value is None:
            return "none"
        if isinstance(value, (ast.Name, ast.Attribute)):
            return "name" if _render(value) is not None else "other"
        if isinstance(value, ast.Dict):
            return "dict"
        if isinstance(value, ast.Call):
            target = self._resolve_call_target(value.func)
            if target is None:
                target = _render(value.func) or "?"
            return f"call:{target}"
        return "other"

    _trace_seen: dict[int, TraceCallFact] = {}

    def _match_trace_call(self, call: ast.Call) -> TraceCallFact | None:
        """Recognize tracer call sites; memoized per Call node so the
        assignment pass and the expression pass agree on one fact."""
        key = id(call)
        if key in self._trace_seen:
            return self._trace_seen[key]
        fact = self._build_trace_call(call)
        if fact is not None:
            self._trace_seen[key] = fact
        return fact

    def _build_trace_call(self, call: ast.Call) -> TraceCallFact | None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        receiver = _render(func.value) or ""
        receiver_last = receiver.rsplit(".", 1)[-1].split("[", 1)[0]
        kind: str | None = None
        if func.attr in ("span", "event") and _TRACER_HINT in receiver_last:
            kind = func.attr
        elif func.attr == "add_event" and _SPAN_HINT in receiver_last:
            kind = "add_event"
        elif func.attr == "end" and _TRACER_HINT in receiver_last:
            kind = "end"
        elif func.attr == "set" and _SPAN_HINT in receiver_last:
            kind = "set"
        elif func.attr == "append" and receiver_last == "events":
            # the hot-path fast form of add_event:
            #   <span>.events.append(TraceEvent(time, NAME, {...}))
            # recognized so inlined emitters stay schema-checked
            return self._build_fast_append(call, receiver)
        if kind is None:
            return None
        fact = TraceCallFact(
            kind=kind,
            lineno=call.lineno,
            col=call.col_offset + 1,
            function=self.fact.qualname,
        )
        skip_keys = {
            "span": ("time", "parent"),
            "event": ("time", "span"),
            "add_event": (),
            "end": ("time",),
            "set": (),
        }[kind]
        fact.attr_keys = [
            k.arg
            for k in call.keywords
            if k.arg is not None and k.arg not in skip_keys
        ]
        name_arg: ast.expr | None = None
        if kind in ("span", "event") and call.args:
            name_arg = call.args[0]
        elif kind == "add_event" and len(call.args) >= 2:
            name_arg = call.args[1]
        if name_arg is not None:
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                fact.name_literal = name_arg.value
            else:
                fact.name_ref = _resolve(name_arg, self.imports)
        if kind == "end" and call.args:
            fact.span_var = _render(call.args[0])
        elif kind in ("add_event", "set"):
            fact.span_var = receiver
        return fact

    def _build_fast_append(
        self, call: ast.Call, receiver: str
    ) -> TraceCallFact | None:
        """``<span>.events.append(TraceEvent(time, NAME, {...}))``.

        Only the fully-literal shape is summarized (a dict built
        elsewhere is opaque to static checking); the owner of the
        ``.events`` list must look like a span variable, mirroring the
        ``add_event`` receiver convention.
        """
        owner = receiver.rsplit(".", 1)[0] if "." in receiver else ""
        owner_last = owner.rsplit(".", 1)[-1].split("[", 1)[0]
        if _SPAN_HINT not in owner_last or len(call.args) != 1:
            return None
        inner = call.args[0]
        if not isinstance(inner, ast.Call):
            return None
        ctor = inner.func
        ctor_name = (
            ctor.id
            if isinstance(ctor, ast.Name)
            else ctor.attr if isinstance(ctor, ast.Attribute) else None
        )
        if ctor_name != "TraceEvent" or len(inner.args) < 2:
            return None
        fact = TraceCallFact(
            kind="add_event",
            lineno=call.lineno,
            col=call.col_offset + 1,
            function=self.fact.qualname,
            span_var=owner,
        )
        name_arg = inner.args[1]
        if isinstance(name_arg, ast.Constant) and isinstance(
            name_arg.value, str
        ):
            fact.name_literal = name_arg.value
        else:
            fact.name_ref = _resolve(name_arg, self.imports)
        if len(inner.args) >= 3 and isinstance(inner.args[2], ast.Dict):
            fact.attr_keys = [
                key.value
                for key in inner.args[2].keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            ]
        return fact

    # -- comparisons (DGL010 raw material) -----------------------------

    def _visit_compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        against_name = any(
            isinstance(op, ast.Attribute) and op.attr == "name"
            for op in operands
        )
        if not against_name:
            return
        for op in operands:
            candidates: list[ast.expr] = [op]
            if isinstance(op, (ast.Tuple, ast.List, ast.Set)):
                candidates = list(op.elts)
            for candidate in candidates:
                if isinstance(candidate, ast.Constant) and isinstance(
                    candidate.value, str
                ):
                    self.facts.name_literals.append(
                        NameLiteralFact(
                            lineno=candidate.lineno,
                            col=candidate.col_offset + 1,
                            value=candidate.value,
                            context="name_cmp",
                        )
                    )


def _iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
    """Every def in the module: module-relative qualname, node, and
    whether it is nested inside another def."""

    def walk(
        nodes: Iterable[ast.AST], prefix: str, nested: bool
    ) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef, bool]]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                yield qual, node, nested
                yield from walk(node.body, f"{qual}.", True)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.", nested)
            elif isinstance(node, (ast.stmt, ast.excepthandler, ast.match_case)):
                # defs under if/try/with/for/match branches still count
                yield from walk(ast.iter_child_nodes(node), prefix, nested)

    yield from walk(tree.body, "", False)


def _file_package(path: str) -> str:
    """Dotted package containing ``path`` (``src`` layout aware).

    ``src/repro/protocol/runtime.py`` -> ``repro.protocol``; for an
    ``__init__.py`` the module *is* the package. Used to resolve
    relative imports to absolute modules.
    """
    parts = [p for p in path.replace("\\", "/").split("/") if p not in (".", "")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    if parts[-1].endswith(".py"):
        parts = parts[:-1]  # for __init__.py the directory is the package
    return ".".join(parts)


def _collect_imports(tree: ast.Module, path: str) -> list[ImportFact]:
    """Every import in the file, resolved to absolute dotted modules.

    Walks compound statements (functions, ``try``, conditionals) so
    deferred and guarded imports are seen too; imports under an
    ``if TYPE_CHECKING:`` test carry ``type_checking=True``.
    """
    package = _file_package(path)
    out: list[ImportFact] = []

    def is_type_checking(test: ast.expr) -> bool:
        rendered = _render(test)
        return rendered in ("TYPE_CHECKING", "typing.TYPE_CHECKING")

    def visit(body: list[ast.stmt], guarded: bool) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    out.append(
                        ImportFact(
                            stmt.lineno, stmt.col_offset + 1, alias.name, guarded
                        )
                    )
            elif isinstance(stmt, ast.ImportFrom):
                module = stmt.module or ""
                if stmt.level:
                    base = package.split(".") if package else []
                    drop = stmt.level - 1
                    base = base[: len(base) - drop] if drop else base
                    module = ".".join(base + ([module] if module else []))
                if module:
                    out.append(
                        ImportFact(
                            stmt.lineno, stmt.col_offset + 1, module, guarded
                        )
                    )
            elif isinstance(stmt, ast.If):
                visit(stmt.body, guarded or is_type_checking(stmt.test))
                visit(stmt.orelse, guarded)
            else:
                fields = ("body", "orelse", "finalbody", "handlers", "cases")
                for field_name in fields:
                    children = getattr(stmt, field_name, None)
                    if not children:
                        continue
                    for child in children:
                        if isinstance(child, (ast.excepthandler, ast.match_case)):
                            visit(child.body, guarded)
                        elif isinstance(child, ast.stmt):
                            visit([child], guarded)

    visit(tree.body, False)
    return out


def extract_file_facts(
    source: str, path: str
) -> tuple[FileFacts, list[Finding]]:
    """Parse ``source`` once; return its facts and raw per-file findings.

    Syntax errors (and the null-byte/decoding failures ``ast.parse``
    raises as ``ValueError``) become a single DGL000 finding and an
    empty, ``parse_error``-marked facts record — one broken file must
    never abort the whole run.
    """
    facts = FileFacts(path=path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        facts.parse_error = True
        return facts, [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                code="DGL000",
                message=f"syntax error prevents analysis: {exc.msg}",
            )
        ]
    except ValueError as exc:
        facts.parse_error = True
        return facts, [
            Finding(
                path=path,
                line=1,
                col=1,
                code="DGL000",
                message=f"unparseable file: {exc}",
            )
        ]

    facts.imports = _collect_imports(tree, path)
    imports = _import_map(tree)
    module_defs = frozenset(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    )

    # module level executes too: wrap the module body as "<module>"
    module_fact = FunctionFact(
        qualname="<module>",
        lineno=1,
        params=[],
        rng_params=[],
        is_handler=False,
    )
    extractor = _FunctionExtractor(module_fact, imports, module_defs, facts)
    extractor._trace_seen = {}
    extractor.walk(tree.body)
    facts.functions.append(module_fact)

    in_protocol = "protocol" in path_parts(path)
    for qualname, node, nested in _iter_functions(tree):
        ordered = [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]
        fact = FunctionFact(
            qualname=qualname,
            lineno=node.lineno,
            params=[a.arg for a in ordered],
            rng_params=[a.arg for a in ordered if _is_rngish_param(a)],
            is_handler=node.name.startswith(_HANDLER_PREFIXES)
            or (nested and in_protocol),
        )
        extractor = _FunctionExtractor(fact, imports, module_defs, facts)
        extractor._trace_seen = {}
        extractor.walk(node.body)
        facts.functions.append(fact)

    findings = _run_local_rules(tree, path)
    return facts, findings


def path_parts(path: str) -> tuple[str, ...]:
    return tuple(PurePosixPath(path.replace("\\", "/")).parts)


def _run_local_rules(
    tree: ast.Module, path: str, rules: tuple[Rule, ...] = ALL_RULES
) -> list[Finding]:
    """The per-file rules, unfiltered."""
    parts = path_parts(path)
    findings: list[Finding] = []
    for rule in rules:
        if rule.applies_to(parts):
            findings.extend(rule.check(tree, path))
    return sorted(findings)
