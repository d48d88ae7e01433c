"""Cross-module rules (DGL009-DGL015): pass 2 over the project view.

Unlike the per-file rules these need the whole program: the declared
trace schema, the call graph, or the interprocedural RNG summaries.
Each rule is a pure function over (:class:`Project`, :class:`SchemaFacts`)
returning findings; nothing here touches the filesystem.
"""

from __future__ import annotations

from tools.digest_analyzer.extract import TraceCallFact
from tools.digest_analyzer.findings import Finding
from tools.digest_analyzer.project import (
    Project,
    ProjectFunction,
    module_name,
    path_parts,
)
from tools.digest_analyzer.schema_facts import SCHEMA_MODULE, SchemaFacts


def _in_src_repro(parts: tuple[str, ...]) -> bool:
    """Shipping simulation code: the ``repro`` package, not its tests."""
    return (
        "repro" in parts
        and "tests" not in parts
        and "benchmarks" not in parts
    )


class ProjectRule:
    """Base: code/name/docs plus the project-wide check hook."""

    code: str = "DGL0XX"
    name: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, project: Project, schema: SchemaFacts) -> list[Finding]:
        raise NotImplementedError

    def _finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=path, line=line, col=col, code=self.code, message=message
        )


class TraceSchemaConformance(ProjectRule):
    """DGL009: every span/event call site matches the declared schema."""

    code = "DGL009"
    name = "trace-schema-conformance"
    summary = (
        "tracer.span()/event() call sites must use declared "
        "repro.obs.schema names and declared attribute keys"
    )
    rationale = (
        "The trace schema is the contract between producers and every "
        "trace consumer (RunMetrics derivation, the trace CLI, RESULTS "
        "collection). An undeclared name or attribute key is producer/"
        "consumer drift that corrupts derived results without failing."
    )

    def check(self, project: Project, schema: SchemaFacts) -> list[Finding]:
        constants_by_value = {v: k for k, v in schema.constants.items()}
        findings: list[Finding] = []
        for path, facts in project.facts_by_path.items():
            if not _in_src_repro(path_parts(path)):
                continue
            named = [
                t
                for t in facts.trace_calls
                if t.kind in ("span", "event", "add_event")
            ]
            for call in named:
                findings.extend(
                    self._check_named_call(
                        call, path, schema, constants_by_value
                    )
                )
            findings.extend(self._check_lifecycles(facts, path, schema))
        return findings

    def _check_named_call(
        self,
        call: TraceCallFact,
        path: str,
        schema: SchemaFacts,
        constants_by_value: dict[str, str],
    ) -> list[Finding]:
        what = "span" if call.kind == "span" else "event"
        name = self._resolved_name(call, schema)
        if call.name_literal is not None:
            if call.name_literal in schema.names:
                constant = constants_by_value.get(call.name_literal, "?")
                return [
                    self._finding(
                        path,
                        call.lineno,
                        call.col,
                        f"hard-coded {what} name {call.name_literal!r}; "
                        f"use {SCHEMA_MODULE}.{constant}",
                    )
                ]
            return [
                self._finding(
                    path,
                    call.lineno,
                    call.col,
                    f"undeclared {what} name {call.name_literal!r}; "
                    f"declare it in {SCHEMA_MODULE}",
                )
            ]
        if name is None:
            shown = call.name_ref or "<dynamic expression>"
            return [
                self._finding(
                    path,
                    call.lineno,
                    call.col,
                    f"{what} name must be a {SCHEMA_MODULE} constant "
                    f"(got {shown})",
                )
            ]
        findings: list[Finding] = []
        shape = schema.shape_for(name)
        if shape is None:
            findings.append(
                self._finding(
                    path,
                    call.lineno,
                    call.col,
                    f"{SCHEMA_MODULE} constant {call.name_ref} has no "
                    f"registered schema entry for {name!r}",
                )
            )
            return findings
        if shape.kind != what:
            findings.append(
                self._finding(
                    path,
                    call.lineno,
                    call.col,
                    f"{name!r} is declared as a {shape.kind}, "
                    f"but recorded here as a {what}",
                )
            )
            return findings
        undeclared = [k for k in call.attr_keys if k not in shape.attrs]
        if undeclared:
            findings.append(
                self._finding(
                    path,
                    call.lineno,
                    call.col,
                    f"undeclared attribute keys on {what} {name!r}: "
                    f"{', '.join(sorted(undeclared))} "
                    f"(declare them in {SCHEMA_MODULE})",
                )
            )
        if what == "event":
            missing = [k for k in shape.required if k not in call.attr_keys]
            if missing:
                findings.append(
                    self._finding(
                        path,
                        call.lineno,
                        call.col,
                        f"event {name!r} missing required attribute keys: "
                        f"{', '.join(missing)}",
                    )
                )
        return findings

    @staticmethod
    def _resolved_name(call: TraceCallFact, schema: SchemaFacts) -> str | None:
        if call.name_literal is not None:
            return call.name_literal
        return schema.resolve_ref(call.name_ref)

    def _check_lifecycles(
        self, facts, path: str, schema: SchemaFacts
    ) -> list[Finding]:
        """Span opens joined with same-function end/set on the same var:
        undeclared keys at the end/set site, and — when the full
        lifecycle is visible (open + end in one function) — required
        keys present over the union."""
        findings: list[Finding] = []
        opens: dict[tuple[str, str], TraceCallFact] = {}
        for call in facts.trace_calls:
            if call.kind == "span" and call.span_var:
                opens[(call.function, call.span_var)] = call
        closures: dict[tuple[str, str], list[TraceCallFact]] = {}
        for call in facts.trace_calls:
            if call.kind in ("end", "set") and call.span_var:
                closures.setdefault(
                    (call.function, call.span_var), []
                ).append(call)
        for key, open_call in opens.items():
            name = self._resolved_name(open_call, schema)
            if name is None:
                continue
            shape = schema.spans.get(name)
            if shape is None:
                continue
            seen = set(open_call.attr_keys)
            ended = False
            for closure in closures.get(key, []):
                ended = ended or closure.kind == "end"
                seen.update(closure.attr_keys)
                undeclared = [
                    k for k in closure.attr_keys if k not in shape.attrs
                ]
                if undeclared:
                    findings.append(
                        self._finding(
                            path,
                            closure.lineno,
                            closure.col,
                            f"undeclared attribute keys on span {name!r}: "
                            f"{', '.join(sorted(undeclared))} "
                            f"(declare them in {SCHEMA_MODULE})",
                        )
                    )
            if ended:
                missing = [k for k in shape.required if k not in seen]
                if missing:
                    findings.append(
                        self._finding(
                            path,
                            open_call.lineno,
                            open_call.col,
                            f"span {name!r} lifecycle missing required "
                            f"attribute keys: {', '.join(missing)}",
                        )
                    )
        return findings


class TraceNameLiterals(ProjectRule):
    """DGL010: consumers must reference schema constants, not literals."""

    code = "DGL010"
    name = "trace-name-literals"
    summary = (
        "trace-name string literals in consuming code (span.name "
        "comparisons, spans_named(...)) must be schema constants"
    )
    rationale = (
        "A consumer comparing against a hard-coded trace name keeps "
        "'working' after the producer renames the span — it just "
        "matches nothing and reports zeros. Referencing the constant "
        "makes the rename a single-point edit the analyzer can see."
    )

    def check(self, project: Project, schema: SchemaFacts) -> list[Finding]:
        constants_by_value = {v: k for k, v in schema.constants.items()}
        findings: list[Finding] = []
        for path, facts in project.facts_by_path.items():
            parts = path_parts(path)
            if "tests" in parts:
                continue
            for literal in facts.name_literals:
                if literal.value not in schema.names:
                    continue
                constant = constants_by_value.get(literal.value, "?")
                where = (
                    "spans_named(...)"
                    if literal.context == "spans_named"
                    else ".name comparison"
                )
                findings.append(
                    self._finding(
                        path,
                        literal.lineno,
                        literal.col,
                        f"hard-coded trace name {literal.value!r} in "
                        f"{where}; use {SCHEMA_MODULE}.{constant}",
                    )
                )
        return findings


class RngStreamCrossing(ProjectRule):
    """DGL011: one generator must not feed two named RNG streams."""

    code = "DGL011"
    name = "rng-stream-crossing"
    summary = (
        "a np.random.Generator must stay inside one named stream "
        "(walk/fault/churn/pool/engine/topology/data)"
    )
    rationale = (
        "Reproducibility is per-stream: each subsystem owns a seeded "
        "generator, so adding a fault draw cannot shift walk draws. A "
        "generator that reaches sinks of two different streams (however "
        "many helpers deep) interleaves their draw sequences and makes "
        "pinned results depend on unrelated subsystems."
    )

    def check(self, project: Project, schema: SchemaFacts) -> list[Finding]:
        findings: list[Finding] = []
        for fn in project.functions.values():
            if not _in_src_repro(fn.parts):
                continue
            for taint, flow in project.taint_flows(fn).items():
                seen: set[str] = set()
                via: dict[str, str] = {}
                for call, labels in flow:
                    if len(labels) >= 2:
                        continue  # the crossing lives inside the callee
                    fresh = labels - seen
                    if fresh and seen:
                        label = next(iter(fresh))
                        previous = sorted(seen)
                        findings.append(
                            self._finding(
                                fn.path,
                                call.lineno,
                                call.col,
                                f"generator {self._describe(taint)} feeds "
                                f"the {label!r} stream here but already "
                                f"feeds {', '.join(repr(p) for p in previous)} "
                                f"(via {via[previous[0]]}); "
                                "use one seeded stream per subsystem",
                            )
                        )
                    for label in labels:
                        via.setdefault(label, call.target.lstrip("@"))
                    seen |= labels
        return findings

    @staticmethod
    def _describe(taint: str) -> str:
        if taint.startswith("<fresh"):
            return "created inline"
        return repr(taint)


#: the simulation packages; simulated time is their only clock
_SIM_SCOPES = frozenset({"core", "sim", "sampling", "protocol"})


class WallClockReachability(ProjectRule):
    """DGL012: simulation code must not read or reach the wall clock."""

    code = "DGL012"
    name = "wall-clock-reachability"
    summary = (
        "no time.time/perf_counter/datetime.now in core/, sim/, sampling/, "
        "protocol/, written there or reached through helpers; simulated "
        "time comes from sim/clock.py"
    )
    rationale = (
        "The paper's cost model is denominated in messages and discrete "
        "occasions, never seconds. A wall-clock read inside the simulated "
        "protocol couples results to host load, which both breaks rerun "
        "determinism (DGL001's goal) and smuggles a second notion of time "
        "past SimulationClock, the single source of truth. A helper one "
        "package over reintroduces the bug invisibly; the call graph "
        "closes that loophole, so any chain from simulated time into a "
        "wall-clock reader is nondeterminism."
    )

    #: profiling is explicitly allowed to read the wall clock
    _EXEMPT_MODULE_PREFIXES = ("repro.obs.profile",)

    @staticmethod
    def _sim_scoped(parts: tuple[str, ...]) -> bool:
        return _in_src_repro(parts) and bool(_SIM_SCOPES.intersection(parts))

    def _exempt(self, fn: ProjectFunction) -> bool:
        if fn.module.startswith(self._EXEMPT_MODULE_PREFIXES):
            return True
        parts = fn.parts
        return "tests" in parts or "benchmarks" in parts

    def check(self, project: Project, schema: SchemaFacts) -> list[Finding]:
        findings: list[Finding] = []
        for path, facts in project.facts_by_path.items():
            if not self._sim_scoped(path_parts(path)):
                continue
            # every def's own reads, ``<module>`` (module level and class
            # bodies) and same-named shadowed defs included
            for fact in facts.functions:
                for line, col, clock in fact.wall_clock:
                    findings.append(
                        self._finding(
                            path,
                            line,
                            col,
                            f"wall-clock read {clock}() in simulation code; "
                            "use repro.sim.clock.SimulationClock (simulated "
                            "time)",
                        )
                    )
        for fn in project.functions.values():
            if not self._sim_scoped(fn.parts):
                continue
            chain = project.reach(
                fn.gid,
                hit=lambda callee: bool(callee.fact.wall_clock)
                and not self._exempt(callee),
                # sim-scoped intermediates get their own finding; exempt
                # modules absorb the chain
                skip=lambda callee: self._sim_scoped(callee.parts)
                or self._exempt(callee),
            )
            if chain is None:
                continue
            target = project.functions[chain[-1]]
            clock = target.fact.wall_clock[0][2]
            hops = " -> ".join(chain[1:])
            line, col = self._call_site(project, fn, chain[1])
            findings.append(
                self._finding(
                    fn.path,
                    line,
                    col,
                    f"simulation code reaches wall clock {clock}() "
                    f"via {hops}; thread simulated time instead",
                )
            )
        return findings

    @staticmethod
    def _call_site(
        project: Project, fn: ProjectFunction, first_hop: str
    ) -> tuple[int, int]:
        for callee_gid, call in project.adjacency.get(fn.gid, []):
            if callee_gid == first_hop:
                return call.lineno, call.col
        return fn.fact.lineno, 1


class HandlerRaiseReachability(ProjectRule):
    """DGL013: protocol handlers must not raise or reach a raising helper."""

    code = "DGL013"
    name = "handler-raise-reachability"
    summary = (
        "protocol/ delivery handlers (_handle*/_deliver*/_receive*/_on_*) "
        "and nested closures must not raise, nor reach helpers that "
        "raise; convert failures to recorded FaultEvents"
    )
    rationale = (
        "A handler runs as a scheduled delivery inside the event loop; an "
        "exception escaping it aborts the whole simulation on the first "
        "lost message or crashed receiver, which is exactly the behavior "
        "the failure model forbids. The degradation contract is: record a "
        "FaultEvent on the fault log, drop the message, and let the "
        "origin-side supervisor recover the walk. Validation raises belong "
        "at the caller-facing API (start_walk, run_walks, __init__), never "
        "inside a delivery. Nested defs are treated as delivery closures "
        "(that is what they are handed to SimulationEngine for). Moving "
        "the raise one helper down hides it from a per-file check while "
        "the scheduler still unwinds mid-tick; reachability over the call "
        "graph closes the indirection."
    )

    #: raises in helpers that are contracts, not runtime failures
    _EXEMPT_EXCEPTIONS = frozenset({"NotImplementedError", "AssertionError"})

    def _raises(self, fn: ProjectFunction) -> bool:
        if fn.qualname.rsplit(".", 1)[-1].startswith("__"):
            return False  # constructor/dunder validation is caller-facing API
        return any(
            name not in self._EXEMPT_EXCEPTIONS for *_, name in fn.fact.raises
        )

    @staticmethod
    def _in_scope(parts: tuple[str, ...]) -> bool:
        return _in_src_repro(parts) and "protocol" in parts

    def check(self, project: Project, schema: SchemaFacts) -> list[Finding]:
        findings: list[Finding] = []
        for path, facts in project.facts_by_path.items():
            if not self._in_scope(path_parts(path)):
                continue
            for fact in facts.functions:
                if not fact.is_handler:
                    continue
                for line, col, exc in fact.raises:
                    findings.append(
                        self._finding(
                            path,
                            line,
                            col,
                            f"raise {exc or '?'} inside delivery handler "
                            f"{fact.qualname}; an exception escaping a "
                            "scheduled delivery aborts the simulation -- "
                            "record a FaultEvent on the fault log and drop "
                            "the message instead",
                        )
                    )
        for fn in project.functions.values():
            if not fn.fact.is_handler or not self._in_scope(fn.parts):
                continue
            chain = project.reach(
                fn.gid,
                hit=lambda callee: self._raises(callee)
                and _in_src_repro(callee.parts),
                # a handler in the chain owns its own finding
                skip=lambda callee: callee.fact.is_handler,
            )
            if chain is None:
                continue
            target = project.functions[chain[-1]]
            line, _col, exc = next(
                raise_
                for raise_ in target.fact.raises
                if raise_[2] not in self._EXEMPT_EXCEPTIONS
            )
            hops = " -> ".join(chain[1:])
            site_line, site_col = WallClockReachability._call_site(
                project, fn, chain[1]
            )
            findings.append(
                self._finding(
                    fn.path,
                    site_line,
                    site_col,
                    f"handler {fn.qualname} reaches raise {exc or '?'} "
                    f"({target.path}:{line}) via {hops}; record the "
                    "failure on the walk state instead",
                )
            )
        return findings


class LayeringConformance(ProjectRule):
    """DGL014: imports must respect the declared layer direction."""

    code = "DGL014"
    name = "layering-conformance"
    summary = (
        "repro.protocol must not import repro.core, and repro.network "
        "must not import repro.protocol (stack direction is one-way)"
    )
    rationale = (
        "The protocol stack layers one way: the experiments drive "
        "protocol, protocol runs over network primitives. An import "
        "against that direction (protocol reaching into core, network "
        "reaching up into protocol) couples a lower layer to its callers, reintroduces "
        "the monolith the stack was split to remove, and blocks swapping "
        "a layer (e.g. an asyncio Transport) independently. TYPE_CHECKING "
        "guards don't exempt a crossing: type-only coupling still pins "
        "the layer boundary."
    )

    #: (importing-layer prefix, forbidden-target prefix)
    _FORBIDDEN: tuple[tuple[str, str], ...] = (
        ("repro.protocol", "repro.core"),
        ("repro.network", "repro.protocol"),
    )

    @staticmethod
    def _within(module: str, prefix: str) -> bool:
        return module == prefix or module.startswith(prefix + ".")

    def check(self, project: Project, schema: SchemaFacts) -> list[Finding]:
        findings: list[Finding] = []
        for path, facts in project.facts_by_path.items():
            if not _in_src_repro(path_parts(path)):
                continue
            module = module_name(path)
            layers = [
                (low, high)
                for low, high in self._FORBIDDEN
                if self._within(module, low)
            ]
            if not layers:
                continue
            for imp in facts.imports:
                for low, high in layers:
                    if not self._within(imp.module, high):
                        continue
                    guard = (
                        " (TYPE_CHECKING-guarded, still a layer crossing)"
                        if imp.type_checking
                        else ""
                    )
                    findings.append(
                        self._finding(
                            path,
                            imp.lineno,
                            imp.col,
                            f"layer violation: {low} module imports "
                            f"{imp.module!r}{guard}; the stack direction "
                            f"is {high} -> {low}, invert the dependency",
                        )
                    )
        return findings


class ContextPropagation(ProjectRule):
    """DGL015: message construction must thread TraceContext properly."""

    code = "DGL015"
    name = "context-propagation"
    summary = (
        "walk-message constructors must thread a forwarded TraceContext; "
        "minting is reserved to the lifecycle's sanctioned mint_context"
    )
    rationale = (
        "Causal assembly joins hop segments to walks by the context the "
        "messages carried. A call site that drops ctx breaks the chain "
        "silently (the trace just loses hops); one that hand-builds or "
        "re-mints context mid-flight attaches hops to the wrong tree. "
        "Both corrupt the critical-path report without failing anything "
        "at runtime, so the discipline is enforced statically: forward "
        "the incoming message's ctx unchanged, and mint only from the "
        "origin-side supervisor."
    )

    #: the protocol messages that carry per-walk causal context; their
    #: construction must thread a forwarded ctx (WeightAdvertisement is
    #: control traffic — not caused by any one walk — so ctx=None there
    #: is legitimate and it is deliberately absent from this set)
    _WALK_MESSAGE_CTORS = frozenset(
        {"WalkToken", "BounceBack", "SampleReturn"}
    )
    _MESSAGES_MODULE = "repro.protocol.messages"
    _MINT = "repro.protocol.messages.mint_context"
    #: modules allowed to mint fresh context (the stamping authority and
    #: the definition site itself)
    _MINT_AUTHORITY = ("repro.protocol.lifecycle", _MESSAGES_MODULE)

    def _ctor_name(self, target: str) -> str | None:
        """The walk-message class a call target names, if any."""
        final = target.rsplit(".", 1)[-1]
        if final not in self._WALK_MESSAGE_CTORS:
            return None
        if target.startswith("repro.") or target.startswith("@"):
            return final
        return None

    def check(self, project: Project, schema: SchemaFacts) -> list[Finding]:
        findings: list[Finding] = []
        for fn in project.functions.values():
            if not _in_src_repro(fn.parts):
                continue
            if fn.module == self._MESSAGES_MODULE:
                continue  # the definition site may do as it pleases
            for call in fn.fact.calls:
                findings.extend(self._check_call(fn, call))
        return findings

    def _check_call(self, fn: ProjectFunction, call) -> list[Finding]:
        target = call.target
        # fresh-context creation outside the sanctioned channel
        if target.rsplit(".", 1)[-1] == "TraceContext" and target.startswith(
            ("repro.", "@")
        ):
            return [
                self._finding(
                    fn.path,
                    call.lineno,
                    call.col,
                    "direct TraceContext(...) construction; fresh context "
                    f"comes only from {self._MINT} (and only the "
                    "lifecycle mints)",
                )
            ]
        if target == self._MINT and not fn.module.startswith(
            self._MINT_AUTHORITY
        ):
            return [
                self._finding(
                    fn.path,
                    call.lineno,
                    call.col,
                    f"mint_context() called from {fn.module}; only the "
                    "walk lifecycle is the stamping authority — forward "
                    "the incoming message's ctx instead",
                )
            ]
        ctor = self._ctor_name(target)
        if ctor is None:
            return []
        # a walk-message construction site: ctx must be forwarded
        if call.ctx_arg is None:
            return [
                self._finding(
                    fn.path,
                    call.lineno,
                    call.col,
                    f"{ctor}(...) constructed without ctx=; thread the "
                    "walk's TraceContext through every message it sends",
                )
            ]
        if call.ctx_arg == "dict":
            return [
                self._finding(
                    fn.path,
                    call.lineno,
                    call.col,
                    f"{ctor}(...) given a hand-built ctx dict; pass the "
                    "TraceContext forwarded from the record or message",
                )
            ]
        if call.ctx_arg == "none":
            return [
                self._finding(
                    fn.path,
                    call.lineno,
                    call.col,
                    f"{ctor}(...) explicitly drops context (ctx=None); "
                    "forward the incoming ctx so causal assembly can "
                    "join this hop to its walk",
                )
            ]
        if call.ctx_arg.startswith("call:"):
            built_by = call.ctx_arg[len("call:") :]
            if built_by == self._MINT and fn.module.startswith(
                self._MINT_AUTHORITY
            ):
                return []
            return [
                self._finding(
                    fn.path,
                    call.lineno,
                    call.col,
                    f"{ctor}(...) re-mints context at the construction "
                    f"site (ctx={built_by}(...)); forward the incoming "
                    "ctx unchanged",
                )
            ]
        if call.ctx_arg == "other":
            return [
                self._finding(
                    fn.path,
                    call.lineno,
                    call.col,
                    f"{ctor}(...) ctx= is not a plain forwarded "
                    "name/attribute; forward the incoming ctx unchanged",
                )
            ]
        return []  # "name": a forwarded context


ALL_PROJECT_RULES: tuple[ProjectRule, ...] = (
    TraceSchemaConformance(),
    TraceNameLiterals(),
    RngStreamCrossing(),
    WallClockReachability(),
    HandlerRaiseReachability(),
    LayeringConformance(),
    ContextPropagation(),
)

PROJECT_RULES_BY_CODE: dict[str, ProjectRule] = {
    rule.code: rule for rule in ALL_PROJECT_RULES
}
