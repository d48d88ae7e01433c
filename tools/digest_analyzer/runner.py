"""The analysis engine: discovery, both passes, policy, reporting inputs.

Pipeline per run:

1. discover ``*.py`` files (or take an explicit list);
2. pass 1 per file — content-hash cache lookup, else parse once into
   :class:`FileFacts` + raw per-file findings (the ``rules_local``
   rules, DGL000 on unparseable files);
3. pass 2 — build the :class:`Project` view, statically parse the trace
   schema, run the cross-module rules (DGL009-DGL015);
4. policy — ``# noqa`` / ``# dgl: disable`` pragmas (with unused-
   suppression findings), then the committed baseline;
5. hand the surviving findings to the caller (CLI, tests, CI).

:func:`analyze_sources` is the pure core (strings in, findings out) the
fixture tests drive; :func:`analyze_paths` wraps it with filesystem
discovery, the cache, and the baseline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tools.digest_analyzer.baseline import (
    DEFAULT_BASELINE_PATH,
    apply_baseline,
    load_baseline,
)
from tools.digest_analyzer.cache import (
    DEFAULT_CACHE_PATH,
    ResultCache,
    content_key,
)
from tools.digest_analyzer.extract import (
    ANALYZER_VERSION,
    FileFacts,
    extract_file_facts,
)
from tools.digest_analyzer.findings import Finding, _normalize_path
from tools.digest_analyzer.pragmas import apply_pragmas, parse_pragmas
from tools.digest_analyzer.project import Project
from tools.digest_analyzer.rules_project import ALL_PROJECT_RULES
from tools.digest_analyzer.schema_facts import (
    SCHEMA_SOURCE,
    SchemaFacts,
    SchemaParseError,
    load_schema_facts,
    parse_schema_source,
)

#: the parse-failure pseudo-rule; always reported, never selectable-off
PARSE_ERROR_CODE = "DGL000"

#: directories never descended into during discovery
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})

#: default analysis roots, repo-relative
DEFAULT_ROOTS = ("src", "tools", "tests", "benchmarks", "examples")


@dataclass
class AnalysisResult:
    """Everything a reporter needs about one run."""

    findings: list[Finding]
    #: findings absorbed by the committed baseline
    baselined: int = 0
    #: baseline entries that matched nothing (debt already fixed)
    stale_baseline: Counter = field(default_factory=Counter)
    file_count: int = 0
    parse_failures: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: schema registry problems (DGL009/DGL010 were skipped if set)
    schema_error: str | None = None


def _pass1(
    sources: dict[str, str],
    cache: ResultCache | None,
) -> tuple[dict[str, FileFacts], list[Finding]]:
    facts_by_path: dict[str, FileFacts] = {}
    raw: list[Finding] = []
    for path, source in sources.items():
        cached = None
        key = ""
        if cache is not None:
            key = content_key(source.encode("utf-8", errors="replace"))
            key = f"{key}:{ANALYZER_VERSION}"
            cached = cache.lookup(path, key)
        if cached is None:
            facts, findings = extract_file_facts(source, path)
            if cache is not None:
                cache.store(path, key, facts, findings)
        else:
            facts, findings = cached
        facts_by_path[path] = facts
        raw.extend(findings)
    return facts_by_path, raw


def _resolve_schema(
    sources: dict[str, str], repo_root: Path | None
) -> tuple[SchemaFacts | None, str | None]:
    schema_rel = str(SCHEMA_SOURCE)
    for path, source in sources.items():
        if _normalize_path(path) == schema_rel.replace("\\", "/"):
            try:
                return parse_schema_source(source, path), None
            except SchemaParseError as exc:
                return None, str(exc)
    if repo_root is not None:
        try:
            return load_schema_facts(repo_root), None
        except SchemaParseError as exc:
            return None, str(exc)
    return None, "trace schema module not found in the analyzed set"


def analyze_sources(
    sources: dict[str, str],
    select: frozenset[str] | None = None,
    repo_root: Path | None = None,
    cache: ResultCache | None = None,
) -> AnalysisResult:
    """Run both passes over in-memory sources; apply pragma policy.

    ``select`` limits reporting to the given codes (DGL000 is always
    kept — a file the analyzer cannot read is never a clean file).
    Unused-suppression detection is skipped under ``select``: a pragma
    can only be judged unused when every rule it names actually ran.
    """
    facts_by_path, raw = _pass1(sources, cache)
    parse_failures = sum(1 for f in facts_by_path.values() if f.parse_error)

    project = Project(facts_by_path)
    schema, schema_error = _resolve_schema(sources, repo_root)
    findings = list(raw)
    for rule in ALL_PROJECT_RULES:
        if select is not None and rule.code not in select:
            continue
        if schema is None and rule.code in ("DGL009", "DGL010"):
            continue
        findings.extend(rule.check(project, schema or SchemaFacts()))

    if select is not None:
        findings = [
            f
            for f in findings
            if f.code in select or f.code == PARSE_ERROR_CODE
        ]

    pragmas_by_path = {
        path: parse_pragmas(source) for path, source in sources.items()
    }
    findings = apply_pragmas(
        findings, pragmas_by_path, report_unused=select is None
    )
    return AnalysisResult(
        findings=sorted(findings),
        file_count=len(sources),
        parse_failures=parse_failures,
        schema_error=schema_error,
    )


def discover_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into the ordered list of ``*.py`` files."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    seen.setdefault(candidate, None)
        elif path.suffix == ".py" or path.is_file():
            seen.setdefault(path, None)
        elif not path.exists():
            raise FileNotFoundError(str(path))
    return list(seen)


def _relative(path: Path, repo_root: Path) -> str:
    try:
        rel = path.resolve().relative_to(repo_root.resolve())
    except ValueError:
        rel = path
    return _normalize_path(str(rel))


def analyze_paths(
    paths: list[Path],
    repo_root: Path,
    select: frozenset[str] | None = None,
    cache_path: Path | None = None,
    baseline_path: Path | None = None,
) -> AnalysisResult:
    """Filesystem entry point: discovery + cache + baseline around
    :func:`analyze_sources`.

    ``cache_path`` / ``baseline_path`` of ``None`` disable the cache /
    baseline; pass the DEFAULT_* constants for the standard locations.
    Unreadable files become DGL000 findings, not exceptions.
    """
    files = discover_files(paths)
    sources: dict[str, str] = {}
    unreadable: list[Finding] = []
    for file_path in files:
        rel = _relative(file_path, repo_root)
        try:
            sources[rel] = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            unreadable.append(
                Finding(
                    path=rel,
                    line=1,
                    col=1,
                    code=PARSE_ERROR_CODE,
                    message=f"cannot read file: {exc}",
                )
            )

    cache = None
    if cache_path is not None:
        cache = ResultCache.load(cache_path)

    result = analyze_sources(
        sources, select=select, repo_root=repo_root, cache=cache
    )
    result.findings = sorted(result.findings + unreadable)
    result.parse_failures += len(unreadable)
    result.file_count += len(unreadable)

    if cache is not None and cache_path is not None:
        result.cache_hits = cache.hits
        result.cache_misses = cache.misses
        cache.prune(set(sources))
        cache.save(cache_path)

    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
        if baseline:
            before = len(result.findings)
            result.findings, result.stale_baseline = apply_baseline(
                result.findings, baseline
            )
            result.baselined = before - len(result.findings)
    return result
