"""Finding record shared by every rule, the engine, and the reporters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Sort order (path, line, col, code) matches the report order, so a list
    of findings can be ``sorted()`` directly.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """ruff/flake8-style ``path:line:col: CODE message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used by the committed baseline: line numbers excluded
        so grandfathered findings survive unrelated edits above them."""
        return (_normalize_path(self.path), self.code, self.message)


def _normalize_path(path: str) -> str:
    """Forward slashes, no leading ``./`` — one spelling per file."""
    normalized = path.replace("\\", "/")
    while normalized.startswith("./"):
        normalized = normalized[2:]
    return normalized
