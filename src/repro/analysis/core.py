"""Data model of the static-analysis subsystem.

The analyzer is organised around three small value types:

* :class:`SourceModule` — one parsed file (path, text, AST) plus cached
  per-module facts (import aliases) shared by every rule.
* :class:`Finding` — one rule violation, anchored by a *fingerprint*
  that deliberately excludes the line number so committed baselines and
  registries survive unrelated edits to the same file.
* :class:`Rule` — the rule protocol: ``check(project)`` yields findings.

Everything here is stdlib-only; the analyzer must be importable and
runnable in environments without the numeric stack.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific site.

    ``symbol`` is the stable anchor of the violation (the offending call
    or field name); together with ``rule`` / ``path`` / ``message`` it
    forms the fingerprint used for baseline and suppression bookkeeping.
    ``line`` is display-only so that a baseline does not churn every time
    code above the finding moves.
    """

    rule: str
    path: str
    line: int
    message: str
    symbol: str = ""

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}::{self.path}::{self.symbol}::{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceModule:
    """One parsed source file plus derived per-module facts."""

    path: Path
    relpath: str
    text: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: alias -> canonical dotted module/object path, e.g. ``_time`` ->
    #: ``time``, ``np`` -> ``numpy``, ``perf_counter`` ->
    #: ``time.perf_counter`` (populated by :func:`collect_aliases`).
    aliases: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.text.splitlines()
        if not self.aliases:
            self.aliases = collect_aliases(self.tree)

    def find_class(self, name: str) -> Optional[ast.ClassDef]:
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == name:
                return node
        return None


class Project:
    """The analyzed module set plus the active configuration."""

    def __init__(self, modules: Sequence[SourceModule], config) -> None:
        self.modules = list(modules)
        self.config = config

    def find_module(self, suffix: str) -> Optional[SourceModule]:
        """The module whose relpath ends with ``suffix`` (posix match)."""
        for module in self.modules:
            if module.relpath.endswith(suffix):
                return module
        return None

    def __iter__(self) -> Iterator[SourceModule]:
        return iter(self.modules)


class Rule:
    """Protocol every analysis rule implements."""

    rule_id: str = ""
    description: str = ""

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# AST helpers shared by the rules.
# --------------------------------------------------------------------- #


def collect_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the canonical dotted path they are bound to.

    Covers ``import x``, ``import x.y as z`` and ``from x import y as z``
    at any nesting depth (function-local imports participate too — the
    determinism rule cares about *what* is called, not where the import
    statement sits).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def resolve_dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted path of a ``Name``/``Attribute`` chain, if resolvable.

    ``_time.perf_counter`` with ``_time -> time`` resolves to
    ``time.perf_counter``; ``np.random.rand`` with ``np -> numpy`` to
    ``numpy.random.rand``; a bare ``perf_counter`` imported from ``time``
    to ``time.perf_counter``.  Chains rooted in anything other than an
    imported name (``self.x``, call results) resolve to ``None``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


def dataclass_fields(cls: ast.ClassDef) -> List[Tuple[str, str, int]]:
    """``(name, annotation_source, line)`` of each annotated class field.

    ``ClassVar`` annotations are skipped — they are class state, not
    instance payload.
    """
    fields: List[Tuple[str, str, int]] = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = ast.unparse(node.annotation)
            if "ClassVar" in annotation:
                continue
            fields.append((node.target.id, annotation, node.lineno))
    return fields
