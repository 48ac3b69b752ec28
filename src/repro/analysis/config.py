"""Configuration of an analysis run.

:class:`AnalysisConfig` makes every project-specific fact injectable —
which packages are deterministic, which call sites are allowlisted, which
config fields are cache-exempt — so the same rule implementations run
against the live tree (via :func:`repro.analysis.registry.default_config`)
and against minimal test fixtures with their own miniature contracts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class AllowEntry:
    """One allowlisted (file, symbol) pair in a rule registry.

    ``path_suffix`` matches the end of a module's relpath; ``symbol`` is
    the canonical dotted call (``time.perf_counter``, ``os.environ``).
    Every entry must carry a written ``reason`` — the registry is the
    central record of *why* each exception is sound.
    """

    path_suffix: str
    symbol: str
    reason: str

    def matches(self, relpath: str, symbol: str) -> bool:
        return symbol == self.symbol and relpath.endswith(self.path_suffix)


@dataclass(frozen=True)
class CacheKeyContract:
    """Rule 'cache-key': every config field is key-relevant or exempt."""

    config_module: str  # relpath suffix holding the config dataclass
    config_class: str
    key_module: str  # relpath suffix holding the context-key construction
    key_var: str  # the variable the key tuple is assigned to
    #: field -> reason it may legitimately stay out of the context key.
    exempt: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a run needs besides the file list."""

    #: fnmatch patterns (posix relpaths) selecting the modules on which
    #: the determinism and ordered-iteration rules are enforced.
    deterministic_globs: Tuple[str, ...] = ()
    determinism_allowlist: Tuple[AllowEntry, ...] = ()
    cache_key: Optional[CacheKeyContract] = None
    #: Report registry entries that no longer match anything.  Disabled
    #: automatically for partial-tree runs (``--paths``), where absence
    #: of a match proves nothing.
    check_stale_registry: bool = True

    def is_deterministic_module(self, relpath: str) -> bool:
        return any(fnmatch(relpath, pattern) for pattern in self.deterministic_globs)
