"""Write-ahead event journal: the platform's per-epoch durability log.

One journal entry is appended after each completed platform epoch.  An
entry is the JSON-serialisable dict
:meth:`repro.simulation.record.EpochRecord.to_entry` returns; the
record's docstring is the description of the format.  This module only
stores entries.

Torn tails: a crash can cut the last line of a file journal mid-write.
``entries()`` therefore parses lines up to the first undecodable or
unterminated one and silently discards the rest — the half-written epoch
is simply redone live after replay, which the platform's resume contract
already guarantees to be equivalent.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, TextIO


class InMemoryJournal:
    """Journal backed by a Python list (tests, single-process recovery)."""

    def __init__(self) -> None:
        self._entries: List[Dict] = []

    def append(self, entry: Dict) -> None:
        self._entries.append(entry)

    def entries(self) -> Iterator[Dict]:
        return iter(list(self._entries))

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class FileJournal:
    """Append-only JSON-lines journal on disk.

    ``fsync=True`` makes every append durable against power loss at the
    cost of one fsync per epoch; the default flushes to the OS only, which
    survives process kills (the failure mode the tests exercise) without
    the fsync tax.
    """

    def __init__(self, path, fsync: bool = False) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        self._file: Optional[TextIO] = None

    def _handle(self):
        if self._file is None or self._file.closed:
            self._file = open(self.path, "a", encoding="utf-8")
        return self._file

    def append(self, entry: Dict) -> None:
        handle = self._handle()
        handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def entries(self) -> Iterator[Dict]:
        if not os.path.exists(self.path):
            return iter(())
        parsed: List[Dict] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.endswith("\n"):
                    break  # torn tail: the crash cut this write short
                try:
                    parsed.append(json.loads(line))
                except ValueError:
                    break  # corrupted tail: everything after is suspect
        return iter(parsed)

    def clear(self) -> None:
        self.close()
        with open(self.path, "w", encoding="utf-8"):
            pass

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.close()

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
