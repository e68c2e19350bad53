"""Structured event trace: a write-only JSONL stream, and its reader."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator


class Trace:
    """Write-only sink of trace events: dicts with at least ``ev`` (event
    type) and ``at`` (virtual time, ns), each written to the open file as
    one sorted-key, compact JSON line, so equal runs produce byte-identical
    files. Nothing is kept in memory; with no file open, a no-op."""

    def __init__(self, path: str | Path | None = None):
        self._fh = None
        self.open(path)

    def open(self, path: str | Path | None) -> None:
        if path:
            self._fh = open(path, "w", encoding="utf-8")

    def record(self, ev: str, at: int, **fields: Any) -> None:
        if self._fh is None:
            return
        rec = {"ev": ev, "at": at}
        rec.update(fields)
        self._fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def events(path: str | Path, *names: str) -> Iterator[dict[str, Any]]:
    """The events of the named types in a written trace, in order. Only
    lines holding ``"ev":"<name>"`` are decoded; in the writer's format
    only an ``ev`` field can hold that text (quotes in values are escaped)."""
    marks = [f'"ev":{json.dumps(name)}' for name in names]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            for mark in marks:
                if mark in line:
                    yield json.loads(line)
                    break
