"""Structured event trace with deterministic serialization."""

from __future__ import annotations

import json
from typing import Any, Iterator


class Trace:
    """Ordered list of event records, optionally mirrored to a JSONL file.

    Records are plain dicts with at least ``ev`` (event type) and ``at``
    (virtual time, ns). Serialization uses sorted keys so equal runs
    produce byte-identical files.
    """

    def __init__(self, path: str | None = None, enabled: bool = True):
        self.enabled = enabled
        self.records: list[dict[str, Any]] = []
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def record(self, ev: str, at: int, **fields: Any) -> None:
        if not self.enabled:
            return
        rec = {"ev": ev, "at": at}
        rec.update(fields)
        self.records.append(rec)
        if self._fh is not None:
            self._fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")

    def select(self, ev: str, **match: Any) -> Iterator[dict[str, Any]]:
        for rec in self.records:
            if rec["ev"] != ev:
                continue
            if all(rec.get(k) == v for k, v in match.items()):
                yield rec

    def count(self, ev: str, **match: Any) -> int:
        return sum(1 for _ in self.select(ev, **match))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
