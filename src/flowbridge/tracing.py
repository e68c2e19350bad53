"""Structured event trace: a write-only JSONL stream, and its reader."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterator


class Trace:
    """Write-only sink of trace events: dicts with at least ``ev`` (event
    type) and ``at`` (virtual time, ns), each written to the open file as
    one sorted-key, compact JSON line, so equal runs produce byte-identical
    files. Nothing is kept in memory; with no file open, a no-op.

    A line is the bytes ``json.dumps(rec, sort_keys=True, separators=(",",
    ":"))`` gives, assembled without it: each set of field names is sorted
    and its keys encoded once, and ``str`` and ``int`` values are encoded
    the way ``json`` encodes them. Other values go through ``json.dumps``.
    """

    def __init__(self, path: str | Path | None = None):
        self._fh = None
        # field names in call order -> (encoded key with its leading
        # "{" or ",", field name) in sorted order
        self._shapes: dict[tuple[str, ...], list[tuple[str, str]]] = {}
        self.open(path)

    def open(self, path: str | Path | None) -> None:
        if path:
            self._fh = open(path, "w", encoding="utf-8")

    def record(self, ev: str, at: int, **fields: Any) -> None:
        if self._fh is None:
            return
        names = tuple(fields)
        shape = self._shapes.get(names)
        if shape is None:
            keys = sorted(("ev", "at", *names))
            shape = self._shapes[names] = [
                (("," if i else "{") + encode_basestring_ascii(k) + ":", k)
                for i, k in enumerate(keys)]
        fields["ev"] = ev
        fields["at"] = at
        parts = []
        for key, name in shape:
            value = fields[name]
            kind = type(value)
            if kind is str:
                parts.append(key + encode_basestring_ascii(value))
            elif kind is int:
                parts.append(key + int.__repr__(value))
            else:
                parts.append(key + json.dumps(value, sort_keys=True, separators=(",", ":")))
        parts.append("}\n")
        self._fh.write("".join(parts))

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
