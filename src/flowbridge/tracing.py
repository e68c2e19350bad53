"""Structured event trace: a write-only JSONL stream. Nothing in the
package reads a trace back; a run's reports come from its own state."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

# one crossing's fixed parts of its xlink lines: (frm, to, the line's text
# between the "at" value and the origin, its text between the "seq" value
# and the topic)
XlinkParts = tuple[str, str, str, str]


class Trace:
    """Write-only sink of trace events: dicts with at least ``ev`` (event
    type) and ``at`` (virtual time, ns), each written to the open file as
    one sorted-key, compact JSON line, so equal runs produce byte-identical
    files. Nothing is kept in memory; with no file open, a no-op.

    `record` writes ``json.dumps(rec, sort_keys=True, separators=(",",
    ":"))``. Only the ``xlink`` lines of layer crossings, most of a trace,
    are assembled by hand: `xlink` fills a crossing's pre-encoded
    `xlink_parts` in with the per-message fields, and writes the bytes
    `record` would.
    """

    def __init__(self, path: str | Path | None = None):
        self._fh = None
        self.open(path)

    def open(self, path: str | Path | None) -> None:
        if path:
            self._fh = open(path, "w", encoding="utf-8")

    def record(self, ev: str, at: int, **fields: Any) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps({"ev": ev, "at": at, **fields}, sort_keys=True,
                                      separators=(",", ":")) + "\n")

    def xlink(self, parts: XlinkParts, at: int, origin: str, seq: int, topic: str) -> None:
        """Write the line ``record("xlink", at, frm=frm, to=to, topic=topic,
        origin=origin, seq=seq)`` writes, for the crossing whose
        `xlink_parts` are ``parts``. Only the four arguments are encoded
        per call; a value of theirs that is not exactly ``str`` or ``int``
        goes through `record`."""
        if self._fh is None:
            return
        if type(at) is int and type(seq) is int and type(origin) is str and type(topic) is str:
            self._fh.write(f'{{"at":{at}{parts[2]}{encode_basestring_ascii(origin)}'
                           f',"seq":{seq}{parts[3]}{encode_basestring_ascii(topic)}}}\n')
        else:
            self.record("xlink", at, frm=parts[0], to=parts[1], topic=topic, origin=origin,
                        seq=seq)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def xlink_parts(frm: str, to: str) -> XlinkParts:
    """The fixed parts of the ``xlink`` lines of the crossing frm -> to,
    encoded once for every `Trace.xlink` call."""
    return (frm, to, f',"ev":"xlink","frm":{json.dumps(frm)},"origin":',
            f',"to":{json.dumps(to)},"topic":')

