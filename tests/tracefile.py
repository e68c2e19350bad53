"""Reading a world's written trace back in tests. Nothing in the package
reads a trace; these readers check what it wrote."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator


def events(path: str | Path, *names: str) -> Iterator[dict[str, Any]]:
    """The events of the named types in a written trace, in order. Only
    lines holding ``"ev":"<name>"`` are decoded. A field whose value is an
    object with an ``ev`` key holds that text too, so a decoded line is
    kept only when its own ``ev`` is one of the names."""
    marks = [f'"ev":{json.dumps(name)}' for name in names]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            for mark in marks:
                if mark in line:
                    rec = json.loads(line)
                    if rec["ev"] in names:
                        yield rec
                    break


def records(path, ev: str, **match) -> list[dict]:
    """The ``ev`` records of a closed trace file whose fields equal ``match``."""
    return [rec for rec in events(path, ev)
            if all(rec.get(k) == v for k, v in match.items())]
