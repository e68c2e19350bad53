"""Reading a world's written trace back in tests."""

from __future__ import annotations

from flowbridge.tracing import events


def records(path, ev: str, **match) -> list[dict]:
    """The ``ev`` records of a closed trace file whose fields equal ``match``."""
    return [rec for rec in events(path, ev)
            if all(rec.get(k) == v for k, v in match.items())]
