"""Scope-local pub/sub endpoint.

One BrokerEndpoint exists per broker scope. Publishing targets the
subscribers of that scope only; reaching another scope always goes
through a bridge. Delivery transport is pluggable: standalone endpoints
dispatch synchronously in-process, endpoints owned by a simulated
network dispatch through its links.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from .topology import BrokerScope, MessageEnvelope

SUB_USER = "user"
SUB_BRIDGE = "bridge"
SUB_CONTROL = "control"

DispatchFn = Callable[["BrokerEndpoint", MessageEnvelope], int]
FilterFn = Callable[[MessageEnvelope], bool]


class BrokerError(Exception):
    pass


class SubscriberHandle:
    """One subscription; deactivated exactly once by unsubscribe."""

    __slots__ = ("id", "scope", "topic", "callback", "kind", "filter", "owner", "active")
    _ids = itertools.count(1)

    def __init__(
        self,
        scope: BrokerScope,
        topic: str,
        callback: Callable[[MessageEnvelope], None],
        kind: str = SUB_USER,
        filter: Optional[FilterFn] = None,
        owner: str | None = None,
    ):
        self.id = next(SubscriberHandle._ids)
        self.scope = scope
        self.topic = topic
        self.callback = callback
        self.kind = kind
        self.filter = filter
        self.owner = owner
        self.active = True

    def __repr__(self) -> str:
        state = "active" if self.active else "inactive"
        return f"<sub {self.id} {self.topic!r} on {self.scope.key} ({self.kind}, {state})>"


class BrokerEndpoint:
    def __init__(self, scope: BrokerScope, dispatch: DispatchFn | None = None):
        self.scope = scope
        self._dispatch = dispatch or _sync_dispatch
        self._subs: dict[str, list[SubscriberHandle]] = {}
        self.errors: list[tuple[str, BaseException]] = []

    def subscribe(
        self,
        topic: str,
        callback: Callable[[MessageEnvelope], None],
        kind: str = SUB_USER,
        filter: Optional[FilterFn] = None,
        owner: str | None = None,
    ) -> SubscriberHandle:
        if not topic:
            raise BrokerError("empty topic")
        handle = SubscriberHandle(self.scope, topic, callback, kind, filter, owner)
        self._subs.setdefault(topic, []).append(handle)
        return handle

    def unsubscribe(self, handle: SubscriberHandle) -> bool:
        """Idempotent; returns True only on the call that removed it."""
        if not handle.active:
            return False
        handle.active = False
        subs = self._subs.get(handle.topic)
        if subs is not None:
            try:
                subs.remove(handle)
            except ValueError:
                pass
            if not subs:
                del self._subs[handle.topic]
        return True

    def publish(self, env: MessageEnvelope) -> int:
        """Hand the envelope to the transport; returns subscribers targeted."""
        return self._dispatch(self, env)

    def snapshot(self, env: MessageEnvelope) -> list[SubscriberHandle]:
        """Active subscribers of env.topic whose filters accept env."""
        return [h for h in self._subs.get(env.topic, ())
                if h.active and (h.filter is None or h.filter(env))]

    def invoke(self, handle: SubscriberHandle, env: MessageEnvelope) -> bool:
        """Run one callback, containing its exceptions; True if it ran clean."""
        try:
            handle.callback(env)
            return True
        except Exception as exc:  # noqa: BLE001 - one bad callback must not block others
            self.errors.append((env.topic, exc))
            return False


def _sync_dispatch(endpoint: BrokerEndpoint, env: MessageEnvelope) -> int:
    """Default transport: deliver immediately on the publisher's stack."""
    handles = endpoint.snapshot(env)
    for h in handles:
        endpoint.invoke(h, env)
    return len(handles)
