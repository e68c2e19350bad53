"""Scope-local pub/sub endpoint.

One BrokerEndpoint exists per broker scope. Publishing targets the
subscribers of that scope only; reaching another scope always goes
through a bridge. The endpoint holds subscriptions; delivery is the
dispatch function it is built with, which for every endpoint of a
simulated network routes through that network's links.

A publish may name its sender, the owner of the publishing side's
subscriptions; the broker then leaves those subscriptions out, on the
publishing scope and on every scope the publish reaches, so a sender
never hears itself (ROS 2's ``ignore_local_publications``, MQTT v5's
No Local). Owners are unique: an SDK service's ends in ``@node``, and a
system one (flow engine, config service) has no ``@``.

Subscribers are matched when they subscribe, not when a message is
published, as DDS matches readers to writers at discovery: ``routes``
maps each topic to its active handles, in subscription order, and the
set of their owners. ``subscribe`` and ``unsubscribe`` replace a topic's
route rather than change it, so a delivery already in flight keeps the
handles it was given; it still checks ``handle.active`` per copy.
"""

from __future__ import annotations

from typing import Callable

from .topology import BrokerScope, MessageEnvelope

SUB_USER = "user"
SUB_BRIDGE = "bridge"

DispatchFn = Callable[["BrokerEndpoint", MessageEnvelope, "str | None"], int]


class BrokerError(Exception):
    pass


class SubscriberHandle:
    """One subscription; deactivated exactly once by unsubscribe."""

    __slots__ = ("scope", "topic", "callback", "kind", "owner", "active")

    def __init__(
        self,
        scope: BrokerScope,
        topic: str,
        callback: Callable[[MessageEnvelope], None],
        kind: str = SUB_USER,
        owner: str | None = None,
    ):
        self.scope = scope
        self.topic = topic
        self.callback = callback
        self.kind = kind
        self.owner = owner
        self.active = True

    def __repr__(self) -> str:
        state = "active" if self.active else "inactive"
        return f"<sub {self.topic!r} on {self.scope.key} ({self.kind}, {state})>"


# a topic's active handles in subscription order, and their owners
Route = tuple[tuple[SubscriberHandle, ...], frozenset[str]]


def _route(handles: tuple[SubscriberHandle, ...]) -> Route:
    return handles, frozenset(h.owner for h in handles if h.owner is not None)


class BrokerEndpoint:
    def __init__(self, scope: BrokerScope, dispatch: DispatchFn):
        self.scope = scope
        self._dispatch = dispatch
        self.routes: dict[str, Route] = {}
        # (topic, repr of the exception) -> count: the exception itself
        # would pin the failing callback's frame, and its envelope, until
        # the run ends, and one entry per failed copy would grow with it
        self.errors: dict[tuple[str, str], int] = {}

    def subscribe(
        self,
        topic: str,
        callback: Callable[[MessageEnvelope], None],
        kind: str = SUB_USER,
        owner: str | None = None,
    ) -> SubscriberHandle:
        if not topic:
            raise BrokerError("empty topic")
        handle = SubscriberHandle(self.scope, topic, callback, kind, owner)
        self.routes[topic] = _route(self.routes.get(topic, ((),))[0] + (handle,))
        return handle

    def unsubscribe(self, handle: SubscriberHandle) -> bool:
        """Idempotent; returns True only on the call that removed it."""
        if handle.scope.key != self.scope.key:
            raise BrokerError(f"{handle!r} is not a subscription of {self.scope.key}")
        if not handle.active:
            return False
        rest = tuple(h for h in self.routes[handle.topic][0] if h is not handle)
        handle.active = False
        if rest:
            self.routes[handle.topic] = _route(rest)
        else:
            del self.routes[handle.topic]
        return True

    def publish(self, env: MessageEnvelope, sender: str | None = None) -> int:
        """Hand the envelope to the transport; returns subscribers targeted.
        ``sender`` owns subscriptions that must not receive it."""
        return self._dispatch(self, env, sender)

    def snapshot(self, env: MessageEnvelope,
                 sender: str | None = None) -> list[SubscriberHandle]:
        """The route of env.topic, less the handles sender owns."""
        return [h for h in self.routes.get(env.topic, ((),))[0]
                if sender is None or h.owner != sender]

    def invoke(self, handle: SubscriberHandle, env: MessageEnvelope) -> None:
        """Run one callback, containing its exceptions: each is counted in
        ``errors`` by (topic, error)."""
        try:
            handle.callback(env)
        except Exception as exc:  # noqa: BLE001 - one bad callback must not block others
            key = (env.topic, repr(exc))
            self.errors[key] = self.errors.get(key, 0) + 1
