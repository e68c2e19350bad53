"""Service SDK: lifecycle, declarations, publish, and delivery wrappers.

A service starts on a node with its advertise/request declarations; the
host announces them on the node's default scope (intra_node on the edge
layer, intra_layer deeper in), keeps a heartbeat refreshed, re-announces
periodically as flood repair, and wires request subscriptions through a
wrapper that records end-to-end latency and flags duplicate deliveries
(the bridging layer delivers at most once within a 1024-sequence window
per stream and scope; the detector remembers the same window). The
detector flags only the duplicates it can prove: an arrival older than
the window is delivered as fresh, where a bridge would drop it.

A service may advertise and request the same topic; it publishes as the
owner of its subscriptions, so the broker never hands it its own
messages, and only remote and third-party ones reach its callback.
"""

from __future__ import annotations

import logging
import math
from typing import Any, Callable, Iterable, Mapping

from .broker import BrokerEndpoint, SubscriberHandle
from .flow import CONTROL_TOPIC, DedupeWindow, FlowEngine
from .simnet import Network, ns_from_s
from .topology import (
    ADVERTISE,
    FLOW_WITHDRAW,
    REQUEST,
    RESERVED_PREFIX,
    FlowDeclaration,
    MessageEnvelope,
    NodeId,
    control_envelope,
    declaration_payload,
    duplicates,
)

log = logging.getLogger(__name__)

READY = "ready"
STOPPED = "stopped"
DEAD = "dead"


class ServiceError(Exception):
    pass


class DuplicateServiceError(ServiceError):
    pass


class FlowEngineUnavailable(ServiceError):
    pass


class ReservedTopicError(ServiceError):
    pass


class NotAdvertisedError(ServiceError):
    pass


class ServiceStopped(ServiceError):
    pass


class Advertise:
    """One advertised stream: topic plus declared rate/size hints."""

    __slots__ = ("topic", "rate_hz", "max_size")

    def __init__(self, topic: str, rate_hz: float = 0.0, max_size: int = 0) -> None:
        if not topic:
            raise ValueError("empty topic")
        if not (0 <= rate_hz < math.inf and 0 <= max_size < math.inf):
            raise ValueError("rate_hz/max_size must be finite and >= 0")
        self.topic = topic
        self.rate_hz = rate_hz
        self.max_size = max_size


class ServiceHandle:
    def __init__(self, name: str, node: NodeId, endpoint: BrokerEndpoint,
                 advertises: tuple[Advertise, ...], requests: tuple[str, ...]):
        self.name = name
        self.node = node
        self.owner = f"{name}@{node.name}"  # unique: node names have no "@"
        self.endpoint = endpoint  # of the scope it publishes and subscribes on
        self.advertised_topics = frozenset(a.topic for a in advertises)
        decls = ([FlowDeclaration(ADVERTISE, a.topic, node, a.rate_hz, a.max_size)
                  for a in advertises]
                 + [FlowDeclaration(REQUEST, topic, node) for topic in requests])
        # (announce topic, payload) per declaration, encoded once: announced
        # at start and every re-announce, withdrawn at stop
        self.declarations = tuple(
            (CONTROL_TOPIC[d.direction], declaration_payload(d, name)) for d in decls)
        self.state = READY
        self.published = 0
        self.received = 0
        self._delivered = DedupeWindow()  # delivered streams, for the duplicate detector
        self._subs: list[SubscriberHandle] = []

    @property
    def key(self) -> tuple[str, str]:
        return (self.node.name, self.name)

    def __repr__(self) -> str:
        return f"<service {self.name} on {self.node.key} ({self.state})>"


class ServiceHost:
    """Runs services against a network plus its per-layer flow engines."""

    def __init__(self, network: Network, engines: Mapping[str, FlowEngine]):
        """A service publishes with its node's counter from ``network.seqs``.
        Its layer's engine holds the liveness table it refreshes
        (``heartbeats``) and the ``flow`` config section its heartbeat and
        re-announce periods are read from when it starts."""
        self.topology = network.topology
        self.network = network
        self.clock = network.clock
        self.engines = dict(engines)
        self.seqs = network.seqs
        self.registry = network.metrics
        self.trace = network.trace
        self.services: dict[tuple[str, str], ServiceHandle] = {}
        self.violations: list[dict[str, Any]] = []

    # -- lifecycle -------------------------------------------------------

    def start_service(
        self,
        node: str,
        name: str,
        advertises: Iterable[Advertise] = (),
        requests: Iterable[str] = (),
        on_message: Callable[[MessageEnvelope], None] | Mapping[str, Callable] | None = None,
        external: bool = False,
        internal: bool = False,
    ) -> ServiceHandle:
        """Start service ``name`` on ``node``. Names and topics are checked
        again after parse for callers of this Python API, who pass no document."""
        node_id = self.topology.node(node)
        if not name:
            raise ServiceError("empty service name")
        if (node_id.name, name) in self.services:
            raise DuplicateServiceError(f"{name!r} already running on {node!r}")
        layer = node_id.layer
        engine = self.engines.get(layer)
        if engine is None or not engine.heartbeats.live(
                engine.service_name, engine.system_node.name):
            raise FlowEngineUnavailable(f"no live flow engine on layer {layer!r}")

        advs = tuple(advertises)
        reqs = tuple(requests)
        for kind, topics in (("advertise", [a.topic for a in advs]), ("request", reqs)):
            dupes = duplicates(topics)
            if dupes:
                raise ServiceError(f"duplicate {kind} for {dupes}")
        for topic in {a.topic for a in advs} | set(reqs):
            if topic.startswith(RESERVED_PREFIX) and not internal:
                raise ReservedTopicError(f"{topic!r} is in the reserved namespace")
        callbacks = self._normalize_callbacks(reqs, on_message)

        scope = (self.topology.external_scope(layer) if external
                 else self.topology.default_scope_for(node))
        endpoint = self.network.endpoint(scope)
        handle = ServiceHandle(name, node_id, endpoint, advs, reqs)
        self.services[handle.key] = handle

        cfg = engine.config()["flow"]
        hb_period = ns_from_s(cfg["heartbeat_s"])
        hb_ttl = ns_from_s(cfg["heartbeat_ttl_s"])
        reannounce = ns_from_s(cfg["reannounce_s"])

        engine.heartbeats.refresh(name, node_id.name, hb_ttl)
        self.clock.every(hb_period, self._heartbeat_tick, handle, hb_period, hb_ttl)

        for topic in reqs:
            handle._subs.append(endpoint.subscribe(
                topic, self._delivery_wrapper(handle, topic, callbacks.get(topic)),
                owner=handle.owner,
            ))

        self._announce_all(handle)
        if reannounce > 0:
            self.clock.every(reannounce, self._reannounce_tick, handle, reannounce)
        self.trace.record("service_started", self.clock.now, service=name, node=node_id.name,
                          layer=layer, scope=scope.key)
        log.info("service %s started on %s", name, node_id.key)
        return handle

    def stop_service(self, handle: ServiceHandle) -> None:
        """Withdraw, unsubscribe, stop heartbeats; idempotent."""
        if handle.state != READY:
            return
        handle.state = STOPPED
        for _, payload in handle.declarations:
            self._publish_control(handle, FLOW_WITHDRAW, payload)
        self._teardown(handle, remove_heartbeat=True)
        self.trace.record("service_stopped", self.clock.now,
                          service=handle.name, node=handle.node.name)

    def kill_service(self, handle: ServiceHandle) -> None:
        """Crash simulation: vanish without withdrawing; the heartbeat
        entry is left to expire so the watchdog does the cleanup."""
        if handle.state != READY:
            return
        handle.state = DEAD
        self._teardown(handle, remove_heartbeat=False)
        self.trace.record("service_killed", self.clock.now,
                          service=handle.name, node=handle.node.name)

    def _teardown(self, handle: ServiceHandle, remove_heartbeat: bool) -> None:
        for sub in handle._subs:
            handle.endpoint.unsubscribe(sub)
        handle._subs.clear()
        if remove_heartbeat:
            self.engines[handle.node.layer].heartbeats.remove(handle.name, handle.node.name)
        self.services.pop(handle.key, None)

    # -- data path ---------------------------------------------------------

    def publish(self, handle: ServiceHandle, topic: str, payload: bytes) -> None:
        if handle.state != READY:
            raise ServiceStopped(f"{handle.name} is {handle.state}")
        if topic not in handle.advertised_topics:
            raise NotAdvertisedError(f"{handle.name} does not advertise {topic!r}")
        seq = self.seqs[handle.node.name].next(topic)
        env = MessageEnvelope(
            topic=topic, payload=payload, origin_node=handle.node,
            sequence=seq, sent_at=self.clock.now,
        )
        handle.endpoint.publish(env, handle.owner)
        handle.published += 1

    def _delivery_wrapper(self, handle: ServiceHandle, topic: str,
                          user_cb: Callable[[MessageEnvelope], None] | None):
        observe = self.registry.gauge("mon.msg_latency_ms",
                                      {"topic": topic, "node": handle.node.name}).observe
        window = handle._delivered

        def deliver(env: MessageEnvelope) -> None:
            origin = env.origin_node.key
            # `record` marks a fresh sequence and refuses a duplicate and
            # one older than the window, which it leaves unmarked; only a
            # duplicate is `seen`: an older one is delivered as fresh
            if (not window.record(origin, env.topic, env.sequence)
                    and window.seen(origin, env.topic, env.sequence)):
                self.registry.inc("sdk.duplicate", {"topic": env.topic, "node": handle.node.name})
                fields = {"service": handle.name, "node": handle.node.name,
                          "topic": env.topic, "origin": origin, "seq": env.sequence}
                self.violations.append({"kind": "duplicate_delivery", **fields})
                self.trace.record("duplicate_delivery", self.clock.now, **fields)
                return
            observe((self.clock.now - env.sent_at) / 1e6)
            handle.received += 1
            if user_cb is not None:
                user_cb(env)
        return deliver

    # -- declarations ----------------------------------------------------------

    def _announce_all(self, handle: ServiceHandle) -> None:
        for control_topic, payload in handle.declarations:
            self._publish_control(handle, control_topic, payload)

    def _publish_control(self, handle: ServiceHandle, control_topic: str,
                         payload: bytes) -> None:
        handle.endpoint.publish(control_envelope(
            control_topic, payload, handle.node, self.seqs[handle.node.name], self.clock.now))

    # -- timers -------------------------------------------------------------
    # Recurring through `SimClock.every`: a tick returns its period while
    # the service is READY, and None, which ends the timer, once it is not.

    def _heartbeat_tick(self, handle: ServiceHandle, period: int, ttl: int) -> int | None:
        if handle.state != READY:
            return None
        self.engines[handle.node.layer].heartbeats.refresh(handle.name, handle.node.name, ttl)
        return period

    def _reannounce_tick(self, handle: ServiceHandle, period: int) -> int | None:
        if handle.state != READY:
            return None
        self._announce_all(handle)
        return period

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def _normalize_callbacks(requests: tuple[str, ...], on_message) -> dict[str, Callable]:
        if on_message is None:
            return {}
        if callable(on_message):
            return {t: on_message for t in requests}
        unknown = set(on_message) - set(requests)
        if unknown:
            raise ServiceError(f"callbacks for unrequested topics: {sorted(unknown)}")
        return dict(on_message)
