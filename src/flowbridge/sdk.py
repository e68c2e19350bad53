"""Service SDK: lifecycle, declarations, publish, and delivery wrappers.

A service starts on a node with its advertise/request declarations; the
host announces them on the node's default scope (intra_node on the edge
layer, intra_layer deeper in), keeps a heartbeat refreshed, re-announces
periodically as flood repair, and wires request subscriptions through a
wrapper that records end-to-end latency and flags duplicate deliveries
(the bridging layer delivers at most once within a 1024-sequence window
per stream and scope; the detector remembers the same window).

A service may advertise and request the same topic; its own publishes
are then suppressed at delivery by origin and a window of its sequences,
so only remote and third-party messages reach its callback.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from . import monitor
from .broker import SubscriberHandle
from .flow import CONTROL_TOPIC, DedupeWindow, FlowEngine
from .monitor import HeartbeatRegistry
from .simnet import Network, ns_from_s
from .topology import (
    ADVERTISE,
    FLOW_WITHDRAW,
    REQUEST,
    RESERVED_PREFIX,
    BrokerScope,
    FlowDeclaration,
    MessageEnvelope,
    NodeId,
    SequenceCounter,
    control_envelope,
    declaration_body,
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


@dataclass(frozen=True)
class Advertise:
    """One advertised stream: topic plus declared rate/size hints."""

    topic: str
    rate_hz: float = 0.0
    max_size: int = 0

    def __post_init__(self) -> None:
        if not self.topic:
            raise ValueError("empty topic")
        if self.rate_hz < 0 or self.max_size < 0:
            raise ValueError("rate_hz/max_size must be >= 0")


class ServiceHandle:
    def __init__(self, name: str, node: NodeId, scope: BrokerScope,
                 advertises: tuple[Advertise, ...], requests: tuple[str, ...]):
        self.name = name
        self.node = node
        self.scope = scope
        self.advertises = advertises
        self.requests = requests
        self.state = READY
        self.published = 0
        self.received = 0
        self.received_by_topic: dict[str, int] = {}
        self._published = DedupeWindow()  # own publishes, for the self-filter
        self._delivered = DedupeWindow()  # delivered streams, for the duplicate detector
        self._subs: list[SubscriberHandle] = []

    @property
    def key(self) -> tuple[str, str]:
        return (self.node.name, self.name)

    @property
    def advertised_topics(self) -> set[str]:
        return {a.topic for a in self.advertises}

    def __repr__(self) -> str:
        return f"<service {self.name} on {self.node.key} ({self.state})>"


class ServiceHost:
    """Runs services against a network plus its per-layer flow engines."""

    def __init__(
        self,
        network: Network,
        engines: Mapping[str, FlowEngine],
        heartbeats: Mapping[str, HeartbeatRegistry],
        seqs: Mapping[str, SequenceCounter],
        flow_config: Callable[[str], dict],
    ):
        """``flow_config(layer)`` returns that layer's ``flow`` config section."""
        self.topology = network.topology
        self.network = network
        self.clock = network.clock
        self.engines = dict(engines)
        self.heartbeats = dict(heartbeats)
        self.seqs = dict(seqs)
        self._flow_config = flow_config
        self.registry = network.metrics
        self.trace = network.trace
        self.services: dict[tuple[str, str], ServiceHandle] = {}
        self.violations: list[dict[str, Any]] = []
        # cleared when a run winds down, so recurring service timers stop
        # rescheduling and the event queue can drain to empty
        self.active = True

    # -- lifecycle -------------------------------------------------------

    def start_service(
        self,
        node: str,
        name: str,
        advertises: Iterable[Advertise | tuple] = (),
        requests: Iterable[str] = (),
        on_message: Callable[[MessageEnvelope], None] | Mapping[str, Callable] | None = None,
        external: bool = False,
        internal: bool = False,
    ) -> ServiceHandle:
        node_id = self.topology.node(node)
        if not name:
            raise ServiceError("empty service name")
        if (node_id.name, name) in self.services:
            raise DuplicateServiceError(f"{name!r} already running on {node!r}")
        layer = node_id.layer
        engine = self.engines.get(layer)
        if engine is None or not self.heartbeats[layer].live(
                engine.service_name, engine.system_node.name):
            raise FlowEngineUnavailable(f"no live flow engine on layer {layer!r}")

        advs = tuple(a if isinstance(a, Advertise) else Advertise(*a) for a in advertises)
        reqs = tuple(requests)
        for kind, topics in (("advertise", [a.topic for a in advs]), ("request", reqs)):
            dupes = sorted({t for t in topics if topics.count(t) > 1})
            if dupes:
                raise ServiceError(f"duplicate {kind} for {dupes}")
        for topic in {a.topic for a in advs} | set(reqs):
            if topic.startswith(RESERVED_PREFIX) and not internal:
                raise ReservedTopicError(f"{topic!r} is in the reserved namespace")

        scope = (self.topology.external_scope(layer) if external
                 else self.topology.default_scope_for(node))
        handle = ServiceHandle(name, node_id, scope, advs, reqs)
        self.services[handle.key] = handle

        cfg = self._flow_config(layer)
        hb_period = ns_from_s(cfg["heartbeat_s"])
        hb_ttl = ns_from_s(cfg["heartbeat_ttl_s"])
        reannounce = ns_from_s(cfg["reannounce_s"])

        self.heartbeats[layer].refresh(name, node_id.name, hb_ttl)
        self.clock.call_in(hb_period, self._heartbeat_tick, handle, hb_period, hb_ttl)

        callbacks = self._normalize_callbacks(reqs, on_message)
        endpoint = self.network.endpoint(scope)
        for topic in reqs:
            flt = None
            if topic in handle.advertised_topics:
                flt = self._self_filter(handle, topic)
            endpoint_sub = endpoint.subscribe(
                topic, self._delivery_wrapper(handle, topic, callbacks.get(topic)),
                filter=flt, owner=f"{name}@{node}",
            )
            handle._subs.append(endpoint_sub)

        self._announce_all(handle)
        if reannounce > 0:
            self.clock.call_in(reannounce, self._reannounce_tick, handle, reannounce)
        self.trace.record("service_started", self.clock.now, service=name, node=node_id.name,
                          layer=layer, scope=scope.key)
        log.info("service %s started on %s", name, node_id.key)
        return handle

    def stop_service(self, handle: ServiceHandle) -> None:
        """Withdraw, unsubscribe, stop heartbeats; idempotent."""
        if handle.state != READY:
            return
        handle.state = STOPPED
        for decl in self._declarations(handle):
            self._publish_control(handle, FLOW_WITHDRAW, decl)
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
        endpoint = self.network.endpoint(handle.scope)
        for sub in handle._subs:
            endpoint.unsubscribe(sub)
        handle._subs.clear()
        if remove_heartbeat:
            self.heartbeats[handle.node.layer].remove(handle.name, handle.node.name)
        self.services.pop(handle.key, None)

    # -- data path ---------------------------------------------------------

    def publish(self, handle: ServiceHandle, topic: str, payload: bytes) -> bool:
        if handle.state != READY:
            raise ServiceStopped(f"{handle.name} is {handle.state}")
        if topic not in handle.advertised_topics:
            raise NotAdvertisedError(f"{handle.name} does not advertise {topic!r}")
        seq = self.seqs[handle.node.name].next(topic)
        env = MessageEnvelope(
            topic=topic, payload=payload, origin_node=handle.node,
            sequence=seq, sent_at=self.clock.now,
        )
        handle._published.record(handle.node.key, topic, seq)
        self.network.endpoint(handle.scope).publish(env)
        handle.published += 1
        return True

    def _delivery_wrapper(self, handle: ServiceHandle, topic: str,
                          user_cb: Callable[[MessageEnvelope], None] | None):
        latency = self.registry.gauge("mon.msg_latency_ms",
                                      {"topic": topic, "node": handle.node.name})

        def deliver(env: MessageEnvelope) -> None:
            origin = env.origin_node.key
            if handle._delivered.seen(origin, env.topic, env.sequence):
                self.registry.inc("sdk.duplicate", {"topic": env.topic, "node": handle.node.name})
                fields = {"service": handle.name, "node": handle.node.name,
                          "topic": env.topic, "origin": origin, "seq": env.sequence}
                self.violations.append({"kind": "duplicate_delivery", **fields})
                self.trace.record("duplicate_delivery", self.clock.now, **fields)
                return
            handle._delivered.record(origin, env.topic, env.sequence)
            monitor.message_latency(self.registry, latency, env, self.clock.now,
                                    handle.node.name)
            handle.received += 1
            handle.received_by_topic[env.topic] = handle.received_by_topic.get(env.topic, 0) + 1
            if user_cb is not None:
                user_cb(env)
        return deliver

    @staticmethod
    def _self_filter(handle: ServiceHandle, topic: str):
        def accept(env: MessageEnvelope) -> bool:
            return (env.origin_node != handle.node
                    or not handle._published.seen(handle.node.key, topic, env.sequence))
        return accept

    # -- declarations ----------------------------------------------------------

    def _declarations(self, handle: ServiceHandle) -> list[FlowDeclaration]:
        decls = []
        for adv in handle.advertises:
            decls.append(FlowDeclaration(
                direction=ADVERTISE, topic=adv.topic, origin_node=handle.node,
                declared_rate=adv.rate_hz, declared_max_size=adv.max_size,
            ))
        for topic in handle.requests:
            decls.append(FlowDeclaration(
                direction=REQUEST, topic=topic, origin_node=handle.node,
            ))
        return decls

    def _announce_all(self, handle: ServiceHandle) -> None:
        for decl in self._declarations(handle):
            self._publish_control(handle, CONTROL_TOPIC[decl.direction], decl)

    def _publish_control(self, handle: ServiceHandle, control_topic: str,
                         decl: FlowDeclaration) -> None:
        self.network.endpoint(handle.scope).publish(control_envelope(
            control_topic, declaration_body(decl, handle.name),
            handle.node, self.seqs[handle.node.name], self.clock.now))

    # -- timers -------------------------------------------------------------
    # A tick re-arms itself while the service is READY and the host active;
    # once either goes, the pending tick runs as a no-op and the timer ends.

    def _heartbeat_tick(self, handle: ServiceHandle, period: int, ttl: int) -> None:
        if not self.active or handle.state != READY:
            return
        self.heartbeats[handle.node.layer].refresh(handle.name, handle.node.name, ttl)
        self.clock.call_in(period, self._heartbeat_tick, handle, period, ttl)

    def _reannounce_tick(self, handle: ServiceHandle, period: int) -> None:
        if not self.active or handle.state != READY:
            return
        self._announce_all(handle)
        self.clock.call_in(period, self._reannounce_tick, handle, period)

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
