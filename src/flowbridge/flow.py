"""Flow engine: declaration flooding and dynamic bridge management.

One engine runs per layer, attached to every broker scope of that
layer. Services announce advertise/request declarations on their local
scope; the engine stores them, floods what arrived on a local scope
onto the inter-layer bus (which reaches every other layer in one hop,
so nothing that arrives over the bus is flooded again), and keeps the
bridge set reconciled with the table:

    for every topic, one bridge per (advertiser scope, requester scope)
    pair with distinct scopes; remote declarations count under the
    layer's inter_layer scope.

Reconcile is per topic and change-driven: a declaration or withdrawal
touches one topic, so only that topic's bridges are recomputed, and only
when the table reports that it changed. An unchanged re-announce costs a
store and a flood, nothing more. The table is indexed by topic and by
service, so a reconcile and the limiter resync after it cost one topic's
entries and bridges, and only the traffic clients whose registration of
that topic changed are re-synced.

A bridge is a subscription on the source scope that republishes fresh
envelopes on the destination scope. Freshness comes from a dedupe
window shared by all bridges into the same destination scope (keyed by
origin node and topic), which also marks envelopes observed at the
source scope; that closes both echo loops (A->B followed by B->A) and
multi-path double delivery (two bridges into one scope).

Bridges into the inter_layer scope pass the hierarchical rate limiter
of their traffic client (the source node, or the layer for layer-wide
scopes) and compress payloads at or above the configured threshold; the
matching decompression happens on bridges leaving the inter_layer
scope, so local subscribers always see original bytes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable

from . import codec
from .broker import SUB_BRIDGE, SUB_CONTROL, SubscriberHandle
from .monitor import CounterCell, HeartbeatRegistry, ordered_sum
from .ratelimit import HierarchicalLimiter, RateLimitConfig
from .simnet import Network, ns_from_s
from .topology import (
    ADVERTISE,
    CONFIG_NOTICE,
    FLOW_ADVERTISE,
    FLOW_REQUEST,
    FLOW_WITHDRAW,
    REQUEST,
    BrokerScope,
    FlowDeclaration,
    MessageEnvelope,
    NodeId,
    ScopeKind,
    SequenceCounter,
    control_envelope,
    declaration_body,
    declaration_from_body,
)

CONTROL_TOPIC = {ADVERTISE: FLOW_ADVERTISE, REQUEST: FLOW_REQUEST}


class DedupeWindow:
    """Per-destination-scope duplicate filter: an RFC 6479-style sliding bitmap.

    Each (origin node, topic) stream holds ``[highest, mask]``: bit *i*
    of the mask marks sequence ``highest - i``, and the mask keeps
    ``capacity`` bits. A sequence is fresh when it is not marked and not
    older than the window; anything older counts as a duplicate, keeping
    delivery at-most-once.
    """

    __slots__ = ("capacity", "_streams")

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._streams: dict[tuple[str, str], list[int]] = {}

    def seen(self, origin: str, topic: str, seq: int) -> bool:
        """True when this sequence is marked inside the window."""
        highest, mask = self._streams.get((origin, topic), (0, 0))
        back = highest - seq
        return 0 <= back < self.capacity and mask >> back & 1 == 1

    def test_and_record(self, origin: str, topic: str, seq: int) -> bool:
        """True (and marks it) when this sequence was not seen before."""
        key = (origin, topic)
        st = self._streams.get(key) or self._streams.setdefault(key, [0, 0])
        back = st[0] - seq
        if back < 0:  # newest yet: slide the window up to it
            st[0] = seq
            st[1] = (st[1] << min(-back, self.capacity) | 1) & ((1 << self.capacity) - 1)
            return True
        if back >= self.capacity or st[1] >> back & 1:
            return False  # seen, or too old to judge: drop rather than risk a dup
        st[1] |= 1 << back
        return True

    # marking a sequence observed elsewhere is the same step, answer unused
    record = test_and_record


@dataclass
class TableEntry:
    """Merged declarations for one (direction, topic, origin, scope)."""

    origin_node: NodeId
    declared_rate: float = 0.0
    declared_max_size: int = 0
    contributors: set[str] = field(default_factory=set)
    serial: int = 0  # creation order in the table


TableKey = tuple[str, str, str, str]  # (direction, topic, origin key, scope key)


class FlowTable:
    """Declaration store: ``entries`` is the record, indexed by topic and by
    service. Queries answer in ``entries`` order, which float sums and the
    order of trace records depend on."""

    def __init__(self) -> None:
        self.entries: dict[TableKey, TableEntry] = {}
        self._by_topic: dict[str, dict[TableKey, TableEntry]] = {}
        self._by_service: dict[str, set[TableKey]] = {}
        self._serials = itertools.count()

    def store(self, direction: str, scope_key: str, decl: FlowDeclaration, service: str) -> bool:
        """Merge a declaration in; True when the table state changed."""
        key = (direction, decl.topic, decl.origin_node.key, scope_key)
        ent = self.entries.get(key)
        if ent is None:  # a new entry changes through its first contributor
            ent = TableEntry(decl.origin_node, decl.declared_rate, decl.declared_max_size,
                             serial=next(self._serials))
            self.entries[key] = self._by_topic.setdefault(decl.topic, {})[key] = ent
        changed = False
        if decl.declared_rate > ent.declared_rate:
            ent.declared_rate = decl.declared_rate
            changed = True
        if decl.declared_max_size > ent.declared_max_size:
            ent.declared_max_size = decl.declared_max_size
            changed = True
        if service not in ent.contributors:
            ent.contributors.add(service)
            self._by_service.setdefault(service, set()).add(key)
            changed = True
        return changed

    def remove_contributor(self, direction: str, topic: str, origin_key: str, service: str) -> bool:
        """Drop one contributor everywhere it matches; True if an entry died."""
        died = False
        keys = self._by_service.get(service, set())
        for key in [k for k in keys if k[:3] == (direction, topic, origin_key)]:
            keys.discard(key)
            ent = self.entries[key]
            ent.contributors.discard(service)
            if not ent.contributors:
                by_topic = self._by_topic[topic]
                del self.entries[key], by_topic[key]
                if not by_topic:
                    del self._by_topic[topic]
                died = True
        if not keys:
            self._by_service.pop(service, None)
        return died

    def lookup(self, topic: str) -> dict[TableKey, TableEntry]:
        return dict(self._by_topic.get(topic, {}))

    def topics(self) -> list[str]:
        return sorted(self._by_topic)

    def contributions(self, service: str) -> list[tuple[TableKey, TableEntry]]:
        pairs = [(k, self.entries[k]) for k in self._by_service.get(service, ())]
        return sorted(pairs, key=lambda pair: pair[1].serial)

    def scopes(self, direction: str, topic: str) -> set[str]:
        return {k[3] for k in self._by_topic.get(topic, ()) if k[0] == direction}

    def advertisers_at(self, topic: str, scope_key: str) -> list[TableEntry]:
        return [e for k, e in self._by_topic.get(topic, {}).items()
                if k[0] == ADVERTISE and k[3] == scope_key]


BridgeKey = tuple[str, str, str]  # (topic, source scope key, dest scope key)


def compute_required_bridges(table: FlowTable, scopes: Iterable[BrokerScope],
                             topic: str) -> set[BridgeKey]:
    """Pure bridge-set computation for one topic of one engine's table.

    Every (advertiser scope, requester scope) pair of the topic yields one
    bridge when the scopes differ; a pair within one scope needs none
    (scope-local delivery is direct).
    """
    known = {s.key for s in scopes}
    advs = table.scopes(ADVERTISE, topic) & known
    reqs = table.scopes(REQUEST, topic) & known
    return {(topic, a, r) for a in advs for r in reqs if a != r}


@dataclass
class BridgeSpec:
    """One installed bridge, with its outcome counters bound."""

    topic: str
    source: BrokerScope
    dest: BrokerScope
    dedupe_window: DedupeWindow
    client: str | None  # limiter client when dest is inter_layer
    delivered: CounterCell
    forwarded: CounterCell
    dedupe_drops: CounterCell
    limiter_drops: CounterCell
    handle: SubscriberHandle | None = None

    @property
    def key(self) -> BridgeKey:
        return (self.topic, self.source.key, self.dest.key)


class FlowEngineError(Exception):
    pass


class FlowEngine:
    """Declaration store, flooder, and bridge manager for one layer."""

    def __init__(
        self,
        layer: str,
        network: Network,
        heartbeats: HeartbeatRegistry,
        seq: SequenceCounter,
        config: Callable[[], dict],
    ):
        """``config()`` returns the layer's resolved config body."""
        topology = network.topology
        self.layer = topology.layer(layer).name
        self.topology = topology
        self.network = network
        self.clock = network.clock
        self.heartbeats = heartbeats
        self.seq = seq
        self.registry = network.metrics
        self.trace = network.trace
        self.config = config
        body = config()
        self.limit_cfg = RateLimitConfig.from_obj(body["rate_limit"])
        self._set_periods(body["flow"])

        self.scopes: list[BrokerScope] = list(topology.scopes_for_layer(self.layer))
        self.scope_by_key = {s.key: s for s in self.scopes}
        self.inter_scope = topology.inter_layer_scope(self.layer)
        self.system_node = topology.system_node(self.layer)
        self.service_name = f"__flow-engine/{self.layer}"

        self.table = FlowTable()
        self.bridges: dict[BridgeKey, BridgeSpec] = {}
        self._topic_bridges: dict[str, set[BridgeKey]] = {}
        self.windows: dict[str, DedupeWindow] = {s.key: DedupeWindow() for s in self.scopes}
        self.limiters: dict[str, HierarchicalLimiter] = {}
        # the last registration synced per topic: {topic: {client: (rate, size)}}
        self._regs_by_topic: dict[str, dict[str, tuple[float, int]]] = {}
        self.running = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        for scope in self.scopes:
            ep = self.network.endpoint(scope)
            # own forwards reflected off the bus are filtered at the source
            flt = None
            if scope.kind is ScopeKind.INTER_LAYER:
                flt = lambda env: env.origin_node.layer != self.layer
            for topic in (FLOW_ADVERTISE, FLOW_REQUEST, FLOW_WITHDRAW):
                ep.subscribe(
                    topic, partial(self._on_control, scope), kind=SUB_CONTROL,
                    filter=flt, owner=self.service_name,
                )
        intra = self.network.endpoint(self.topology.intra_layer_scope(self.layer))
        intra.subscribe(
            CONFIG_NOTICE, self._on_config_notice, kind=SUB_CONTROL, owner=self.service_name,
        )
        self.heartbeats.refresh(self.service_name, self.system_node.name, self.heartbeat_ttl_ns)
        self.clock.call_in(self.watchdog_period_ns, self._watchdog_scan)

    # -- declaration intake ------------------------------------------------

    def announce(self, decl: FlowDeclaration, service: str = "anonymous",
                 scope: BrokerScope | None = None) -> list[BridgeSpec]:
        """Store a declaration and flood it; returns bridges created by it."""
        if scope is None:
            scope = self.topology.default_scope_for(decl.origin_node.name)
        if scope.key not in self.scope_by_key:
            raise FlowEngineError(f"scope {scope.key} is not on layer {self.layer}")
        changed = self.table.store(decl.direction, scope.key, decl, service)
        self._flood(scope, CONTROL_TOPIC[decl.direction], decl, service)
        return self._reconcile(decl.topic)[0] if changed else []

    def withdraw(self, decl: FlowDeclaration, service: str = "anonymous",
                 scope: BrokerScope | None = None) -> list[BridgeKey]:
        """Remove a declaration and flood that; returns bridge keys torn down.
        ``scope`` is where the withdrawal arrived; None means a local one."""
        died = self.table.remove_contributor(
            decl.direction, decl.topic, decl.origin_node.key, service)
        self._flood(scope, FLOW_WITHDRAW, decl, service)
        return self._reconcile(decl.topic)[1] if died else []

    def _flood(self, scope: BrokerScope | None, control_topic: str,
               decl: FlowDeclaration, service: str) -> None:
        """Forward what arrived locally onto the bus, which reaches every
        other layer in one hop; what arrived over the bus is not forwarded."""
        if scope == self.inter_scope or len(self.topology.layers) == 1:
            return
        self.network.endpoint(self.inter_scope).publish(control_envelope(
            control_topic, declaration_body(decl, service),
            self.system_node, self.seq, self.clock.now))

    def _on_control(self, scope: BrokerScope, env: MessageEnvelope) -> None:
        decl, service = declaration_from_body(json.loads(env.payload))
        if env.topic == FLOW_WITHDRAW:
            self.withdraw(decl, service, scope)
        else:
            self.announce(decl, service, scope)

    # -- reconciliation ----------------------------------------------------

    def _client_key(self, scope: BrokerScope) -> str:
        if scope.kind is ScopeKind.INTRA_NODE:
            return f"node:{scope.node}"
        return f"layer:{scope.layer}"

    def _reconcile(self, topic: str) -> tuple[list[BridgeSpec], list[BridgeKey]]:
        """Bring one topic's bridges in line with the table."""
        required = compute_required_bridges(self.table, self.scopes, topic)
        current = self._topic_bridges.pop(topic, set())
        created: list[BridgeSpec] = []
        removed: list[BridgeKey] = []
        for key in sorted(current - required):
            removed.append(key)
            self._remove_bridge(self.bridges[key])
        for key in sorted(required - current):
            created.append(self._install_bridge(key))
        if required:
            self._topic_bridges[topic] = required
        if created or removed:
            self.registry.observe("flow.bridges", {"layer": self.layer}, len(self.bridges))
        self._sync_limiters(topic)
        return created, removed

    def _install_bridge(self, key: BridgeKey) -> BridgeSpec:
        topic, src_key, dst_key = key
        source = self.scope_by_key[src_key]
        dest = self.scope_by_key[dst_key]
        client = self._client_key(source) if dest.kind is ScopeKind.INTER_LAYER else None
        counter = self.registry.counter
        bridge = BridgeSpec(
            topic=topic, source=source, dest=dest,
            dedupe_window=self.windows[dst_key], client=client,
            delivered=counter("flow.delivered", {"topic": topic}),
            forwarded=counter("flow.forwarded",
                              {"topic": topic, "source": src_key, "dest": dst_key}),
            dedupe_drops=counter("flow.drop.dedupe", {"topic": topic}),
            limiter_drops=counter("flow.drop.limiter", {"topic": topic}),
        )
        bridge.handle = self.network.endpoint(source).subscribe(
            topic, partial(self._on_bridge_message, bridge), kind=SUB_BRIDGE,
            owner=f"{self.service_name}:{src_key}->{dst_key}",
        )
        self.bridges[key] = bridge
        self.trace.record("bridge_installed", self.clock.now, layer=self.layer,
                          topic=topic, source=src_key, dest=dst_key)
        return bridge

    def _remove_bridge(self, bridge: BridgeSpec) -> None:
        if bridge.handle is not None:
            self.network.endpoint(bridge.source).unsubscribe(bridge.handle)
        self.bridges.pop(bridge.key, None)
        self.trace.record("bridge_removed", self.clock.now, layer=self.layer,
                          topic=bridge.topic, source=bridge.source.key, dest=bridge.dest.key)

    def _sync_limiters(self, topic: str) -> None:
        """Re-register one topic with the traffic clients whose share of it changed."""
        fresh: dict[str, tuple[float, int]] = {}
        for key in sorted(self._topic_bridges.get(topic, ())):
            bridge = self.bridges[key]
            if bridge.client is None:
                continue
            entries = self.table.advertisers_at(topic, bridge.source.key)
            rate = ordered_sum(e.declared_rate for e in entries)
            size = max((e.declared_max_size for e in entries), default=0)
            r0, s0 = fresh.get(bridge.client, (0, 0))
            fresh[bridge.client] = (r0 + rate, max(s0, size))
        stale = self._regs_by_topic.pop(topic, {})
        if fresh:
            self._regs_by_topic[topic] = fresh
        for client in sorted(stale.keys() | fresh.keys()):
            reg = fresh.get(client)
            if reg == stale.get(client):
                continue
            limiter = self.limiters.get(client)
            if limiter is None:
                limiter = self.limiters[client] = HierarchicalLimiter(
                    self.limit_cfg, self.clock, client, self.registry)
            elif reg is None and len(limiter.records) == 1:
                del self.limiters[client]  # its last topic: nothing to reallocate
                continue
            limiter.sync_publishers(topic, reg)

    # -- data path -----------------------------------------------------------

    def _on_bridge_message(self, bridge: BridgeSpec, env: MessageEnvelope) -> None:
        origin = env.origin_node.key
        self.windows[bridge.source.key].record(origin, env.topic, env.sequence)
        if not bridge.dedupe_window.test_and_record(origin, env.topic, env.sequence):
            bridge.dedupe_drops.inc()
            return
        if bridge.client is not None:
            limiter = self.limiters[bridge.client]
            limiter.observe_size(env.topic, env.uncompressed_len)
            if not limiter.try_acquire(env.topic):
                bridge.limiter_drops.inc()
                return
            env = self._maybe_compress(env)
        elif env.compressed:
            env = self._decompress(env)
        self.network.endpoint(bridge.dest).publish(env)
        bridge.delivered.inc()
        bridge.forwarded.inc()

    def _maybe_compress(self, env: MessageEnvelope) -> MessageEnvelope:
        cfg = self.limit_cfg
        if env.compressed or cfg.compression_level == 0:
            return env
        if env.payload_len < cfg.large_threshold:
            return env
        blob, orig = codec.compress(env.payload, cfg.compression_level)
        if len(blob) >= orig:
            return env  # incompressible; ship original bytes
        return replace(env, payload=blob, compressed=True, uncompressed_len=orig)

    def _decompress(self, env: MessageEnvelope) -> MessageEnvelope:
        data = codec.decompress(env.payload)
        if len(data) != env.uncompressed_len:
            raise FlowEngineError(
                f"decompressed length {len(data)} != declared {env.uncompressed_len}")
        return replace(env, payload=data, compressed=False)

    # -- config and watchdog ---------------------------------------------------

    def _on_config_notice(self, _env: MessageEnvelope) -> None:
        """Only this layer's worker publishes notices on its intra-layer
        scope: re-read the layer's flow periods and rate limit."""
        layer_cfg = self.config()
        self._set_periods(layer_cfg["flow"])
        cfg = RateLimitConfig.from_obj(layer_cfg["rate_limit"])
        if cfg == self.limit_cfg:
            return
        self.limit_cfg = cfg
        for client in sorted(self.limiters):
            self.limiters[client].reconfigure(cfg)
        self.trace.record("limit_reconfig", self.clock.now, layer=self.layer,
                          limit_mbps=cfg.limit_mbps)

    def _set_periods(self, flow: dict) -> None:
        self.watchdog_period_ns = ns_from_s(flow["watchdog_s"])
        self.heartbeat_ttl_ns = ns_from_s(flow["heartbeat_ttl_s"])

    def _watchdog_scan(self) -> None:
        if not self.running:
            return
        self.heartbeats.refresh(self.service_name, self.system_node.name, self.heartbeat_ttl_ns)
        for service, node in self.heartbeats.expire():
            self._withdraw_dead(service, node)
        self.clock.call_in(self.watchdog_period_ns, self._watchdog_scan)

    def _withdraw_dead(self, service: str, node: str) -> None:
        """Synthesize withdrawals for everything a dead service declared."""
        local_keys = set(self.scope_by_key) - {self.inter_scope.key}
        doomed = [
            (key, ent) for key, ent in self.table.contributions(service)
            if key[3] in local_keys and ent.origin_node.name == node
        ]
        for (direction, topic, _origin, _scope), ent in doomed:
            decl = FlowDeclaration(
                direction=direction, topic=topic, origin_node=ent.origin_node,
                declared_rate=ent.declared_rate, declared_max_size=ent.declared_max_size,
            )
            self.trace.record("watchdog_withdraw", self.clock.now, layer=self.layer,
                              service=service, topic=topic, direction=direction)
            self.withdraw(decl, service)
