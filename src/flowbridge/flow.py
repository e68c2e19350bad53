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
entries and bridges. The limiters' ``records`` are the only copy of the
registrations: a resync reads the clients of the topic's bridges before
and after, and re-syncs only those whose record of the topic differs
from the table's.

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
from functools import partial
from typing import Callable

from . import codec
from .broker import SUB_BRIDGE, BrokerEndpoint, SubscriberHandle
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
    control_envelope,
    declaration_payload,
    decode_declaration,
)

CONTROL_TOPIC = {ADVERTISE: FLOW_ADVERTISE, REQUEST: FLOW_REQUEST}


class DedupeWindow:
    """Per-destination-scope duplicate filter: an RFC 6479-style window of
    the last ``capacity`` sequences of each stream.

    Each (origin node, topic) stream holds ``[highest, holes, first]``:
    bit *i* of ``holes`` means sequence ``highest - i`` is unseen, and
    every sequence below ``first`` is unseen without a bit. An in-order
    stream so holds ``holes == 0``, and an arrival only moves ``highest``;
    only skipped sequences cost bits, and ``holes`` keeps at most
    ``capacity`` of them. A stream starts at ``[seq, 0, seq]`` (as after a
    jump of at least ``capacity``), or at ``[0, 0, 1]`` when its first
    sequence is at most 0. A sequence is fresh when it is unseen and not
    older than the window; anything older counts as a duplicate, keeping
    delivery at-most-once.
    """

    __slots__ = ("capacity", "_streams", "_all")

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._streams: dict[tuple[str, str], list[int]] = {}
        self._all = (1 << capacity) - 1

    def seen(self, origin: str, topic: str, seq: int) -> bool:
        """True when this sequence was recorded and is inside the window."""
        st = self._streams.get((origin, topic))
        if st is None:
            return False
        back = st[0] - seq
        return 0 <= back < self.capacity and seq >= st[2] and not st[1] >> back & 1

    def test_and_record(self, origin: str, topic: str, seq: int) -> bool:
        """True (and marks it) when this sequence was not seen before."""
        st = self._streams.get((origin, topic))
        if st is None:
            if seq > 0:
                self._streams[(origin, topic)] = [seq, 0, seq]
                return True
            st = self._streams[(origin, topic)] = [0, 0, 1]
        back = st[0] - seq
        if back < 0:  # newest yet: the sequences skipped over become holes
            if back <= -self.capacity:
                st[0] = st[2] = seq
                st[1] = 0
            else:
                st[0] = seq
                if st[1] or back != -1:
                    st[1] = (st[1] << -back | (1 << -back) - 2) & self._all
            return True
        if back >= self.capacity:
            return False  # too old to judge: drop rather than risk a dup
        if seq < st[2]:  # below the floor: the sequences between become holes
            st[1] |= (1 << back) - (1 << st[0] - st[2] + 1)
            st[2] = seq
            return True
        bit = 1 << back
        if st[1] & bit:
            st[1] ^= bit
            return True
        return False

    # marking a sequence observed elsewhere is the same step, answer unused
    record = test_and_record


class TableEntry:
    """Merged declarations for one (direction, topic, origin, scope)."""

    __slots__ = ("origin_node", "declared_rate", "declared_max_size", "contributors", "serial")

    def __init__(self, origin_node: NodeId, declared_rate: float, declared_max_size: int,
                 serial: int) -> None:
        self.origin_node = origin_node
        self.declared_rate = declared_rate
        self.declared_max_size = declared_max_size
        self.contributors: set[str] = set()
        self.serial = serial  # creation order in the table


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


def compute_required_bridges(table: FlowTable, topic: str) -> set[BridgeKey]:
    """Pure bridge-set computation for one topic of one engine's table.

    Every (advertiser scope, requester scope) pair of the topic yields one
    bridge when the scopes differ; a pair within one scope needs none
    (scope-local delivery is direct). Every row's scope is one of the
    engine's: `FlowEngine.announce` rejects a foreign scope before it
    stores anything.
    """
    reqs = table.scopes(REQUEST, topic)
    return {(topic, a, r) for a in table.scopes(ADVERTISE, topic) for r in reqs if a != r}


class BridgeSpec:
    """One installed bridge, with its destination endpoint, both scopes'
    dedupe windows and its outcome counters bound."""

    __slots__ = ("topic", "source", "dest", "dest_endpoint", "source_window", "dedupe_window",
                 "client", "delivered", "forwarded", "dedupe_drops", "limiter_drops", "handle")

    def __init__(self, topic: str, source: BrokerScope, dest: BrokerScope,
                 dest_endpoint: BrokerEndpoint, source_window: DedupeWindow,
                 dedupe_window: DedupeWindow, client: str | None, delivered: CounterCell,
                 forwarded: CounterCell, dedupe_drops: CounterCell,
                 limiter_drops: CounterCell) -> None:
        self.topic = topic
        self.source = source
        self.dest = dest
        self.dest_endpoint = dest_endpoint
        self.source_window = source_window
        self.dedupe_window = dedupe_window  # the destination scope's
        self.client = client  # limiter client when dest is inter_layer
        self.delivered = delivered
        self.forwarded = forwarded
        self.dedupe_drops = dedupe_drops
        self.limiter_drops = limiter_drops
        self.handle: SubscriberHandle | None = None

    @property
    def key(self) -> BridgeKey:
        return (self.topic, self.source.key, self.dest.key)


class FlowEngineError(Exception):
    pass


class FlowEngine:
    """Declaration store, flooder, and bridge manager for one layer.

    The engine owns its layer's liveness table, ``heartbeats``, which the
    services of the layer refresh and its watchdog expires; it publishes
    with its system node's counter from ``network.seqs``. ``config()``
    is the layer's resolved config body: the watchdog reads its period
    and the heartbeat TTL from it at every scan, and a change notice
    re-reads the rate limit.
    """

    def __init__(self, layer: str, network: Network, config: Callable[[], dict]):
        topology = network.topology
        self.layer = topology.layer(layer)
        self.topology = topology
        self.network = network
        self.clock = network.clock
        self.registry = network.metrics
        self.trace = network.trace
        self.heartbeats = HeartbeatRegistry(self.clock, self.registry, self.trace, self.layer)
        self.config = config
        self.limit_cfg = RateLimitConfig.from_obj(config()["rate_limit"])

        self.scope_by_key = {s.key: s for s in topology.scopes_for_layer(self.layer)}
        self.inter_scope = topology.inter_layer_scope(self.layer)
        self.inter_endpoint = network.endpoint(self.inter_scope)
        self.system_node = topology.system_node(self.layer)
        self.seq = network.seqs[self.system_node.name]
        self.service_name = f"__flow-engine/{self.layer}"

        self.table = FlowTable()
        self.bridges: dict[BridgeKey, BridgeSpec] = {}
        self._topic_bridges: dict[str, set[BridgeKey]] = {}
        self.windows: dict[str, DedupeWindow] = {key: DedupeWindow() for key in self.scope_by_key}
        self.limiters: dict[str, HierarchicalLimiter] = {}
        # one-entry codec memos, (payload, level, blob, original length)
        # and (blob, data), hit by identity with the held bytes, which
        # cannot change
        self._packed: tuple[bytes | None, int, bytes, int] = (None, 0, b"", 0)
        self._unpacked: tuple[bytes | None, bytes] = (None, b"")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Subscribe to flow control and start the watchdog; call once."""
        for scope in self.scope_by_key.values():
            ep = self.network.endpoint(scope)
            for topic in (FLOW_ADVERTISE, FLOW_REQUEST, FLOW_WITHDRAW):
                ep.subscribe(topic, partial(self._on_control, scope), owner=self.service_name)
        intra = self.network.endpoint(self.topology.intra_layer_scope(self.layer))
        intra.subscribe(CONFIG_NOTICE, self._on_config_notice, owner=self.service_name)
        # the first scan runs now: it registers the engine's own heartbeat,
        # and no service can register before that one is live
        self.clock.every(self._watchdog_scan(), self._watchdog_scan)

    # -- declaration intake ------------------------------------------------

    def announce(self, decl: FlowDeclaration, service: str = "anonymous",
                 scope: BrokerScope | None = None,
                 payload: bytes | None = None) -> list[BridgeSpec]:
        """Store a declaration and flood it; returns bridges created by it.
        ``payload`` is its canonical bytes, when they are at hand."""
        if scope is None:
            scope = self.topology.default_scope_for(decl.origin_node.name)
        if scope.key not in self.scope_by_key:
            raise FlowEngineError(f"scope {scope.key} is not on layer {self.layer}")
        changed = self.table.store(decl.direction, scope.key, decl, service)
        self._flood(scope, CONTROL_TOPIC[decl.direction], decl, service, payload)
        return self._reconcile(decl.topic)[0] if changed else []

    def withdraw(self, decl: FlowDeclaration, service: str = "anonymous",
                 scope: BrokerScope | None = None,
                 payload: bytes | None = None) -> list[BridgeKey]:
        """Remove a declaration and flood that; returns bridge keys torn down.
        ``scope`` is where the withdrawal arrived; None means a local one.
        ``payload`` is as for `announce`."""
        died = self.table.remove_contributor(
            decl.direction, decl.topic, decl.origin_node.key, service)
        self._flood(scope, FLOW_WITHDRAW, decl, service, payload)
        return self._reconcile(decl.topic)[1] if died else []

    def _flood(self, scope: BrokerScope | None, control_topic: str,
               decl: FlowDeclaration, service: str, payload: bytes | None) -> None:
        """Forward what arrived locally onto the bus, which reaches every
        other layer in one hop; what arrived over the bus is not forwarded.

        ``payload``, the canonical bytes that arrived, is published as it
        is. Only a declaration that came without one (a direct call, a
        watchdog withdrawal) is encoded here, to the same bytes."""
        if scope == self.inter_scope or len(self.topology.layers) == 1:
            return
        if payload is None:
            payload = declaration_payload(decl, service)
        self.inter_endpoint.publish(control_envelope(
            control_topic, payload, self.system_node, self.seq, self.clock.now),
            self.service_name)

    def _on_control(self, scope: BrokerScope, env: MessageEnvelope) -> None:
        """Store or withdraw what a control message declares. A payload
        is decoded once (`decode_declaration`), not once per engine and
        re-announce; its canonical bytes go on to `_flood`."""
        decl, service, payload = decode_declaration(env.payload)
        if env.topic == FLOW_WITHDRAW:
            self.withdraw(decl, service, scope, payload)
        else:
            self.announce(decl, service, scope, payload)

    # -- reconciliation ----------------------------------------------------

    def _client_key(self, scope: BrokerScope) -> str:
        if scope.kind is ScopeKind.INTRA_NODE:
            return f"node:{scope.node}"
        return f"layer:{scope.layer}"

    def _reconcile(self, topic: str) -> tuple[list[BridgeSpec], list[BridgeKey]]:
        """Bring one topic's bridges in line with the table."""
        required = compute_required_bridges(self.table, topic)
        current = self._topic_bridges.pop(topic, set())
        # the clients registered for the topic, read before any bridge goes
        registered = {self.bridges[key].client for key in current} - {None}
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
        self._sync_limiters(topic, registered)
        return created, removed

    def _install_bridge(self, key: BridgeKey) -> BridgeSpec:
        topic, src_key, dst_key = key
        source = self.scope_by_key[src_key]
        dest = self.scope_by_key[dst_key]
        client = self._client_key(source) if dest.kind is ScopeKind.INTER_LAYER else None
        counter = self.registry.counter
        bridge = BridgeSpec(
            topic=topic, source=source, dest=dest,
            dest_endpoint=self.network.endpoint(dest), source_window=self.windows[src_key],
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
        self.network.bridge_events.append(
            (self.clock.now, "install", self.layer, topic, src_key, dst_key))
        return bridge

    def _remove_bridge(self, bridge: BridgeSpec) -> None:
        if bridge.handle is not None:
            self.network.endpoint(bridge.source).unsubscribe(bridge.handle)
            bridge.handle = None  # the handle's callback holds the bridge: break the cycle
        self.bridges.pop(bridge.key, None)
        self.trace.record("bridge_removed", self.clock.now, layer=self.layer,
                          topic=bridge.topic, source=bridge.source.key, dest=bridge.dest.key)
        self.network.bridge_events.append((self.clock.now, "remove", self.layer, bridge.topic,
                                           bridge.source.key, bridge.dest.key))

    def _sync_limiters(self, topic: str, registered: set[str]) -> None:
        """Re-register one topic with the traffic clients whose record of it
        differs from the table; ``registered`` are the clients of the
        topic's bridges before this reconcile."""
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
        for client in sorted(registered | fresh.keys()):
            reg = fresh.get(client)
            limiter = self.limiters.get(client)
            if limiter is None:  # a client with no topic yet
                limiter = self.limiters[client] = HierarchicalLimiter(
                    self.limit_cfg, self.clock, client, self.registry)
            elif reg == limiter.records.get(topic):
                continue
            elif reg is None and len(limiter.records) == 1:
                del self.limiters[client]  # its last topic: nothing to reallocate
                continue
            limiter.sync_publishers(topic, reg)

    # -- data path -----------------------------------------------------------

    def _on_bridge_message(self, bridge: BridgeSpec, env: MessageEnvelope) -> None:
        origin = env.origin_node.key
        bridge.source_window.record(origin, env.topic, env.sequence)
        if not bridge.dedupe_window.test_and_record(origin, env.topic, env.sequence):
            cell = bridge.dedupe_drops
            cell.value += 1
            cell.at = self.clock.now
            return
        if bridge.client is not None:
            limiter = self.limiters[bridge.client]
            limiter.observe_size(env.topic, env.uncompressed_len)
            if not limiter.try_acquire(env.topic):
                cell = bridge.limiter_drops
                cell.value += 1
                cell.at = self.clock.now
                return
            if env.payload_len >= self.limit_cfg.large_threshold:
                env = self._maybe_compress(env)
        elif env.compressed:
            env = self._decompress(env)
        bridge.dest_endpoint.publish(env)
        now = self.clock.now
        cell = bridge.delivered
        cell.value += 1
        cell.at = now
        cell = bridge.forwarded
        cell.value += 1
        cell.at = now

    def _maybe_compress(self, env: MessageEnvelope) -> MessageEnvelope:
        """Compress a large payload, unless it is compressed already or
        compression is off; the caller tests the size."""
        cfg = self.limit_cfg
        if env.compressed or cfg.compression_level == 0:
            return env
        # a stream republishes one payload object: compress it once
        payload, level = env.payload, cfg.compression_level
        if self._packed[0] is not payload or self._packed[1] != level:
            self._packed = (payload, level, *codec.compress(payload, level))
        blob, orig = self._packed[2:]
        if len(blob) >= orig:
            return env  # incompressible; ship original bytes
        return MessageEnvelope(env.topic, blob, env.origin_node, env.sequence, env.sent_at,
                               True, orig)

    def _decompress(self, env: MessageEnvelope) -> MessageEnvelope:
        if self._unpacked[0] is not env.payload:
            self._unpacked = (env.payload, codec.decompress(env.payload))
        data = self._unpacked[1]
        if len(data) != env.uncompressed_len:
            raise FlowEngineError(
                f"decompressed length {len(data)} != declared {env.uncompressed_len}")
        return MessageEnvelope(env.topic, data, env.origin_node, env.sequence, env.sent_at,
                               False, env.uncompressed_len)

    # -- config and watchdog ---------------------------------------------------

    def _on_config_notice(self, _env: MessageEnvelope) -> None:
        """Only this layer's worker publishes notices on its intra-layer
        scope: re-read the layer's rate limit."""
        cfg = RateLimitConfig.from_obj(self.config()["rate_limit"])
        if cfg == self.limit_cfg:
            return
        self.limit_cfg = cfg
        for client in sorted(self.limiters):
            self.limiters[client].reconfigure(cfg)
        self.trace.record("limit_reconfig", self.clock.now, layer=self.layer,
                          limit_mbps=cfg.limit_mbps)

    def _watchdog_scan(self) -> int:
        # both periods are read at every scan, so a pushed one applies
        # from the first scan after the worker applies the document
        flow = self.config()["flow"]
        self.heartbeats.refresh(self.service_name, self.system_node.name,
                                ns_from_s(flow["heartbeat_ttl_s"]))
        for service, node in self.heartbeats.expire():
            self._withdraw_dead(service, node)
        return ns_from_s(flow["watchdog_s"])

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
