"""Unit tests for the flow engine: tables, dedupe, flooding, bridges."""

import json
from random import Random

import pytest

from flowbridge import codec
from flowbridge.configstore import resolve_layer_config
from flowbridge.flow import (
    DedupeWindow,
    FlowEngine,
    FlowEngineError,
    FlowTable,
    compute_required_bridges,
)
from flowbridge.monitor import MetricsRegistry
from flowbridge.ratelimit import allocate
from flowbridge.runner import World
from flowbridge.sdk import Advertise
from flowbridge.simnet import MS, SECOND, Network, SimClock, ns_from_s
from flowbridge.topology import (
    ADVERTISE,
    CONFIG_NOTICE,
    CONFIG_REQUEST,
    FLOW_ADVERTISE,
    FLOW_WITHDRAW,
    REQUEST,
    FlowDeclaration,
    MessageEnvelope,
    NodeId,
    build_topology,
    control_envelope,
    declaration_from_body,
    decode_declaration,
)
from flowbridge.tracing import Trace
from oracles import oracle_limiter_regs, synthetic_corpus
from tracefile import records

# -- dedupe window ---------------------------------------------------------


def test_dedupe_fresh_then_duplicate():
    w = DedupeWindow()
    assert w.test_and_record("a@edge", "scan", 1)
    assert not w.test_and_record("a@edge", "scan", 1)
    assert w.test_and_record("a@edge", "scan", 2)


def test_dedupe_record_marks_observed():
    w = DedupeWindow()
    w.record("a@edge", "scan", 5)
    assert not w.test_and_record("a@edge", "scan", 5)
    assert w.test_and_record("a@edge", "scan", 4)  # unseen, within window


def test_dedupe_streams_are_independent():
    w = DedupeWindow()
    assert w.test_and_record("a@edge", "scan", 1)
    assert w.test_and_record("b@edge", "scan", 1)
    assert w.test_and_record("a@edge", "pose", 1)


def test_dedupe_too_old_counts_as_duplicate():
    w = DedupeWindow(capacity=16)
    w.record("a@edge", "scan", 100)
    # within the ring span: judgeable, fresh
    assert w.test_and_record("a@edge", "scan", 95)
    # at or below highest - capacity: ambiguous, dropped
    assert not w.test_and_record("a@edge", "scan", 84)
    assert not w.test_and_record("a@edge", "scan", 50)


def test_dedupe_ring_is_bounded():
    w = DedupeWindow(capacity=8)
    for seq in range(1, 100):
        assert w.test_and_record("a@edge", "scan", seq)
    assert w._streams[("a@edge", "scan")] == [99, 0, 1]  # highest, no holes, first
    # the last 8 sequences count as seen, no more
    seen = [w.seen("a@edge", "scan", v) for v in range(90, 101)]
    assert seen == [False] * 2 + [True] * 8 + [False]


def test_dedupe_in_order_streams_hold_no_holes():
    w = DedupeWindow()
    for seq in range(1, 5001):
        assert w.test_and_record("a@edge", "scan", seq)
        w.record("b@edge", "scan", seq)
        w.record("c@edge", "scan", seq - 1)  # from 0, below the implicit floor
    assert [st[1] for st in w._streams.values()] == [0, 0, 0]


def test_dedupe_remembers_every_marked_sequence_in_window():
    w = DedupeWindow(capacity=4)
    for seq in (5, 3, 6, 7, 8):
        assert w.test_and_record("a@edge", "scan", seq)
    # 5 is still inside the window (5..8); five marks since do not push it out
    assert w.seen("a@edge", "scan", 5)
    assert not w.test_and_record("a@edge", "scan", 5)
    assert not w.seen("a@edge", "scan", 3)  # older than the window: not reported
    assert not w.seen("b@edge", "scan", 5)


def test_dedupe_seen_never_marks():
    w = DedupeWindow()
    assert not w.seen("a@edge", "scan", 1)
    assert w.test_and_record("a@edge", "scan", 1)
    assert w.seen("a@edge", "scan", 1)
    assert not w.seen("a@edge", "scan", 2)
    assert w.test_and_record("a@edge", "scan", 2)


# -- flow table -------------------------------------------------------------


def decl(direction=ADVERTISE, topic="t", node="a", layer="edge", rate=0.0, size=0):
    return FlowDeclaration(
        direction=direction, topic=topic, origin_node=NodeId(layer, node),
        declared_rate=rate, declared_max_size=size,
    )


def test_table_store_and_merge():
    t = FlowTable()
    assert t.store(ADVERTISE, "s1", decl(rate=10.0, size=100), "svc1")
    # same declaration again: nothing changes
    assert not t.store(ADVERTISE, "s1", decl(rate=10.0, size=100), "svc1")
    # rate/size merge upward only
    assert t.store(ADVERTISE, "s1", decl(rate=20.0, size=50), "svc1")
    ent = t.entries[(ADVERTISE, "t", "a@edge", "s1")]
    assert ent.declared_rate == 20.0 and ent.declared_max_size == 100
    # a second contributor is a change
    assert t.store(ADVERTISE, "s1", decl(), "svc2")
    assert ent.contributors == {"svc1", "svc2"}


def test_table_remove_contributor_refcounts():
    t = FlowTable()
    t.store(REQUEST, "s1", decl(REQUEST), "svc1")
    t.store(REQUEST, "s1", decl(REQUEST), "svc2")
    assert not t.remove_contributor(REQUEST, "t", "a@edge", "svc1")
    assert (REQUEST, "t", "a@edge", "s1") in t.entries
    assert t.remove_contributor(REQUEST, "t", "a@edge", "svc2")
    assert t.entries == {}


def test_table_remove_unknown_is_noop():
    t = FlowTable()
    assert not t.remove_contributor(REQUEST, "t", "a@edge", "ghost")


def test_table_queries():
    t = FlowTable()
    t.store(ADVERTISE, "s1", decl(topic="x"), "svc1")
    t.store(REQUEST, "s2", decl(REQUEST, topic="x", node="b"), "svc2")
    t.store(ADVERTISE, "s1", decl(topic="y"), "svc1")
    assert t.topics() == ["x", "y"]
    assert set(t.lookup("x")) == {
        (ADVERTISE, "x", "a@edge", "s1"), (REQUEST, "x", "b@edge", "s2")}
    assert t.scopes(ADVERTISE, "x") == {"s1"}
    assert t.scopes(REQUEST, "x") == {"s2"}
    assert len(t.contributions("svc1")) == 2
    assert [e.origin_node.name for e in t.advertisers_at("x", "s1")] == ["a"]


# -- bridge computation -------------------------------------------------------


def test_bridges_empty_table():
    assert compute_required_bridges(FlowTable(), "t") == set()


def test_bridges_same_scope_needs_none():
    t = FlowTable()
    t.store(ADVERTISE, "intra_layer:edge", decl(), "s1")
    t.store(REQUEST, "intra_layer:edge", decl(REQUEST, node="b"), "s2")
    assert compute_required_bridges(t, "t") == set()


def test_bridges_cross_product_minus_diagonal():
    t = FlowTable()
    t.store(ADVERTISE, "intra_layer:A", decl(), "s1")
    t.store(ADVERTISE, "intra_layer:B", decl(node="b"), "s2")
    t.store(REQUEST, "intra_layer:B", decl(REQUEST, node="c"), "s3")
    t.store(REQUEST, "intra_layer:C", decl(REQUEST, node="d"), "s4")
    got = compute_required_bridges(t, "t")
    assert got == {
        ("t", "intra_layer:A", "intra_layer:B"),
        ("t", "intra_layer:A", "intra_layer:C"),
        ("t", "intra_layer:B", "intra_layer:C"),
        # (B, B) skipped: same scope
    }


def test_bridges_join_only_the_topics_own_rows():
    # another topic's advertiser or requester at a scope makes no bridge
    t = FlowTable()
    t.store(ADVERTISE, "intra_layer:A", decl(), "s1")
    t.store(ADVERTISE, "intra_layer:B", decl(topic="u", node="b"), "s2")
    t.store(REQUEST, "intra_layer:C", decl(REQUEST, node="c"), "s3")
    t.store(REQUEST, "intra_layer:D", decl(REQUEST, topic="u", node="d"), "s4")
    assert compute_required_bridges(t, "t") == {("t", "intra_layer:A", "intra_layer:C")}
    assert compute_required_bridges(t, "u") == {("u", "intra_layer:B", "intra_layer:D")}
    assert compute_required_bridges(t, "v") == set()


# -- engine harness ------------------------------------------------------------


class Mini:
    """Topology + network + one engine per layer, no service host.

    ``config`` holds layer-config overrides for every layer; a test may
    replace a layer's entry in ``bodies`` to change what its engine reads.
    With ``trace_path`` the trace is written there, readable after drain().
    """

    def __init__(self, spec, links=None, seed=0, config=None, trace_path=None):
        self.topology = build_topology(spec if links is None else {**spec, "links": links})
        self.clock = SimClock()
        self.rng = Random(seed)
        self.metrics = MetricsRegistry(self.clock)
        self.trace = Trace(trace_path)
        self.network = Network(self.topology, self.clock, self.rng, self.metrics, self.trace)
        self.bodies = {l: resolve_layer_config(config or {}) for l in self.topology.layers}
        self.engines = {
            l: FlowEngine(l, self.network, config=lambda ln=l: self.bodies[ln])
            for l in self.topology.layers
        }
        for e in self.engines.values():
            e.start()

    def settle(self, ms=100.0):
        self.clock.run_until(self.clock.now + int(ms * MS))

    def drain(self):
        self.clock.run_until_idle(200_000)
        self.trace.close()

    def bridge_keys(self, layer):
        return set(self.engines[layer].bridges)

    def publish(self, scope_key, topic, payload, node, seq=None):
        node_id = self.topology.node(node)
        env = MessageEnvelope(
            topic=topic, payload=payload, origin_node=node_id,
            sequence=seq if seq is not None else self.network.seqs[node].next(topic),
            sent_at=self.clock.now,
        )
        return self.network.endpoint(scope_key).publish(env)

    def collect(self, scope_key, topic):
        box = []
        self.network.endpoint(scope_key).subscribe(topic, box.append)
        return box


SPEC3 = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1", "robot-2"]},
        {"name": "fog", "nodes": ["fog-1"]},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}

SPEC_EXT = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1", "robot-2"], "external_protocol": True},
        {"name": "fog", "nodes": ["fog-1"], "external_protocol": True},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}


def test_two_layer_handshake_bridge_sets():
    w = Mini(SPEC3)
    w.engines["edge"].announce(
        decl(topic="topic1", node="robot-1", rate=10.0, size=256), service="service1")
    w.settle()
    w.engines["fog"].announce(
        decl(REQUEST, topic="topic1", node="fog-1", layer="fog"), service="service2")
    w.settle()
    assert w.bridge_keys("edge") == {
        ("topic1", "intra_node:robot-1@edge", "inter_layer:edge")}
    assert w.bridge_keys("fog") == {
        ("topic1", "inter_layer:fog", "intra_layer:fog")}
    assert w.bridge_keys("cloud") == set()
    w.drain()


def test_one_to_many_bridge_sets_with_external_scopes():
    w = Mini(SPEC_EXT)
    ext_edge = w.topology.external_scope("edge")
    ext_fog = w.topology.external_scope("fog")
    # one advertiser on the edge external scope, four requesters
    w.engines["edge"].announce(decl(topic="t1", node="robot-1"), "service1",
                               scope=ext_edge)
    w.settle()
    w.engines["edge"].announce(decl(REQUEST, topic="t1", node="robot-1"), "service2")
    w.engines["cloud"].announce(
        decl(REQUEST, topic="t1", node="cloud-1", layer="cloud"), "service2c")
    w.engines["edge"].announce(decl(REQUEST, topic="t1", node="robot-2"), "service3",
                               scope=ext_edge)
    w.engines["fog"].announce(
        decl(REQUEST, topic="t1", node="fog-1", layer="fog"), "service3f",
        scope=ext_fog)
    w.settle()
    assert w.bridge_keys("edge") == {
        ("t1", "external_protocol:edge", "intra_node:robot-1@edge"),
        ("t1", "external_protocol:edge", "inter_layer:edge"),
    }
    assert w.bridge_keys("cloud") == {("t1", "inter_layer:cloud", "intra_layer:cloud")}
    assert w.bridge_keys("fog") == {("t1", "inter_layer:fog", "external_protocol:fog")}

    # one publish reaches each requester scope exactly once
    boxes = {
        "same-node": w.collect("intra_node:robot-1@edge", "t1"),
        "same-ext": w.collect("external_protocol:edge", "t1"),
        "cloud": w.collect("intra_layer:cloud", "t1"),
        "fog-ext": w.collect("external_protocol:fog", "t1"),
    }
    w.publish("external_protocol:edge", "t1", b"payload", "robot-1")
    w.settle()
    assert {k: len(v) for k, v in boxes.items()} == {
        "same-node": 1, "same-ext": 1, "cloud": 1, "fog-ext": 1}
    w.drain()


def test_announce_is_idempotent():
    w = Mini(SPEC3)
    d = decl(topic="topic1", node="robot-1")
    created = w.engines["edge"].announce(d, "svc")
    w.settle()
    w.engines["fog"].announce(decl(REQUEST, topic="topic1", node="fog-1", layer="fog"), "req")
    w.settle()
    before = w.bridge_keys("edge")
    assert w.engines["edge"].announce(d, "svc") == []
    w.settle()
    assert w.bridge_keys("edge") == before
    w.drain()


def test_announce_rejects_foreign_scope():
    # rejected before anything is stored: `compute_required_bridges` relies
    # on every row's scope being one of the engine's
    w = Mini(SPEC3)
    engine = w.engines["edge"]
    with pytest.raises(FlowEngineError):
        engine.announce(
            decl(topic="t", node="robot-1"), "svc",
            scope=w.topology.intra_layer_scope("fog"))
    assert engine.table.entries == {}
    w.drain()


def test_withdraw_reverses_handshake():
    w = Mini(SPEC3)
    adv = decl(topic="topic1", node="robot-1")
    req = decl(REQUEST, topic="topic1", node="fog-1", layer="fog")
    w.engines["edge"].announce(adv, "service1")
    w.engines["fog"].announce(req, "service2")
    w.settle()
    assert w.bridge_keys("edge") and w.bridge_keys("fog")
    removed = w.engines["fog"].withdraw(req, "service2")
    w.settle()
    assert removed == [("topic1", "inter_layer:fog", "intra_layer:fog")]
    assert w.bridge_keys("fog") == set()
    # the flooded withdrawal dismantled the edge side too
    assert w.bridge_keys("edge") == set()
    w.drain()


def test_withdraw_respects_remaining_contributors():
    w = Mini(SPEC3)
    adv = decl(topic="t", node="robot-1")
    req = decl(REQUEST, topic="t", node="fog-1", layer="fog")
    w.engines["edge"].announce(adv, "svc-a")
    w.engines["fog"].announce(req, "req-1")
    w.engines["fog"].announce(req, "req-2")
    w.settle()
    assert w.engines["fog"].withdraw(req, "req-1") == []
    w.settle()
    assert len(w.bridge_keys("fog")) == 1
    assert w.engines["fog"].withdraw(req, "req-2") != []
    w.settle()
    assert w.bridge_keys("edge") == set() and w.bridge_keys("fog") == set()
    w.drain()


def test_withdraw_never_announced_is_noop():
    w = Mini(SPEC3)
    assert w.engines["edge"].withdraw(decl(REQUEST, topic="ghost", node="robot-1"), "s") == []
    w.drain()


def test_flood_crosses_each_layer_once(tmp_path):
    w = Mini(SPEC3, trace_path=tmp_path / "trace.jsonl")
    w.engines["edge"].announce(decl(topic="t", node="robot-1"), "svc")
    w.settle()
    # remote engines hold the declaration at their inter-layer scope
    for layer in ("fog", "cloud"):
        key = (ADVERTISE, "t", "robot-1@edge", f"inter_layer:{layer}")
        assert key in w.engines[layer].table.entries
    w.drain()
    # one flood, two crossings (fog and cloud), no re-forwarding
    assert len(records(tmp_path / "trace.jsonl", "xlink", topic=FLOW_ADVERTISE)) == 2


def bus_publishes(world):
    """Log every publish on an inter-layer scope as (control topic, layer of
    the publishing node, declared topic or None)."""
    log = []
    for layer in world.engines:
        ep = world.network.endpoint(world.topology.inter_layer_scope(layer))

        def publish(env, sender=None, publish=ep.publish):
            decl = None
            if env.topic.startswith("__flow/"):
                decl = declaration_from_body(json.loads(env.payload))[0].topic
            log.append((env.topic, env.origin_node.layer, decl))
            return publish(env, sender)
        ep.publish = publish
    return log


def test_each_local_declaration_crosses_the_bus_once():
    w = World(build_topology(SPEC3), seed=1)
    w.start()
    w.clock.run_until(SECOND)
    log = bus_publishes(w)
    remote = {layer: (ADVERTISE, "img", "robot-1@edge", f"inter_layer:{layer}")
              for layer in ("fog", "cloud")}

    def settle(ms, control_topic, stored):
        w.clock.run_until(w.clock.now + int(ms * MS))
        # one publish, by the origin layer's engine; the others forward nothing
        assert [entry for entry in log if entry[2] == "img"] == [(control_topic, "edge", "img")]
        for layer, key in remote.items():
            assert (key in w.engines[layer].table.entries) is stored
        log.clear()

    cam = w.host.start_service("robot-1", "cam", advertises=[Advertise("img", 5.0)])
    settle(100, FLOW_ADVERTISE, True)
    w.host.stop_service(cam)
    settle(100, FLOW_WITHDRAW, False)
    cam = w.host.start_service("robot-1", "cam", advertises=[Advertise("img", 5.0)])
    settle(100, FLOW_ADVERTISE, True)
    # a crash leaves the withdrawal to the edge engine's watchdog
    w.host.kill_service(cam)
    settle(5_000, FLOW_WITHDRAW, False)
    w.drain()
    assert w.issues() == []


def bus_payloads(world):
    """Log the payload of every declaration published on an inter-layer
    scope, as the object published."""
    log = []
    for layer in world.engines:
        ep = world.network.endpoint(world.topology.inter_layer_scope(layer))

        def publish(env, sender=None, publish=ep.publish):
            if env.topic.startswith("__flow/"):
                log.append(env.payload)
            return publish(env, sender)
        ep.publish = publish
    return log


def test_a_service_declaration_reaches_the_bus_as_the_bytes_it_sent():
    decode_declaration.cache_clear()  # an earlier test may hold equal bytes
    w = World(build_topology(SPEC3), seed=1)
    w.start()
    log = bus_payloads(w)
    cam = w.host.start_service("robot-1", "cam", advertises=[Advertise("img", 5.0)])
    w.clock.run_until(w.clock.now + 100 * MS)
    (sent,) = [payload for _, payload in cam.declarations]
    assert len(log) == 1 and log[0] is sent
    w.drain()


def test_a_non_canonical_declaration_is_flooded_as_canonical_bytes():
    w = World(build_topology(SPEC3), seed=1)
    w.start()
    log = bus_payloads(w)
    # keys out of order and spaces where sorted-key JSON has none
    hand_made = (b'{ "service" : "cam", "decl" : {"topic": "img", "direction": "advertise",'
                 b' "origin_node": ["edge", "robot-1"], "declared_max_size": 0,'
                 b' "declared_rate": 5.0} }')
    node = w.topology.node("robot-1")
    w.network.endpoint(w.topology.default_scope_for("robot-1")).publish(control_envelope(
        FLOW_ADVERTISE, hand_made, node, w.network.seqs["robot-1"], w.clock.now))
    w.clock.run_until(w.clock.now + 100 * MS)
    canonical = json.dumps({"decl": {
        "direction": "advertise", "topic": "img", "origin_node": ["edge", "robot-1"],
        "declared_rate": 5.0, "declared_max_size": 0}, "service": "cam"}, sort_keys=True)
    assert log == [canonical.encode()]
    w.drain()


def test_a_re_announce_decodes_nothing_new(monkeypatch):
    decode_declaration.cache_clear()
    decodes = []
    from_obj = FlowDeclaration.from_obj.__func__

    def counted(cls, obj):
        decodes.append(obj["topic"])
        return from_obj(cls, obj)
    monkeypatch.setattr(FlowDeclaration, "from_obj", classmethod(counted))
    w = World(build_topology(SPEC3), seed=1)
    w.start()
    w.host.start_service("robot-1", "cam", advertises=[Advertise("img", 5.0)],
                         requests=["cmd"])
    w.host.start_service("fog-1", "planner", advertises=[Advertise("cmd", 2.0)],
                         requests=["img"])
    w.clock.run_until(w.clock.now + SECOND)
    assert sorted(decodes) == ["cmd", "cmd", "img", "img"]  # each payload once
    log = bus_payloads(w)
    decodes.clear()
    period = w.workers["edge"].get_config().body["flow"]["reannounce_s"]
    w.clock.run_until(w.clock.now + ns_from_s(period))
    assert len(log) == 4 and decodes == []  # four re-announced, none decoded again
    w.drain()
    assert w.issues() == []


def test_one_layer_world_floods_nothing_on_its_inter_layer_scope():
    w = World(build_topology({"layers": [{"name": "edge", "nodes": ["robot-1", "robot-2"]}]}),
              seed=1)
    log = bus_publishes(w)
    w.start()
    cam = w.host.start_service("robot-1", "cam", advertises=[Advertise("img", 5.0)])
    w.host.start_service("robot-2", "viewer", requests=["img"])
    w.clock.run_until(2 * SECOND)
    w.host.stop_service(cam)
    w.clock.run_until(12 * SECOND)
    assert w.engines["edge"].bridges == {}
    w.drain()
    # config pulls still use the scope; flow control has no other layer to reach
    assert [entry for entry in log if entry[0].startswith("__flow/")] == []
    assert any(entry[0] == CONFIG_REQUEST for entry in log)
    assert w.issues() == []


def test_message_crosses_layers_exactly_once():
    w = Mini(SPEC3)
    w.engines["edge"].announce(decl(topic="t", node="robot-1", rate=5.0, size=64), "adv")
    w.engines["fog"].announce(decl(REQUEST, topic="t", node="fog-1", layer="fog"), "req")
    w.settle()
    box = w.collect("intra_layer:fog", "t")
    # publish at the declared rate so the limiter stays satisfied
    for i in range(5):
        w.publish("intra_node:robot-1@edge", "t", b"x" * 64, "robot-1")
        w.settle(200)
    assert [e.sequence for e in box] == [1, 2, 3, 4, 5]
    assert w.metrics.totals("flow.drop.dedupe", "topic") == {}
    w.drain()


def test_echo_loop_closed_when_both_sides_advertise_and_request(tmp_path):
    w = Mini(SPEC3, trace_path=tmp_path / "trace.jsonl")
    # both layers advertise and request the same topic: bridges run both ways
    w.engines["edge"].announce(decl(topic="t", node="robot-1", rate=5.0), "edge-svc")
    w.engines["edge"].announce(decl(REQUEST, topic="t", node="robot-1"), "edge-svc")
    w.engines["fog"].announce(decl(topic="t", node="fog-1", layer="fog", rate=5.0), "fog-svc")
    w.engines["fog"].announce(decl(REQUEST, topic="t", node="fog-1", layer="fog"), "fog-svc")
    w.settle()
    edge_box = w.collect("intra_node:robot-1@edge", "t")
    fog_box = w.collect("intra_layer:fog", "t")
    w.publish("intra_node:robot-1@edge", "t", b"ping", "robot-1")
    w.settle(500)
    # each requester scope saw the message exactly once; the echo path
    # (fog republishing it back toward the bus) was absorbed by dedupe
    assert len(edge_box) == 1 and len(fog_box) == 1
    assert w.metrics.totals("flow.drop.dedupe", "topic")["t"] >= 1
    w.drain()
    # and it crossed to fog exactly once
    assert len(records(tmp_path / "trace.jsonl", "xlink",
                       topic="t", frm="edge", to="fog")) == 1


def test_inter_bridge_applies_rate_limit():
    w = Mini(SPEC3, config={"rate_limit": {"limit_mbps": 8.0}})
    w.engines["edge"].announce(
        decl(topic="img", node="robot-1", rate=0.0, size=1_000_000), "cam")
    w.engines["fog"].announce(decl(REQUEST, topic="img", node="fog-1", layer="fog"), "viewer")
    w.settle()
    limiter = w.engines["edge"].limiters["node:robot-1"]
    # 8 Mbit/s cannot carry 1 MB frames: lifted to the floor, overcommitted
    rates, remaining = allocate(limiter.cfg, limiter.records)
    assert limiter.records["img"][1] >= limiter.cfg.large_threshold
    assert rates["img"] == limiter.cfg.min_rate_hz and remaining < 0
    box = w.collect("intra_layer:fog", "img")
    for _ in range(5):  # burst: capacity 2 grants, 3 denials
        w.publish("intra_node:robot-1@edge", "img", b"z" * 1_000_000, "robot-1")
    w.settle(30_000)
    assert len(box) == 2
    assert w.metrics.totals("flow.drop.limiter", "topic")["img"] == 3
    w.drain()


def test_limiter_client_is_node_for_intra_node_sources():
    w = Mini(SPEC3)
    w.engines["edge"].announce(decl(topic="a", node="robot-1", rate=1.0), "s1")
    w.engines["edge"].announce(
        decl(topic="b", node="robot-2", rate=1.0), "s2",
        scope=w.topology.intra_node_scope("robot-2"))
    w.engines["cloud"].announce(
        decl(REQUEST, topic="a", node="cloud-1", layer="cloud"), "r1")
    w.engines["cloud"].announce(
        decl(REQUEST, topic="b", node="cloud-1", layer="cloud"), "r2")
    w.settle()
    # each edge node is its own traffic client with its own budget
    assert set(w.engines["edge"].limiters) == {"node:robot-1", "node:robot-2"}
    assert set(w.engines["edge"].limiters["node:robot-1"].records) == {"a"}
    w.drain()


def test_one_client_registers_the_larger_size_of_two_advertisers():
    # a layer's intra-layer and external scopes feed one traffic client:
    # its record of a topic sums the rates and keeps the larger size
    w = Mini(SPEC_EXT)
    edge = w.engines["edge"]
    edge.announce(decl(topic="t", node="robot-1", rate=1.0, size=100), "s1",
                  scope=w.topology.intra_layer_scope("edge"))
    edge.announce(decl(topic="t", node="robot-2", rate=2.0, size=300), "s2",
                  scope=w.topology.external_scope("edge"))
    w.engines["cloud"].announce(decl(REQUEST, topic="t", node="cloud-1", layer="cloud"), "r1")
    w.settle()
    assert len(edge.bridges) == 2
    assert {client: lim.records for client, lim in edge.limiters.items()} == {
        "layer:edge": {"t": (3.0, 300)}}
    w.drain()


def test_limiters_match_the_table_when_the_bridge_gauge_raises(monkeypatch):
    # a reconcile observes the bridge count last: an observe that raises
    # leaves every bridge it installed registered with its client's limiter
    w = Mini(SPEC3)
    edge = w.engines["edge"]
    edge.announce(decl(topic="a", node="robot-1", rate=5.0, size=100), "s1")
    observe = w.metrics.observe

    def failing(name, labels, value):
        if name == "flow.bridges":
            raise OverflowError("value too large for a float")
        observe(name, labels, value)

    monkeypatch.setattr(w.metrics, "observe", failing)
    with pytest.raises(OverflowError):
        edge.announce(decl(REQUEST, topic="a", node="cloud-1", layer="cloud"), "r1",
                      scope=edge.inter_scope)
    regs = oracle_limiter_regs(edge)
    assert regs == {"node:robot-1": {"a": (5.0, 100)}}
    assert {client: lim.records for client, lim in edge.limiters.items()} == regs
    monkeypatch.undo()
    w.drain()


def test_large_payloads_cross_compressed_and_arrive_intact():
    w = Mini(SPEC3)
    payload = synthetic_corpus(200_000)
    w.engines["edge"].announce(
        decl(topic="big", node="robot-1", rate=1.0, size=len(payload)), "src")
    w.engines["fog"].announce(decl(REQUEST, topic="big", node="fog-1", layer="fog"), "dst")
    w.settle()
    wire = w.collect("inter_layer:fog", "big")  # taps the bus arrival form
    box = w.collect("intra_layer:fog", "big")
    w.publish("intra_node:robot-1@edge", "big", payload, "robot-1")
    w.settle(5_000)
    assert len(wire) == 1 and wire[0].compressed
    assert wire[0].payload_len < len(payload)
    assert wire[0].uncompressed_len == len(payload)
    assert len(box) == 1 and not box[0].compressed
    assert box[0].payload == payload
    w.drain()


def test_a_payload_of_exactly_the_large_threshold_crosses_compressed():
    w = Mini(SPEC3)
    payload = synthetic_corpus(65_536)
    assert len(payload) == w.engines["edge"].limit_cfg.large_threshold
    w.engines["edge"].announce(
        decl(topic="big", node="robot-1", rate=1.0, size=len(payload)), "src")
    w.engines["fog"].announce(decl(REQUEST, topic="big", node="fog-1", layer="fog"), "dst")
    w.settle()
    wire = w.collect("inter_layer:fog", "big")
    w.publish("intra_node:robot-1@edge", "big", payload, "robot-1")
    w.settle(5_000)
    assert len(wire) == 1 and wire[0].compressed
    assert wire[0].uncompressed_len == len(payload)
    w.drain()


def test_incompressible_large_payloads_ship_original():
    w = Mini(SPEC3)
    payload = Random(7).randbytes(100_000)
    w.engines["edge"].announce(
        decl(topic="noise", node="robot-1", rate=1.0, size=len(payload)), "src")
    w.engines["fog"].announce(decl(REQUEST, topic="noise", node="fog-1", layer="fog"), "dst")
    w.settle()
    wire = w.collect("inter_layer:fog", "noise")
    w.publish("intra_node:robot-1@edge", "noise", payload, "robot-1")
    w.settle(5_000)
    assert len(wire) == 1 and not wire[0].compressed
    assert wire[0].payload == payload
    w.drain()


def test_small_payloads_never_compressed():
    w = Mini(SPEC3)
    payload = synthetic_corpus(1024)  # compressible but below the threshold
    w.engines["edge"].announce(decl(topic="s", node="robot-1", rate=1.0, size=1024), "src")
    w.engines["fog"].announce(decl(REQUEST, topic="s", node="fog-1", layer="fog"), "dst")
    w.settle()
    wire = w.collect("inter_layer:fog", "s")
    w.publish("intra_node:robot-1@edge", "s", payload, "robot-1")
    w.settle(5_000)
    assert len(wire) == 1 and not wire[0].compressed
    w.drain()


def test_compression_disabled_at_level_zero():
    w = Mini(SPEC3, config={"rate_limit": {"compression_level": 0}})
    payload = synthetic_corpus(200_000)
    w.engines["edge"].announce(
        decl(topic="big", node="robot-1", rate=1.0, size=len(payload)), "src")
    w.engines["fog"].announce(decl(REQUEST, topic="big", node="fog-1", layer="fog"), "dst")
    w.settle()
    wire = w.collect("inter_layer:fog", "big")
    w.publish("intra_node:robot-1@edge", "big", payload, "robot-1")
    w.settle(5_000)
    assert len(wire) == 1 and not wire[0].compressed
    w.drain()


def test_a_republished_payload_is_compressed_and_decompressed_once(monkeypatch):
    calls = []
    for name in ("compress", "decompress"):
        def counted(*args, real=getattr(codec, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(codec, name, counted)
    w = Mini(SPEC3)
    payload = synthetic_corpus(200_000)
    w.engines["edge"].announce(
        decl(topic="big", node="robot-1", rate=1.0, size=len(payload)), "src")
    w.engines["fog"].announce(decl(REQUEST, topic="big", node="fog-1", layer="fog"), "dst")
    w.settle()
    wire = w.collect("inter_layer:fog", "big")
    box = w.collect("intra_layer:fog", "big")
    for _ in range(2):  # one bytes object, published twice
        w.publish("intra_node:robot-1@edge", "big", payload, "robot-1")
        w.settle(1_000)
    assert calls == ["compress", "decompress"]
    assert wire[0].payload is wire[1].payload and wire[0].compressed
    assert [e.payload for e in box] == [payload, payload]

    # a changed compression level misses the memo
    w.bodies["edge"] = resolve_layer_config({"rate_limit": {"compression_level": 1}})
    notice = {"layer": "edge", "revision": 2, "changed_paths": ["rate_limit.compression_level"]}
    w.publish("intra_layer:edge", CONFIG_NOTICE, json.dumps(notice).encode(), "robot-1")
    w.settle()
    w.publish("intra_node:robot-1@edge", "big", payload, "robot-1")
    w.settle(1_000)
    assert calls == ["compress", "decompress"] * 2
    assert wire[2].payload != wire[1].payload and box[2].payload == payload
    w.drain()


def test_watchdog_withdraws_dead_service(tmp_path):
    w = Mini(SPEC3, trace_path=tmp_path / "trace.jsonl")
    adv = decl(topic="t", node="robot-1", rate=1.0)
    w.engines["edge"].heartbeats.refresh("cam", "robot-1", ns_from_s(3.0))
    w.engines["edge"].announce(adv, "cam")
    w.engines["fog"].announce(decl(REQUEST, topic="t", node="fog-1", layer="fog"), "mon")
    # keep the requester alive throughout
    w.engines["fog"].heartbeats.refresh("mon", "fog-1", ns_from_s(3600.0))
    w.settle()
    assert w.bridge_keys("edge")
    # cam never refreshes again; ttl 3 s + 1 s watchdog period
    w.settle(6_000)
    assert w.bridge_keys("edge") == set()
    assert w.bridge_keys("fog") == set()
    as_key = (ADVERTISE, "t", "robot-1@edge", "intra_node:robot-1@edge")
    assert as_key not in w.engines["edge"].table.entries
    w.drain()
    assert len(records(tmp_path / "trace.jsonl", "watchdog_withdraw", service="cam")) == 1


def test_config_notice_reconfigures_limiters(tmp_path):
    w = Mini(SPEC3, trace_path=tmp_path / "trace.jsonl")
    w.engines["edge"].announce(decl(topic="img", node="robot-1", size=1_000_000), "cam")
    w.engines["fog"].announce(decl(REQUEST, topic="img", node="fog-1", layer="fog"), "mon")
    w.settle()
    r160 = w.engines["edge"].limiters["node:robot-1"].buckets["img"].rate

    w.bodies["edge"] = resolve_layer_config({"rate_limit": {"limit_mbps": 80.0}})
    notice = {"layer": "edge", "revision": 2, "changed_paths": ["rate_limit.limit_mbps"]}
    w.publish("intra_layer:edge", CONFIG_NOTICE, json.dumps(notice).encode(), "robot-1")
    w.settle()
    assert w.engines["edge"].limit_cfg.limit_mbps == 80.0
    r80 = w.engines["edge"].limiters["node:robot-1"].buckets["img"].rate
    assert r80 == pytest.approx(r160 / 2)
    first_done = w.clock.now

    # a notice that leaves the rate limit as it is reconfigures nothing
    unrelated = {"layer": "edge", "revision": 3, "changed_paths": ["flow.reannounce_s"]}
    w.publish("intra_layer:edge", CONFIG_NOTICE, json.dumps(unrelated).encode(), "robot-1")
    w.settle()
    w.drain()
    # one reconfig, by the first notice
    assert [(r["layer"], r["at"] <= first_done)
            for r in records(tmp_path / "trace.jsonl", "limit_reconfig")] == [("edge", True)]


def test_pushed_flow_periods_reach_the_engine():
    w = World(build_topology({"layers": [{"name": "edge", "nodes": ["robot-1"]},
                                         {"name": "cloud", "nodes": ["cloud-1"]}]}), seed=3)
    w.start()
    w.store.put("edge", resolve_layer_config(
        {"flow": {"watchdog_s": 2.0, "heartbeat_ttl_s": 6.0}}))
    w.run_for(12.0)
    w.drain()  # ends the scans, each of which refreshed the engine's own heartbeat
    assert w.issues() == []

    def engine_live(layer):
        engine = w.engines[layer]
        return engine.heartbeats.live(engine.service_name, engine.system_node.name)

    # the edge document applies in the first 20 ms, so edge scans ran at
    # 1 s, then every 2 s up to 11 s, and the last one set a 6 s TTL; the
    # cloud kept its 1 s scans, the last at 12 s, and its 3 s TTL
    w.clock.run_until(15 * SECOND)
    assert engine_live("edge") and engine_live("cloud")
    w.clock.run_until(15 * SECOND + 1)
    assert engine_live("edge") and not engine_live("cloud")
    w.clock.run_until(17 * SECOND)
    assert engine_live("edge")
    w.clock.run_until(17 * SECOND + 1)
    assert not engine_live("edge")


def test_convergence_is_order_independent():
    def build(order):
        w = Mini(SPEC3)
        actions = {
            "a": lambda: w.engines["edge"].announce(
                decl(topic="t", node="robot-1", rate=3.0), "adv"),
            "r1": lambda: w.engines["fog"].announce(
                decl(REQUEST, topic="t", node="fog-1", layer="fog"), "req1"),
            "r2": lambda: w.engines["cloud"].announce(
                decl(REQUEST, topic="t", node="cloud-1", layer="cloud"), "req2"),
        }
        for step in order:
            actions[step]()
            w.settle(20)
        w.settle()
        out = {l: w.bridge_keys(l) for l in ("edge", "fog", "cloud")}
        w.drain()
        return out

    first = build(["a", "r1", "r2"])
    assert build(["r2", "r1", "a"]) == first
    assert build(["r1", "a", "r2"]) == first
    assert first["edge"] == {("t", "intra_node:robot-1@edge", "inter_layer:edge")}
