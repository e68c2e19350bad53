"""Unit tests for the deterministic event clock and simulated network."""

from random import Random

import pytest

from flowbridge.monitor import MetricsRegistry
from flowbridge.simnet import (
    DEFAULT_LINKS,
    MS,
    SECOND,
    LinkSpec,
    LinkState,
    Network,
    SimClock,
    ns_from_ms,
    ns_from_s,
)
from flowbridge.topology import MessageEnvelope, NodeId, build_topology
from flowbridge.tracing import Trace

TOPO = build_topology(
    {
        "layers": [
            {"name": "edge", "nodes": ["robot-1", "robot-2"]},
            {"name": "fog", "nodes": ["fog-1"]},
            {"name": "cloud", "nodes": ["cloud-1"]},
        ]
    }
)


def env(topic="scan", payload=b"x" * 100, seq=1, sent_at=0):
    return MessageEnvelope(
        topic=topic,
        payload=payload,
        origin_node=NodeId("edge", "robot-1"),
        origin_layer="edge",
        sequence=seq,
        sent_at=sent_at,
    )


# -- clock ---------------------------------------------------------------


def test_time_conversions():
    assert ns_from_ms(1.5) == 1_500_000
    assert ns_from_s(2.0) == 2 * SECOND
    assert MS * 1000 == SECOND


def test_clock_runs_in_time_order():
    clock = SimClock()
    seen = []
    clock.schedule(30, seen.append, "c")
    clock.schedule(10, seen.append, "a")
    clock.schedule(20, seen.append, "b")
    clock.run_until(25)
    assert seen == ["a", "b"]
    assert clock.now == 25
    clock.run_until(30)
    assert seen == ["a", "b", "c"]


def test_clock_ties_resolve_by_scheduling_order():
    clock = SimClock()
    seen = []
    for tag in "abc":
        clock.schedule(5, seen.append, tag)
    clock.run_until(5)
    assert seen == ["a", "b", "c"]


def test_clock_past_schedules_clamp_to_now():
    clock = SimClock()
    clock.run_until(100)
    seen = []
    clock.schedule(50, lambda: seen.append(clock.now))
    clock.run_until(100)
    assert seen == [100]


def test_call_in_negative_delay_clamps():
    clock = SimClock()
    clock.run_until(10)
    seen = []
    clock.call_in(-5, lambda: seen.append(clock.now))
    clock.run_until_idle()
    assert seen == [10]


def test_events_can_schedule_more_events():
    clock = SimClock()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            clock.call_in(10, chain, n + 1)

    clock.schedule(0, chain, 1)
    clock.run_until_idle()
    assert seen == [1, 2, 3]
    assert clock.now == 20


def test_run_until_idle_guard():
    clock = SimClock()

    def forever():
        clock.call_in(1, forever)

    clock.schedule(0, forever)
    with pytest.raises(RuntimeError):
        clock.run_until_idle(max_events=100)


# -- link specs ----------------------------------------------------------


def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec(latency_ms=-1)
    with pytest.raises(ValueError):
        LinkSpec(loss=1.5)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_mbps=-1)
    with pytest.raises(ValueError):
        LinkSpec().merged({"speed": 1})


def test_link_spec_merge_keeps_unset_fields():
    base = LinkSpec(latency_ms=10.0, loss=0.5)
    out = base.merged({"latency_ms": 20.0})
    assert out == LinkSpec(latency_ms=20.0, loss=0.5)
    assert base.loss == 0.5


def test_serialization_time_exact():
    # 1 MB at 160 Mbit/s is exactly 50 ms on the wire
    link = LinkState("l", LinkSpec(bandwidth_mbps=160.0))
    assert link.charge(1_000_000, 0) == 50 * MS


def test_link_charge_is_fifo():
    link = LinkState("l", LinkSpec(bandwidth_mbps=8.0))  # 1000 ns per byte
    assert link.charge(100, 0) == 100_000
    # second frame queues behind the first
    assert link.charge(100, 50_000) == 200_000
    # after the backlog clears, starts at now
    assert link.charge(100, 500_000) == 600_000


def test_unlimited_bandwidth_is_instant():
    link = LinkState("l", LinkSpec(bandwidth_mbps=0.0))
    assert link.charge(10**9, 42) == 42


# -- network construction -------------------------------------------------


def make_net(links=None, seed=0):
    clock = SimClock()
    rng = Random(seed)
    metrics = MetricsRegistry(clock)
    net = Network(TOPO, clock, rng, metrics, Trace(enabled=True), links)
    return net, clock, metrics


def test_network_builds_all_endpoints():
    net, _, _ = make_net()
    assert set(net.endpoints) == set(TOPO.scopes)
    assert net.endpoint("intra_layer:fog").scope.key == "intra_layer:fog"
    assert net.endpoint(TOPO.intra_node_scope("robot-1")).scope.node == "robot-1"


def test_network_link_overrides():
    net, _, _ = make_net(
        links={
            "defaults": {"intra_node": {"latency_ms": 5.0}},
            "scopes": {"intra_node:robot-2@edge": {"latency_ms": 9.0}},
            "crossings": [{"between": ["edge", "cloud"], "latency_ms": 50.0}],
        }
    )
    assert net.local_links["intra_node:robot-1@edge"].spec.latency_ms == 5.0
    assert net.local_links["intra_node:robot-2@edge"].spec.latency_ms == 9.0
    assert net.local_links["intra_layer:edge"].spec == DEFAULT_LINKS["intra_layer"]
    assert net.crossings[("edge", "cloud")].spec.latency_ms == 50.0
    assert net.crossings[("cloud", "edge")].spec.latency_ms == 50.0
    assert net.crossings[("edge", "fog")].spec == DEFAULT_LINKS["crossing"]


def test_network_rejects_bad_link_specs():
    with pytest.raises(ValueError):
        make_net(links={"wires": {}})
    with pytest.raises(ValueError):
        make_net(links={"defaults": {"warp": {}}})
    with pytest.raises(ValueError):
        make_net(links={"scopes": {"intra_layer:mist": {}}})
    with pytest.raises(ValueError):
        make_net(links={"crossings": [{"latency_ms": 1}]})
    with pytest.raises(ValueError):
        make_net(links={"crossings": [{"between": ["edge", "edge"], "latency_ms": 1}]})


# -- transport ------------------------------------------------------------


def test_local_delivery_latency_and_counters():
    net, clock, metrics = make_net(
        links={"defaults": {"intra_layer": {"latency_ms": 3.0, "bandwidth_mbps": 0.0}}}
    )
    got = []
    ep = net.endpoint("intra_layer:edge")
    ep.subscribe("scan", lambda e: got.append((clock.now, e)))
    assert ep.publish(env()) == 1
    assert got == []  # nothing delivered synchronously
    clock.run_until_idle()
    assert [(t, e.topic) for t, e in got] == [(3 * MS, "scan")]
    assert metrics.counter_value("flow.offered", {"topic": "scan"}) == 1
    assert metrics.counter_value("flow.delivered", {"topic": "scan"}) == 1


def test_publish_without_subscribers_offers_nothing():
    net, clock, metrics = make_net()
    assert net.endpoint("intra_layer:edge").publish(env()) == 0
    clock.run_until_idle()
    assert metrics.counter_value("flow.offered", {"topic": "scan"}) == 0


def test_bandwidth_charged_once_per_publish():
    net, clock, metrics = make_net(
        links={"defaults": {"intra_layer": {"bandwidth_mbps": 8.0, "latency_ms": 0.0}}}
    )
    ep = net.endpoint("intra_layer:edge")
    got = []
    for _ in range(3):
        ep.subscribe("scan", lambda e: got.append(clock.now))
    ep.publish(env(payload=b"x" * 1000))  # 1 ms serialization at 8 Mbit/s
    clock.run_until_idle()
    assert got == [MS, MS, MS]
    assert metrics.counter_value("link.bytes", {"link": "intra_layer:edge"}) == 1000
    assert metrics.counter_value("link.msgs", {"link": "intra_layer:edge"}) == 1


def test_serialization_backlog_delays_later_publishes():
    net, clock, _ = make_net(
        links={"defaults": {"intra_layer": {"bandwidth_mbps": 8.0, "latency_ms": 0.0}}}
    )
    ep = net.endpoint("intra_layer:edge")
    got = []
    ep.subscribe("scan", lambda e: got.append((clock.now, e.sequence)))
    ep.publish(env(payload=b"x" * 1000, seq=1))
    ep.publish(env(payload=b"x" * 1000, seq=2))
    clock.run_until_idle()
    assert got == [(MS, 1), (2 * MS, 2)]


def test_total_loss_drops_every_copy():
    net, clock, metrics = make_net(links={"defaults": {"intra_layer": {"loss": 1.0}}})
    ep = net.endpoint("intra_layer:edge")
    got = []
    ep.subscribe("scan", got.append)
    ep.publish(env())
    clock.run_until_idle()
    assert got == []
    assert metrics.counter_value("flow.offered", {"topic": "scan"}) == 1
    assert metrics.sum_counter("flow.drop.loss", {"topic": "scan"}) == 1


def test_loss_rate_tracks_probability():
    net, clock, metrics = make_net(links={"defaults": {"intra_node": {"loss": 0.2}}}, seed=5)
    ep = net.endpoint("intra_node:robot-1@edge")
    ep.subscribe("scan", lambda e: None)
    for i in range(2000):
        ep.publish(env(seq=i + 1))
    clock.run_until_idle()
    dropped = metrics.sum_counter("flow.drop.loss", {"topic": "scan"})
    # binomial(2000, 0.2): mean 400, sigma ~17.9; allow 5 sigma
    assert 310 <= dropped <= 490


def test_jitter_spreads_but_never_negative():
    net, clock, _ = make_net(
        links={"defaults": {"intra_layer": {"latency_ms": 1.0, "jitter_ms": 2.0}}},
        seed=3,
    )
    ep = net.endpoint("intra_layer:edge")
    times = []
    ep.subscribe("scan", lambda e: times.append(clock.now))
    base = 0
    for i in range(500):
        clock.run_until(base)
        ep.publish(env(seq=i + 1))
        base += 10 * MS
    clock.run_until_idle()
    deltas = [t % (10 * MS) for t in times]
    assert len(set(deltas)) > 100  # jitter actually varies
    assert all(0 <= d <= 3 * MS for d in deltas)  # clamped at 0, max 1+2 ms


def test_inter_layer_bus_charges_only_matching_layers():
    net, clock, metrics = make_net(
        links={
            "crossings": [
                {"between": ["edge", "cloud"], "latency_ms": 30.0},
                {"between": ["edge", "fog"], "latency_ms": 7.0},
            ]
        }
    )
    got = []
    net.endpoint("inter_layer:cloud").subscribe("scan", lambda e: got.append(clock.now))
    net.endpoint("inter_layer:edge").publish(env(payload=b"x" * 100))
    clock.run_until_idle()
    assert got == [30 * MS]
    assert metrics.counter_value("link.msgs", {"link": "edge->cloud"}) == 1
    # fog had no subscriber: its crossing stays idle
    assert metrics.counter_value("link.msgs", {"link": "edge->fog"}) == 0
    xlinks = list(net.trace.select("xlink"))
    assert len(xlinks) == 1 and xlinks[0]["to"] == "cloud"


def test_inter_layer_bus_reaches_all_matching_layers():
    net, clock, _ = make_net()
    got = []
    net.endpoint("inter_layer:fog").subscribe("scan", lambda e: got.append("fog"))
    net.endpoint("inter_layer:cloud").subscribe("scan", lambda e: got.append("cloud"))
    n = net.endpoint("inter_layer:edge").publish(env())
    assert n == 2
    clock.run_until_idle()
    assert sorted(got) == ["cloud", "fog"]


def test_callback_errors_are_contained_and_reported():
    net, clock, metrics = make_net()
    ep = net.endpoint("intra_layer:edge")
    got = []

    def boom(e):
        raise RuntimeError("bad subscriber")

    ep.subscribe("scan", boom)
    ep.subscribe("scan", got.append)
    ep.publish(env())
    clock.run_until_idle()
    assert len(got) == 1
    errs = net.endpoint_errors()
    assert len(errs) == 1 and errs[0][0] == "intra_layer:edge" and errs[0][1] == "scan"
    assert metrics.counter_value("broker.callback_error", {"scope": "intra_layer:edge"}) == 1


def run_noisy_world(seed):
    net, clock, metrics = make_net(
        links={
            "defaults": {"intra_layer": {"latency_ms": 2.0, "jitter_ms": 1.0, "loss": 0.05}}
        },
        seed=seed,
    )
    log = []
    ep = net.endpoint("intra_layer:edge")
    ep.subscribe("scan", lambda e: log.append((clock.now, e.sequence)))
    ep.subscribe("scan", lambda e: log.append((clock.now, -e.sequence)))
    for i in range(300):
        clock.schedule(i * MS, lambda s=i: ep.publish(env(seq=s + 1)))
    clock.run_until_idle()
    return log, metrics.snapshot()


def test_same_seed_replays_identically():
    log_a, snap_a = run_noisy_world(seed=11)
    log_b, snap_b = run_noisy_world(seed=11)
    assert log_a == log_b
    assert snap_a == snap_b


def test_different_seed_diverges():
    log_a, _ = run_noisy_world(seed=11)
    log_b, _ = run_noisy_world(seed=12)
    assert log_a != log_b
