"""Unit tests for the deterministic event clock and simulated network."""

import gc
import itertools
import tempfile
import tracemalloc
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowbridge.broker import SUB_BRIDGE, SUB_USER, BrokerEndpoint
from flowbridge.fields import read
from flowbridge.monitor import MetricsRegistry
from flowbridge.simnet import (
    MS,
    SECOND,
    LinkState,
    Network,
    SimClock,
    ns_from_ms,
    ns_from_s,
)
from flowbridge.topology import (
    DEFAULT_LINKS,
    MAX_S,
    LinkSpec,
    MessageEnvelope,
    NodeId,
    TopologyError,
    build_topology,
)
from flowbridge.tracing import Trace
from oracles import (
    OracleFlagTimer,
    OracleHeapClock,
    OracleSubscriptions,
    install_per_copy_dispatch,
    oracle_drain,
)
from tracefile import records

SPEC = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1", "robot-2"]},
        {"name": "fog", "nodes": ["fog-1"]},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}
TOPO = build_topology(SPEC)


def env(topic="scan", payload=b"x" * 100, seq=1, sent_at=0):
    return MessageEnvelope(
        topic=topic,
        payload=payload,
        origin_node=NodeId("edge", "robot-1"),
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
    for t in range(3):
        clock.schedule(t, lambda: None)
    assert clock.run_until_idle(max_events=3) == 3

    def forever():
        clock.call_in(1, forever)

    clock.schedule(0, forever)
    with pytest.raises(RuntimeError, match="after 100 events"):
        clock.run_until_idle(max_events=100)
    assert clock.events_processed == 103
    # the 101st event is left queued
    assert sum(map(len, clock._queues.values())) == 1


def test_an_event_that_raises_is_counted_and_the_queue_resumes():
    clock = SimClock()
    seen = []

    def boom():
        raise ValueError("boom")

    clock.schedule(5, seen.append, "a")
    clock.schedule(10, boom)
    clock.schedule(10, seen.append, "b")
    clock.schedule(20, seen.append, "c")
    with pytest.raises(ValueError):
        clock.run_until(30)
    assert (clock.events_processed, clock.now, seen) == (2, 10, ["a"])
    assert clock.run_until(30) == 2
    assert (clock.events_processed, clock.now, seen) == (4, 30, ["a", "b", "c"])

    clock.schedule(40, boom)
    clock.schedule(50, seen.append, "d")
    with pytest.raises(ValueError):
        clock.run_until_idle()
    assert (clock.events_processed, clock.now) == (5, 40)
    assert clock.run_until_idle() == 1 and seen[-1] == "d"


@pytest.mark.parametrize("collecting", [True, False])
def test_the_clock_leaves_the_collector_as_it_found_it(collecting):
    # off while events run, then back as the caller had it: after a
    # normal return, an event that raises, and the max_events guard
    clock = SimClock()
    inside = []

    def probe():
        inside.append(gc.isenabled())

    def boom():
        probe()
        raise ValueError("boom")

    def forever():
        clock.call_in(1, forever)

    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        clock.schedule(5, probe)
        clock.run_until(10)
        assert gc.isenabled() is collecting
        clock.schedule(15, boom)
        with pytest.raises(ValueError):
            clock.run_until(20)
        assert gc.isenabled() is collecting
        clock.schedule(25, probe)
        clock.run_until_idle()
        assert gc.isenabled() is collecting
        clock.schedule(30, boom)
        with pytest.raises(ValueError):
            clock.run_until_idle()
        assert gc.isenabled() is collecting
        clock.schedule(40, forever)
        with pytest.raises(RuntimeError, match="after 10 events"):
            clock.run_until_idle(max_events=10)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert inside == [False] * 4


def test_a_same_time_loop_holds_a_bounded_number_of_run_events():
    # an event that reschedules itself at now never leaves its time; the
    # time's list keeps at most RUN_CHUNK run events (about 150 bytes
    # each here), not every one of the 200,000 the guard lets run, which
    # would peak near 30 MB
    clock = SimClock()

    def again(i):
        clock.schedule(clock.now, again, i + 1)

    clock.schedule(0, again, 1000)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="after 200000 events"):
            clock.run_until_idle(max_events=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clock.now == 0 and len(clock._queues[0]) == 1
    assert peak < 1024 * 1024


class Boom(Exception):
    pass


# what an event does after logging its run, cycled by event id: nothing,
# raise, or schedule one child at now (re-entrant), through call_in(0),
# ``delay`` in the past (clamped to now) or ``delay`` later
event_kinds = st.sampled_from(["log", "raise", "at_now", "call_in_0", "past", "later"])
behaviours = st.lists(st.tuples(event_kinds, st.integers(1, 3)), min_size=1, max_size=8)
# what the driver does: schedule an event at a time (maybe past), start a
# recurring timer with a period, run to a time, drain with a limit, or
# put a same-time burst at a time, longer than the clock cuts its run
# events by: all scheduled at once, or each scheduling the next at now,
# with maybe one member raising, before, at or after the first cut
# (schedules twice as likely, and over few times, so that times tie)
CHUNK = SimClock.RUN_CHUNK
schedule_step = st.tuples(st.just("schedule"), st.integers(0, 4))
burst_step = st.tuples(st.sampled_from(["burst", "chain"]), st.tuples(
    st.integers(0, 4),
    st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
    st.sampled_from([None, 0, CHUNK - 1, CHUNK, CHUNK + 2])))
clock_steps = st.lists(st.one_of(
    schedule_step,
    schedule_step,
    st.tuples(st.just("every"), st.integers(1, 3)),
    st.tuples(st.just("run_until"), st.integers(0, 6)),
    st.tuples(st.just("run_until_idle"),
              st.none() | st.integers(0, 6) | st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1])),
    burst_step,
), max_size=30)


def run_clock(clock, behaviours, steps):
    """The call log of ``steps`` driven on ``clock``: (now, event id) per
    event run, and per step what it returned or raised, ``now`` and
    ``events_processed`` after it."""
    log = []
    ids = itertools.count()

    def event(i, depth):
        log.append((clock.now, i))
        kind, delay = behaviours[i % len(behaviours)]
        if kind == "raise":
            raise Boom(i)
        if kind == "log" or depth == 3:
            return
        child = (next(ids), depth + 1)
        if kind == "at_now":
            clock.schedule(clock.now, event, *child)
        elif kind == "call_in_0":
            clock.call_in(0, event, *child)
        elif kind == "past":
            clock.schedule(clock.now - delay, event, *child)
        else:
            clock.call_in(delay, event, *child)

    def timer(i, period, calls):
        log.append((clock.now, "timer", i))
        calls.append(clock.now)
        return None if len(calls) == 4 else period

    def member(i, j, size, raise_at, chained):
        log.append((clock.now, i, j))
        if chained and j + 1 < size:
            clock.schedule(clock.now, member, i, j + 1, size, raise_at, chained)
        if j == raise_at:
            raise Boom(i, j)

    for step, arg in steps:
        try:
            if step == "schedule":
                out = clock.schedule(arg, event, next(ids), 0)
            elif step in ("burst", "chain"):
                at, size, raise_at = arg
                i, chained = next(ids), step == "chain"
                for j in range(1 if chained else size):
                    out = clock.schedule(at, member, i, j, size, raise_at, chained)
            elif step == "every":
                out = clock.every(arg, timer, next(ids), arg, [])
            elif step == "run_until":
                out = clock.run_until(arg)
            else:
                out = clock.run_until_idle(arg)
        except Boom as exc:
            out = ("raised", exc.args)
        except RuntimeError as exc:
            out = ("guard", str(exc))
        log.append((step, out, clock.now, clock.events_processed))
    return log


@given(behaviours, clock_steps)
@settings(max_examples=max(500, settings.default.max_examples), deadline=None)
# a raise, and a guard, in the chunk after the first cut
@example([("log", 1)], [("burst", (0, 2 * CHUNK + 3, CHUNK + 2)), ("run_until", 1),
                        ("run_until", 1)])
@example([("log", 1)], [("chain", (1, 2 * CHUNK + 3, CHUNK + 2)), ("run_until_idle", None),
                        ("run_until_idle", None)])
@example([("log", 1)], [("burst", (0, 2 * CHUNK + 3, None)), ("run_until_idle", CHUNK + 1),
                        ("run_until_idle", None)])
# a limit at the end of a time's list, with and without a later time
# queued, and a limit on a chunk cut inside a longer burst
@example([("log", 1)], [("schedule", 1), ("schedule", 1), ("run_until_idle", 2)])
@example([("log", 1)], [("schedule", 1), ("schedule", 1), ("schedule", 3),
                        ("run_until_idle", 2), ("run_until_idle", None)])
@example([("log", 1)], [("burst", (0, 2 * CHUNK + 3, None)), ("run_until_idle", CHUNK),
                        ("run_until_idle", None)])
def test_clock_matches_the_heap_clock_oracle(behaviours, steps):
    # ties, past times, re-entrant schedules, raising events, run_until in
    # slices, drains whose limit falls inside one time's events, and
    # same-time bursts the clock cuts into chunks
    assert run_clock(SimClock(), behaviours, steps) == run_clock(
        OracleHeapClock(), behaviours, steps)


# -- link specs ----------------------------------------------------------


def test_link_spec_validation():
    # each bound itself is accepted, and a link names only what it changes
    topo = build_topology({**SPEC, "links": {"defaults": {"crossing": {
        "latency_ms": 0, "jitter_ms": MAX_S * 1000, "loss": 1.0, "bandwidth_mbps": 0}}}})
    assert topo.links["edge->cloud"] == LinkSpec(0.0, MAX_S * 1000, 1.0, 0.0)
    assert LinkSpec(latency_ms=2.0) == LinkSpec(2.0, 0.0, 0.0, 0.0)
    # every topology shares the default links, so none can be changed
    with pytest.raises(AttributeError):
        TOPO.links["intra_layer:edge"].latency_ms = 5.0


# the values the constructor once refused, now refused by the document reader
@pytest.mark.parametrize("link,match", [
    ({"latency_ms": -1}, "latency_ms must be a finite number at least 0"),
    ({"loss": 1.5}, "loss must be a finite number at least 0 and at most 1"),
    ({"bandwidth_mbps": -1}, "bandwidth_mbps must be a finite number, 0 or at least"),
    ({"speed": 1}, r"crossing: unknown keys \['speed'\]"),
], ids=["negative-latency", "loss-above-1", "negative-bandwidth", "unknown-key"])
def test_link_section_rejects(link, match):
    with pytest.raises(TopologyError, match=match):
        build_topology({**SPEC, "links": {"defaults": {"crossing": link}}})


def test_link_spec_merge_keeps_unset_fields():
    base = LinkSpec(latency_ms=10.0, loss=0.5)
    out = read(LinkSpec, {"latency_ms": 20.0}, "link", TopologyError, base)
    assert out == LinkSpec(latency_ms=20.0, loss=0.5)
    assert base.loss == 0.5


def bare_link(spec):
    return LinkState("l", spec, MetricsRegistry(SimClock()))


def test_serialization_time_exact():
    # 1 MB at 160 Mbit/s is exactly 50 ms on the wire
    link = bare_link(LinkSpec(bandwidth_mbps=160.0))
    assert link.charge(1_000_000, 0) == 50 * MS


def test_link_charge_is_fifo():
    link = bare_link(LinkSpec(bandwidth_mbps=8.0))  # 1000 ns per byte
    assert link.charge(100, 0) == 100_000
    # second frame queues behind the first
    assert link.charge(100, 50_000) == 200_000
    # after the backlog clears, starts at now
    assert link.charge(100, 500_000) == 600_000


def test_unlimited_bandwidth_is_instant():
    link = bare_link(LinkSpec(bandwidth_mbps=0.0))
    assert link.charge(10**9, 42) == 42


# -- network construction -------------------------------------------------


def make_net(links=None, seed=0, trace_path=None):
    """A network over ``SPEC``, with ``links`` as its links section."""
    topo = TOPO if links is None else build_topology({**SPEC, "links": links})
    clock = SimClock()
    rng = Random(seed)
    metrics = MetricsRegistry(clock)
    net = Network(topo, clock, rng, metrics, Trace(trace_path))
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
    assert net.links["intra_node:robot-1@edge"].spec.latency_ms == 5.0
    assert net.links["intra_node:robot-2@edge"].spec.latency_ms == 9.0
    assert net.links["intra_layer:edge"].spec == DEFAULT_LINKS["intra_layer"]
    assert net.links["edge->cloud"].spec.latency_ms == 50.0
    assert net.links["cloud->edge"].spec.latency_ms == 50.0
    assert net.links["edge->fog"].spec == DEFAULT_LINKS["crossing"]
    # one link state per resolved spec, each under its own name
    assert {n: l.spec for n, l in net.links.items()} == net.topology.links
    assert all(n == l.name for n, l in net.links.items())


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
    assert metrics.counter("flow.offered", {"topic": "scan"}).value == 1
    assert metrics.counter("flow.delivered", {"topic": "scan"}).value == 1


def test_publish_without_subscribers_offers_nothing():
    net, clock, metrics = make_net()
    assert net.endpoint("intra_layer:edge").publish(env()) == 0
    clock.run_until_idle()
    assert metrics.counter("flow.offered", {"topic": "scan"}).value == 0


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
    assert metrics.counter("link.bytes", {"link": "intra_layer:edge"}).value == 1000
    assert metrics.counter("link.msgs", {"link": "intra_layer:edge"}).value == 1


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
    assert metrics.counter("flow.offered", {"topic": "scan"}).value == 1
    assert metrics.totals("flow.drop.loss", "topic") == {"scan": 1}


def test_loss_rate_tracks_probability():
    net, clock, metrics = make_net(links={"defaults": {"intra_node": {"loss": 0.2}}}, seed=5)
    ep = net.endpoint("intra_node:robot-1@edge")
    ep.subscribe("scan", lambda e: None)
    for i in range(2000):
        ep.publish(env(seq=i + 1))
    clock.run_until_idle()
    dropped = metrics.totals("flow.drop.loss", "topic").get("scan", 0)
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


def test_inter_layer_bus_charges_only_matching_layers(tmp_path):
    net, clock, metrics = make_net(
        trace_path=tmp_path / "trace.jsonl",
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
    assert metrics.counter("link.msgs", {"link": "edge->cloud"}).value == 1
    # fog had no subscriber: its crossing stays idle
    assert metrics.counter("link.msgs", {"link": "edge->fog"}).value == 0
    net.trace.close()
    xlinks = records(tmp_path / "trace.jsonl", "xlink")
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


def test_sender_is_left_out_locally_and_on_every_peer():
    net, clock, _ = make_net()
    got = []
    scopes = ("inter_layer:edge", "inter_layer:fog", "inter_layer:cloud")
    for scope in scopes:
        for owner in ("me", "you", None):
            net.endpoint(scope).subscribe(
                "scan", lambda e, at=(scope, owner): got.append(at), owner=owner)
    bus = net.endpoint("inter_layer:edge")
    assert bus.publish(env(), "me") == 6
    clock.run_until_idle()
    assert set(got) == {(s, o) for s in scopes for o in ("you", None)} and len(got) == 6
    got.clear()
    assert bus.publish(env(seq=2)) == 9  # no sender: every subscriber
    clock.run_until_idle()
    assert set(got) == {(s, o) for s in scopes for o in ("me", "you", None)} and len(got) == 9


def test_callback_errors_are_contained_and_reported():
    net, clock, _ = make_net()
    ep = net.endpoint("intra_layer:edge")
    got = []

    def boom(e):
        raise RuntimeError("bad subscriber")

    ep.subscribe("scan", boom)
    ep.subscribe("scan", got.append)
    ep.publish(env())
    clock.run_until_idle()
    assert len(got) == 1
    assert net.endpoint_errors() == [
        ("intra_layer:edge", "scan", "RuntimeError('bad subscriber')", 1)]


def test_repeated_callback_error_is_one_counted_record():
    # one record per distinct error, however often it recurs: a list of
    # every failed copy grew with the run
    net, clock, _ = make_net()
    ep = net.endpoint("intra_layer:edge")

    def boom(e):
        raise RuntimeError("bad subscriber")

    ep.subscribe("scan", boom)
    for seq in range(1, 10_001):
        ep.publish(env(seq=seq))
    clock.run_until_idle()
    assert ep.errors == {("scan", "RuntimeError('bad subscriber')"): 10_000}
    assert net.endpoint_errors() == [
        ("intra_layer:edge", "scan", "RuntimeError('bad subscriber')", 10_000)]


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


# -- one event per (link, arrival) against the per-copy reference ------------


# Both builds take the harness's subscription record, through which the
# harness makes every subscribe and unsubscribe call; only the reference
# reads it, in place of the endpoints' routes.
def plain_net(subs, **kwargs):
    return make_net(**kwargs)


def per_copy_net(subs, **kwargs):
    net, clock, metrics = make_net(**kwargs)
    install_per_copy_dispatch(net, subs)
    return net, clock, metrics


def test_lossy_jitter_free_link_drops_what_the_reference_drops():
    links = {"defaults": {"intra_layer": {"latency_ms": 2.0, "loss": 0.4}}}
    runs = []
    for build in (plain_net, per_copy_net):
        subs = OracleSubscriptions()
        net, clock, metrics = build(subs, links=links, seed=7)
        ep = net.endpoint("intra_layer:edge")
        log = []
        for tag in range(6):
            subs.subscribe(ep, "scan",
                           lambda e, tag=tag: log.append((clock.now, tag, e.sequence)))
        states = []
        for i in range(40):
            clock.run_until(i * MS)
            ep.publish(env(seq=i + 1))
            states.append(net.rng.getstate())
        clock.run_until_idle()
        runs.append((log, states, metrics.snapshot(), clock.events_processed))
    (log, states, snap, events), (ref_log, ref_states, ref_snap, ref_events) = runs
    assert log == ref_log and states == ref_states and snap == ref_snap
    assert 0 < len(log) < 240  # some copies dropped, some kept
    assert events == len({t for t, _, _ in log}) < ref_events == len(log)


def test_jittered_link_schedules_one_event_per_copy():
    net, clock, _ = make_net(
        links={"defaults": {"intra_layer": {"latency_ms": 1.0, "jitter_ms": 0.5}}})
    ep = net.endpoint("intra_layer:edge")
    got = []
    for _ in range(4):
        ep.subscribe("scan", got.append)
    ep.publish(env())
    assert clock.run_until_idle() == 4 and len(got) == 4


def test_sibling_unsubscribed_mid_batch_is_counted_but_not_called():
    for build in (plain_net, per_copy_net):
        subs = OracleSubscriptions()
        net, clock, metrics = build(subs)
        ep = net.endpoint("intra_layer:edge")
        log = []
        later = []
        subs.subscribe(ep, "scan", lambda e: (log.append("a"), subs.unsubscribe(ep, later[0])))
        subs.subscribe(ep, "scan", lambda e: log.append("b"))
        # an active bridge accounts its own arrivals; an unsubscribed one
        # ends here as delivered
        later.append(subs.subscribe(ep, "scan", lambda e: log.append("c"), kind=SUB_BRIDGE))
        ep.publish(env())
        clock.run_until_idle()
        assert log == ["a", "b"]
        assert metrics.counter("flow.delivered", {"topic": "scan"}).value == 3


def test_zero_delay_event_runs_after_every_sibling():
    net, clock, _ = make_net()
    ep = net.endpoint("intra_layer:edge")
    log = []
    ep.subscribe("scan", lambda e: (log.append("a"), clock.schedule(clock.now, log.append, "zero")))
    ep.subscribe("scan", lambda e: log.append("b"))
    ep.subscribe("scan", lambda e: log.append("c"))
    ep.publish(env())
    assert clock.run_until_idle() == 2
    assert log == ["a", "b", "c", "zero"]


def test_invoke_runs_once_per_copy(monkeypatch):
    calls = []
    invoke = BrokerEndpoint.invoke

    def counted(self, handle, e):
        calls.append(self.scope.key)
        return invoke(self, handle, e)

    monkeypatch.setattr(BrokerEndpoint, "invoke", counted)
    net, clock, _ = make_net()
    for _ in range(3):
        net.endpoint("inter_layer:edge").subscribe("scan", lambda e: None)
    for _ in range(2):
        net.endpoint("inter_layer:cloud").subscribe("scan", lambda e: None)
    assert net.endpoint("inter_layer:edge").publish(env()) == 5
    assert clock.run_until_idle() == 2
    assert calls == ["inter_layer:edge"] * 3 + ["inter_layer:cloud"] * 2


# any valid latency and jitter, jitter also above latency (the draw is
# clamped at 0). From 1e9 ms up a float's last bit is worth a tenth of a
# nanosecond or more, so there a jitter draw computed in another order
# often arrives at another time
delays_ms = st.floats(0.0, MAX_S * 1000) | st.floats(1e9, MAX_S * 1000)
link_specs = st.fixed_dictionaries({
    "latency_ms": st.sampled_from([0.0, 0.5, 3.0]) | delays_ms,
    "jitter_ms": st.sampled_from([0.0, 0.0, 1.0]) | delays_ms,
    "loss": st.sampled_from([0.0, 0.0, 0.3, 1.0]),
    "bandwidth_mbps": st.sampled_from([0.0, 8.0]),
})
BUS = ["intra_layer:edge", "inter_layer:edge", "inter_layer:fog", "inter_layer:cloud"]
TOPICS = ["scan", "pose"]
OWNERS = [None, "a@robot-1", "b@robot-2"]
# what a subscriber's callback does besides logging its arrival
actions = st.sampled_from(["log", "forward", "unsubscribe", "subscribe", "zero_delay"])
subscribers = st.lists(st.tuples(st.sampled_from(BUS), st.sampled_from(TOPICS),
                                 st.sampled_from([SUB_USER, SUB_BRIDGE]),
                                 st.sampled_from(OWNERS), actions), max_size=8)
# (at ms, scope, topic, sender)
publishes = st.lists(st.tuples(st.integers(0, 20), st.sampled_from(BUS), st.sampled_from(TOPICS),
                               st.sampled_from(OWNERS)), min_size=1, max_size=12)


def run_transport(build, links, subscribers, pubs, seed, trace_path):
    subs = OracleSubscriptions()
    net, clock, metrics = build(subs, links=links, seed=seed, trace_path=trace_path)
    log = []
    handles = []

    def callback(i, action, owner):
        def on_message(e):
            log.append((clock.now, i, e.topic, e.sequence))
            if action == "forward" and e.sequence < 1000:
                net.endpoint("inter_layer:fog").publish(
                    env(topic=e.topic, seq=e.sequence + 1000), owner)
            elif action == "unsubscribe" and i + 1 < len(handles):
                sibling = handles[i + 1]
                subs.unsubscribe(net.endpoint(sibling.scope), sibling)
            elif action == "subscribe" and e.sequence < 1000:
                # joins the route this very arrival was delivered from
                me = handles[i]
                handles.append(subs.subscribe(net.endpoint(me.scope), e.topic,
                                              callback(len(handles), "log", owner),
                                              kind=me.kind, owner=owner))
            elif action == "zero_delay":
                clock.schedule(clock.now, log.append, (clock.now, "zero", i, e.sequence))
        return on_message

    for i, (scope, topic, kind, owner, action) in enumerate(subscribers):
        handles.append(subs.subscribe(net.endpoint(scope), topic, callback(i, action, owner),
                                      kind=kind, owner=owner))
    for n, (at_ms, scope, topic, sender) in enumerate(sorted(pubs, key=lambda p: p[0])):
        clock.run_until(at_ms * MS)
        net.endpoint(scope).publish(env(topic=topic, seq=n + 1, sent_at=clock.now), sender)
    events = clock.run_until_idle()
    net.trace.close()
    return log, metrics.snapshot(), net.rng.getstate(), Path(trace_path).read_bytes(), events


@given(link_specs, link_specs, link_specs, subscribers, publishes, st.integers(0, 3))
# at least 150 examples, more under a larger profile (tests/conftest.py)
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_batched_transport_matches_per_copy_reference(local, bus, crossing, subs, pubs, seed):
    # subscribers of two topics, some owned, that subscribe and unsubscribe
    # while deliveries run; publishes that name a sender or none
    links = {"defaults": {"intra_layer": local, "inter_layer": bus, "crossing": crossing}}
    with tempfile.TemporaryDirectory() as tmp:
        *got, events = run_transport(plain_net, links, subs, pubs, seed, Path(tmp) / "a.jsonl")
        *want, ref_events = run_transport(per_copy_net, links, subs, pubs, seed,
                                          Path(tmp) / "b.jsonl")
    assert got == want
    assert events <= ref_events


# -- recurring timers ----------------------------------------------------------

# one recurring timer: the delays between its calls (cycled), the call
# after which it ends itself (None: only the drain ends it), and the
# delays of the one-shots each call schedules
timers = st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=4),
                            st.none() | st.integers(1, 6),
                            st.lists(st.integers(0, 3), max_size=3)),
                  min_size=1, max_size=4)
# far above any drawn run, so a drain that cannot end fails, not hangs
TIMER_DRAIN_EVENTS = 1_000


def run_timers(timers, horizon, start, drain):
    """The (time, label) call log and event count of ``timers`` started
    through ``start(clock, delay, fn)``, run to ``horizon`` and drained
    through ``drain(clock, started)``."""
    clock, log, started = SimClock(), [], []
    for label, (delays, stop_after, shots) in enumerate(timers):
        if stop_after is None and not any(delays):
            delays = [*delays, 1]  # else virtual time never passes this timer
        calls = itertools.count(1)

        def fn(label=label, delays=delays, stop_after=stop_after, shots=shots, calls=calls):
            n = next(calls)
            log.append((clock.now, label))
            for j, delay in enumerate(shots):
                clock.call_in(delay, lambda j=j: log.append((clock.now, f"{label}.{j}")))
            return None if n == stop_after else delays[n % len(delays)]

        started.append(start(clock, delays[0], fn))
    clock.run_until(horizon)
    log.append("drain")
    drain(clock, started)
    return log, clock.events_processed


@given(timers, st.integers(0, 20))
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
def test_every_matches_the_flag_timer_oracle(timers, horizon):
    got = run_timers(timers, horizon, SimClock.every,
                     lambda clock, _: clock.run_until_idle(TIMER_DRAIN_EVENTS))
    want = run_timers(timers, horizon, OracleFlagTimer,
                      lambda clock, started: oracle_drain(clock, started, TIMER_DRAIN_EVENTS))
    assert got == want
