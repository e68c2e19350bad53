"""Property-based tests for the allocator, token bucket, dedupe window,
the SDK's duplicate check, the flow table's queries, the flow engines'
bridges and limiter registrations, the declaration codec, latency probe
addressing, the metric cells and their ordered sums."""

import io
import json
import math
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowbridge.flow import DedupeWindow, FlowTable
from flowbridge.monitor import MetricsRegistry, PingProbe, export_metrics, ordered_sum
from flowbridge.ratelimit import BYTES_PER_MBIT, RateLimitConfig, TokenBucket, allocate
from flowbridge.runner import World
from flowbridge.scenario import ProbesSpec
from flowbridge.sdk import Advertise, ServiceHandle
from flowbridge.simnet import MS, SECOND, SimClock
from flowbridge.topology import (
    DIRECTIONS,
    FlowDeclaration,
    MessageEnvelope,
    NodeId,
    build_topology,
    declaration_payload,
    decode_declaration,
)
from oracles import (
    OracleMarkWindow,
    OracleMetrics,
    OracleRingWindow,
    oracle_advertisers_at,
    oracle_allocate,
    oracle_bridges,
    oracle_bucket_replay,
    oracle_contributions,
    oracle_limiter_regs,
    oracle_ordered_sum,
    oracle_scopes,
    oracle_sdk_delivers,
)

topics = st.text(alphabet="abcdefghijkl", min_size=1, max_size=6)

publishers = st.lists(
    st.tuples(
        topics,
        st.one_of(st.just(0.0), st.floats(0.01, 500.0, allow_nan=False)),
        st.integers(0, 300_000),
    ),
    min_size=1, max_size=12,
    unique_by=lambda t: t[0],
)

limits = st.floats(0.5, 400.0, allow_nan=False)


def regs(pubs):
    return {t: (r, s) for t, r, s in pubs}


@given(limits, publishers)
def test_allocation_matches_oracle(limit, pubs):
    cfg = RateLimitConfig(limit_mbps=limit)
    got, _ = allocate(cfg, regs(pubs))
    # the same float operations in the same order: equal values, equal order
    assert list(got.items()) == list(oracle_allocate(limit, pubs).items())


@given(limits, publishers, st.randoms(use_true_random=False))
def test_allocation_ignores_registration_order(limit, pubs, rnd):
    cfg = RateLimitConfig(limit_mbps=limit)
    rates, remaining = allocate(cfg, regs(pubs))
    shuffled = list(pubs)
    rnd.shuffle(shuffled)
    rates2, remaining2 = allocate(cfg, regs(shuffled))
    assert list(rates2.items()) == list(rates.items()) and remaining2 == remaining


@given(limits, publishers)
def test_allocation_is_deterministic(limit, pubs):
    cfg = RateLimitConfig(limit_mbps=limit)
    assert allocate(cfg, regs(pubs)) == allocate(cfg, regs(pubs))


@given(limits, publishers)
def test_allocation_invariants(limit, pubs):
    cfg = RateLimitConfig(limit_mbps=limit)
    rates, remaining = allocate(cfg, regs(pubs))
    b_avail = limit * BYTES_PER_MBIT
    assert rates.keys() == regs(pubs).keys()
    large = {t: max(1, size) >= cfg.large_threshold for t, _, size in pubs}
    # standard publishers allocate before large ones
    assert [large[t] for t in rates] == sorted(large[t] for t in rates)

    spent = 0.0
    standard_bytes = 0.0
    floored = False
    for topic, declared_rate, size in pubs:
        rate = rates[topic]
        eff = max(1, size)
        assert rate >= 0.0 and math.isfinite(rate)
        if declared_rate > 0:
            assert rate <= declared_rate
        if large[topic]:
            floor = min(cfg.min_rate_hz, declared_rate if declared_rate > 0 else math.inf)
            assert rate >= floor
            floored = floored or rate == floor
        take = rate * eff * cfg.alpha
        spent += take
        if not large[topic]:
            standard_bytes += take
            # no single standard publisher may hog the share cap
            assert take <= cfg.beta * b_avail * (1 + 1e-9)

    assert standard_bytes <= b_avail * (1 + 1e-9)
    assert math.isclose(remaining, b_avail - spent, rel_tol=1e-9, abs_tol=1e-6)
    # only the large-publisher floor may overcommit the budget
    if remaining < -1e-6:
        assert floored


@given(
    st.floats(0.5, 200.0, allow_nan=False),
    st.floats(1.0, 8.0, allow_nan=False),
    st.lists(st.integers(0, 10_000_000_000), min_size=1, max_size=200),
)
def test_bucket_replay_matches_oracle(rate, capacity, raw_times):
    times = sorted(raw_times)
    bucket = TokenBucket(rate, capacity)
    got = [bucket.try_acquire(t) for t in times]
    assert got == oracle_bucket_replay(rate, capacity, times)


@given(st.floats(1.0, 100.0, allow_nan=False), st.integers(2, 8))
@settings(max_examples=40)
def test_bucket_long_run_rate_is_bounded(rate, oversample):
    # attempts far above the refill rate for 10 s: grants settle to
    # capacity (initial burst) plus the refill, never more
    capacity = 2.0
    horizon_s = 10
    step = max(1, int(1e9 / (rate * oversample)))
    bucket = TokenBucket(rate, capacity)
    grants = sum(
        bucket.try_acquire(t)
        for t in range(0, horizon_s * 10**9, step)
    )
    assert grants <= capacity + rate * horizon_s + 1
    assert grants >= rate * horizon_s - 1


@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 60)),
    min_size=1, max_size=300,
))
def test_dedupe_accepts_each_sequence_at_most_once(events):
    window = DedupeWindow(capacity=32)
    accepted = []
    for stream, seq in events:
        if window.test_and_record(f"svc-{stream}@edge", "topic", seq):
            accepted.append((stream, seq))
    assert len(accepted) == len(set(accepted))


# each stream moves by far steps, and by near ones whose gaps leave holes
@given(st.lists(st.tuples(st.integers(0, 5), st.one_of(st.integers(-10**6, 10**6),
                                                       st.integers(-20, 20))),
                min_size=1, max_size=500))
def test_dedupe_state_stays_bounded(events):
    window = DedupeWindow(capacity=16)
    seqs = [0] * 6
    for stream, step in events:
        seqs[stream] += step
        window.test_and_record(f"s{stream}@edge", "t", seqs[stream])
    for _, holes, _ in window._streams.values():
        assert 0 <= holes < 2**16


RING_CAPACITY = 16


@st.composite
def ring_safe_steps(draw):
    """record / test_and_record steps on three streams, each drawing at most
    RING_CAPACITY distinct sequences (so the ring never forgets one) from a
    span of four windows (so sequences age out and the bitmap slides)."""
    values = [draw(st.lists(st.integers(0, 4 * RING_CAPACITY), min_size=1,
                            max_size=RING_CAPACITY, unique=True)) for _ in range(3)]
    steps = draw(st.lists(st.tuples(st.sampled_from(("record", "test")), st.integers(0, 2),
                                    st.integers(0, RING_CAPACITY - 1)), max_size=200))
    return [(kind, f"s{s}@edge", values[s][i % len(values[s])]) for kind, s, i in steps]


@given(ring_safe_steps())
def test_dedupe_bitmap_matches_ring_oracle(steps):
    window, ring = DedupeWindow(capacity=RING_CAPACITY), OracleRingWindow(RING_CAPACITY)
    for kind, origin, seq in steps:
        if kind == "record":
            window.record(origin, "t", seq)
            ring.record(origin, "t", seq)
        else:
            assert window.test_and_record(origin, "t", seq) == ring.test_and_record(origin, "t", seq)
        highest, recent = ring.streams[(origin, "t")]
        low = highest[0] - RING_CAPACITY
        for v in range(low - 1, highest[0] + 2):  # marked in the window iff the ring holds it there
            assert window.seen(origin, "t", v) == (v in recent and v > low)


# (kind, stream) of a window step: record / test_and_record / seen on
# one of three streams
STEP_TARGETS = [(kind, stream) for kind in ("record", "test", "seen") for stream in range(3)]


def _window_steps(capacity: int):
    """Steps on a window of ``capacity``. A step's sequence is either
    absolute and at most 0, or the stream's highest plus a delta: a small
    step or gap, one about a window away, or any within three windows.
    Each step is one flat choice among those four, and each capacity's
    strategy is built once: building and drawing nested ones cost more
    than the checks they fed."""
    near = (capacity - 1, capacity, capacity + 1, -capacity + 1, -capacity, -capacity - 1)
    sequence = st.one_of(st.integers(-3, 0).map(lambda v: (False, v)),
                         st.integers(-3, 3).map(lambda v: (True, v)),
                         st.sampled_from([(True, delta) for delta in near]),
                         st.integers(-3 * capacity, 3 * capacity).map(lambda v: (True, v)))
    return st.lists(st.tuples(st.sampled_from(STEP_TARGETS), sequence), max_size=60)


WINDOW_STEPS = {capacity: _window_steps(capacity) for capacity in (1, 2, 16, 1024)}


@st.composite
def window_steps(draw):
    """A capacity, and ((kind, stream), (relative, value)) steps for it."""
    capacity = draw(st.sampled_from(tuple(WINDOW_STEPS)))
    return capacity, draw(WINDOW_STEPS[capacity])


@given(window_steps())
@settings(deadline=None)
def test_dedupe_window_matches_mark_oracle(case):
    capacity, steps = case
    window, oracle = DedupeWindow(capacity), OracleMarkWindow(capacity)

    def highest(origin):
        return oracle._streams.get((origin, "t"), (0, 0))[0]

    for (kind, stream), (relative, value) in steps:
        origin = f"s{stream}@edge"
        seq = highest(origin) + value if relative else value
        if kind == "record":
            window.record(origin, "t", seq)
            oracle.record(origin, "t", seq)
        elif kind == "test":
            fresh = window.test_and_record(origin, "t", seq)
            assert fresh == oracle.test_and_record(origin, "t", seq)
        else:
            assert window.seen(origin, "t", seq) == oracle.seen(origin, "t", seq)
        top = highest(origin)
        for v in range(top - capacity - 1, top + 2):
            assert window.seen(origin, "t", v) == oracle.seen(origin, "t", v)


@given(window_steps())
@settings(deadline=None)
def test_sdk_duplicate_check_matches_the_two_call_oracle(case):
    # the delivery wrapper asks `record`, and `seen` only when it refuses:
    # it delivers what `seen` then `record` delivered, leaving the same
    # window, for fresh, duplicate, hole, out-of-window and below-floor
    # arrivals (each step is one delivery, its kind unused; envelope
    # sequences start at 1, so a step below that is skipped)
    capacity, steps = case
    host = World(build_topology(WORLD3), seed=1).host
    handle = ServiceHandle("sink", host.topology.node("robot-1"), None, (), ("t",))
    handle._delivered = DedupeWindow(capacity)
    deliver = host._delivery_wrapper(handle, "t", None)
    oracle = DedupeWindow(capacity)
    refused = 0
    for (_, stream), (relative, value) in steps:
        origin = NodeId("edge", f"s{stream}")
        seq = oracle._streams.get((origin.key, "t"), (0,))[0] + value if relative else value
        if seq < 1:
            continue
        received = handle.received
        deliver(MessageEnvelope(topic="t", payload=b"", origin_node=origin, sequence=seq,
                                sent_at=0))
        fresh = oracle_sdk_delivers(oracle, origin.key, "t", seq)
        assert handle.received - received == int(fresh)
        assert handle._delivered._streams == oracle._streams
        refused += not fresh
    assert len(host.violations) == refused


TABLE_TOPICS = ("x", "y")
TABLE_SCOPES = ("s1", "s2", "s3")
TABLE_SERVICES = ("p", "q", "r")

table_ops = st.lists(st.tuples(
    st.sampled_from(("store", "remove")),
    st.sampled_from(("advertise", "request")),
    st.sampled_from(TABLE_TOPICS),
    st.sampled_from(("a", "b")),  # origin node
    st.sampled_from(TABLE_SCOPES),
    st.sampled_from(TABLE_SERVICES),
    st.integers(0, 3),  # rate
    st.integers(0, 3),  # size
), max_size=60)


@given(table_ops)
def test_table_queries_match_full_scan_oracles(ops):
    table = FlowTable()
    for op, direction, topic, node, scope, service, rate, size in ops:
        origin = NodeId("edge", node)
        entries = table.entries
        if op == "store":
            old = entries.get((direction, topic, origin.key, scope))
            want = (old is None or rate > old.declared_rate or size > old.declared_max_size
                    or service not in old.contributors)
            decl = FlowDeclaration(direction=direction, topic=topic, origin_node=origin,
                                   declared_rate=float(rate),
                                   declared_max_size=size)
            assert table.store(direction, scope, decl, service) == want
        else:
            want = any(k[:3] == (direction, topic, origin.key) and e.contributors == {service}
                       for k, e in entries.items())
            assert table.remove_contributor(direction, topic, origin.key, service) == want
        assert table.topics() == sorted({k[1] for k in entries})
        for t in TABLE_TOPICS:
            assert list(table.lookup(t).items()) == [(k, e) for k, e in entries.items() if k[1] == t]
            for d in ("advertise", "request"):
                assert table.scopes(d, t) == oracle_scopes(entries, d, t)
            for sc in TABLE_SCOPES:
                got = table.advertisers_at(t, sc)
                assert [id(e) for e in got] == [id(e) for e in oracle_advertisers_at(entries, t, sc)]
        for svc in TABLE_SERVICES:
            got = table.contributions(svc)
            want_pairs = oracle_contributions(entries, svc)
            assert [(k, id(e)) for k, e in got] == [(k, id(e)) for k, e in want_pairs]


WORLD3 = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1", "robot-2"]},
        {"name": "fog", "nodes": ["fog-1"]},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}
FLOW_TOPICS = ("a", "b", "c")

FLOW_NODES = ("robot-1", "robot-2", "fog-1", "cloud-1")


names = st.text(min_size=1, max_size=8)  # any code point, non-ASCII included

declarations = st.builds(
    FlowDeclaration,
    direction=st.sampled_from(DIRECTIONS),
    topic=names,
    origin_node=st.builds(NodeId, names, names),
    declared_rate=st.one_of(st.integers(0, 10**12),
                            st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)),
    declared_max_size=st.integers(0, 10**9),
)


@given(declarations, names)
def test_declaration_payload_round_trips_through_the_decoder(d, service):
    payload = declaration_payload(d, service)
    # equal bytes back: an int rate stays an int and a float a float
    assert decode_declaration(payload) == (d, service, payload)


@st.composite
def flow_steps(draw):
    """Service starts, stops and kills on 2-3 of the nodes, so that
    services pile up on a node and one of its limiter's topics can go
    while another stays."""
    nodes = draw(st.lists(st.sampled_from(FLOW_NODES), min_size=2, max_size=3, unique=True))
    return draw(st.lists(
        st.tuples(
            st.sampled_from(("start", "start", "stop", "kill")),
            st.integers(0, 5),  # service s0..s5
            st.sampled_from(nodes),
            st.dictionaries(st.sampled_from(FLOW_TOPICS), st.tuples(  # advertises
                st.floats(0.1, 100.0, allow_nan=False), st.integers(1, 200_000))),
            st.sets(st.sampled_from(FLOW_TOPICS)),  # requests
        ),
        min_size=12, max_size=40,
    ))


@given(flow_steps())
# one node's limiter loses one of its two topics and keeps the other:
# the steps above reach this in nearly every run, this example in each
@example([("start", 0, "robot-1", {"a": (1.0, 100)}, set()),
          ("start", 1, "robot-1", {"b": (1.0, 100)}, set()),
          ("start", 2, "cloud-1", {}, {"a", "b"}),
          ("stop", 0, "robot-1", {}, set())])
@settings(max_examples=max(100, settings.default.max_examples // 4), deadline=None)
def test_engine_bridges_match_whole_table_oracle(steps):
    w = World(build_topology(WORLD3), seed=1)
    w.start()
    running = {}
    for op, idx, node, advs, reqs in steps:
        name = f"s{idx}"
        handle = running.get(name)
        if op == "start" and handle is None:
            running[name] = w.host.start_service(
                node, name, advertises=[Advertise(t, r, z) for t, (r, z) in sorted(advs.items())],
                requests=sorted(reqs))
        elif op == "stop" and handle is not None:
            w.host.stop_service(running.pop(name))
        elif op == "kill" and handle is not None:
            w.host.kill_service(running.pop(name))
            # heartbeat TTL (3 s) plus one watchdog period (1 s) and margin
            w.clock.run_until(w.clock.now + 5 * SECOND)
            for engine in w.engines.values():
                assert not engine.table.contributions(name)
        w.clock.run_until(w.clock.now + 200 * MS)
        for engine in w.engines.values():
            want = oracle_bridges(list(engine.table.entries), set(engine.scope_by_key))
            assert set(engine.bridges) == want, engine.layer
            regs = oracle_limiter_regs(engine)
            assert set(engine.limiters) == set(regs), engine.layer
            for client, limiter in engine.limiters.items():
                assert limiter.records, (engine.layer, client)
                assert limiter.records == regs[client], (engine.layer, client)
                # one bucket per record, each at the rate the records allocate
                assert set(limiter.buckets) == set(limiter.records), (engine.layer, client)
                want, _ = allocate(limiter.cfg, limiter.records)
                assert {t: b.rate for t, b in limiter.buckets.items()} == want, (
                    engine.layer, client)
    w.drain()


# 1-2 of these nodes carry 2-4 services: two edge nodes, and one two layers up
SELF_NODES = ("robot-1", "robot-2", "cloud-1")
topic_subsets = st.frozensets(st.sampled_from(("a", "b")))


@st.composite
def pubsub_worlds(draw):
    """Services as (node, advertised topics, requested topics), and the
    publishes as (service index, topic) in the order they are made."""
    nodes = draw(st.lists(st.sampled_from(SELF_NODES), min_size=1, max_size=2, unique=True))
    services = draw(st.lists(st.tuples(st.sampled_from(nodes), topic_subsets, topic_subsets),
                             min_size=2, max_size=4))
    streams = [(i, t) for i, (_, advs, _) in enumerate(services) for t in sorted(advs)]
    schedule = draw(st.lists(st.sampled_from(streams), max_size=8)) if streams else []
    return services, schedule


@given(pubsub_worlds())
@settings(max_examples=max(50, settings.default.max_examples // 4), deadline=None)
def test_each_service_hears_every_other_publisher_once_and_never_itself(case):
    services, schedule = case
    w = World(build_topology(WORLD3), seed=1)
    w.start()
    w.clock.run_until(10 * MS)
    got = [[] for _ in services]
    handles = [
        w.host.start_service(
            node, f"s{i}", advertises=[Advertise(t, 50.0) for t in sorted(advs)],
            requests=sorted(reqs),
            on_message=lambda env, i=i: got[i].append((env.topic, env.payload)))
        for i, (node, advs, reqs) in enumerate(services)
    ]
    w.clock.run_until(w.clock.now + SECOND)  # declarations flood, bridges come up
    sent = []
    for n, (i, topic) in enumerate(schedule):
        payload = b"%d:%d" % (i, n)
        w.host.publish(handles[i], topic, payload)
        sent.append((i, topic, payload))
        w.clock.run_until(w.clock.now + 100 * MS)
    for engine in w.engines.values():  # nor does a layer's engine hear its own floods
        assert not [key for key in engine.table.entries
                    if key[3] == engine.inter_scope.key and key[2].endswith("@" + engine.layer)]
    w.drain()
    for j, (_, _, reqs) in enumerate(services):
        want = [(topic, payload) for i, topic, payload in sent if i != j and topic in reqs]
        assert sorted(got[j]) == sorted(want), f"s{j}"
    assert w.issues() == []


PROBE_WORLD = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1", "robot-2", "robot-3"]},
        {"name": "fog", "nodes": ["fog-1", "fog-2"]},
        {"name": "cloud", "nodes": ["cloud-1", "cloud-2"]},
    ]
}
PROBE_NODES = [n for layer in PROBE_WORLD["layers"] for n in layer["nodes"]]


@given(st.sampled_from((1, 2, 3, 5)).flatmap(
    lambda k: st.lists(st.sampled_from(PROBE_NODES), min_size=k, max_size=k, unique=True)))
@settings(max_examples=max(30, settings.default.max_examples // 4), deadline=None)
def test_each_probe_hears_only_the_pings_addressed_to_it(nodes):
    """Probes alone on nodes of every layer: a ping reaches its target's
    probe once and no other probe, no probe copy is dropped in dedupe, and
    every ping sent is answered with one round-trip sample."""
    sent, heard = Counter(), []
    send_ping, on_ping = PingProbe._send_ping, PingProbe.on_ping

    def spy_send(probe, target):
        sent[(probe.node.key, target.key)] += 1
        send_ping(probe, target)

    def spy_ping(probe, env):
        body = json.loads(env.payload)
        heard.append((probe.node.key, body["src"], body["dst"], body["nonce"]))
        on_ping(probe, env)

    w = World(build_topology(PROBE_WORLD), seed=1)
    w.start()
    with mock.patch.object(PingProbe, "_send_ping", spy_send), \
            mock.patch.object(PingProbe, "on_ping", spy_ping):
        w.enable_probes(ProbesSpec(nodes=tuple(nodes), ping_period_s=0.5, ping_timeout_s=5.0))
        w.clock.run_until(2750 * MS)  # cycles at 0.5, 1.0, ... 2.5 s
        w.drain()
    keys = {w.topology.node(n).key for n in nodes}
    assert all(receiver == dst for receiver, _, dst, _ in heard)
    assert max(Counter(heard).values(), default=1) == 1
    assert Counter((src, dst) for _, src, dst, _ in heard) == sent
    if len(nodes) > 1:
        assert sent == {(s, t): 5 for s in keys for t in keys if s != t}
    rtt = w.registry.gauge_sets("mon.rtt_half_ms")
    assert {(dict(k)["source"], dict(k)["target"]): len(v) for k, v in rtt.items()} == sent
    assert w.registry.totals("mon.ping_timeout", "source") == {}
    probe_topics = {t: n for t, n in w.registry.totals("flow.offered", "topic").items()
                    if t.startswith("__mon/")}
    assert bool(probe_topics) == (len(nodes) > 1)
    dedupe = w.registry.totals("flow.drop.dedupe", "topic")
    assert not [t for t, n in dedupe.items() if t.startswith("__mon/") and n]
    assert w.issues() == []


# two names over label sets that share the labels `totals` picks out
METRIC_KEYS = [(name, labels) for name in ("m", "n") for labels in (
    {}, {"topic": "x"}, {"topic": "y", "link": "l1"}, {"link": "l1"})]

metric_ops = st.lists(st.one_of(
    st.tuples(st.just("bind"), st.sampled_from("cg"), st.integers(0, 7), st.integers(0, 1)),
    # how: 0 through the binder's cell, 1 in place as the per-copy paths
    # write, 2 through the registry by name
    st.tuples(st.just("inc"), st.integers(0, 7), st.integers(0, 1), st.integers(0, 2),
              st.integers(0, 1000)),
    st.tuples(st.just("observe"), st.integers(0, 7), st.integers(0, 1), st.integers(0, 2),
              st.floats(-1e6, 1e6, allow_nan=False)),
    st.tuples(st.just("advance"), st.integers(0, 3)),
), max_size=40)


@given(metric_ops)
def test_metric_cells_match_first_update_oracle(ops):
    clock = SimClock()
    reg, ref = MetricsRegistry(clock), OracleMetrics(clock)
    cells: dict[tuple, tuple] = {}  # (kind, key, binder) -> (cell, oracle cell)

    def bound(kind, k, binder):
        got = cells.get((kind, k, binder))
        if got is None:
            name, labels = METRIC_KEYS[k]
            make = (reg.counter, ref.counter) if kind == "c" else (reg.gauge, ref.gauge)
            got = cells[(kind, k, binder)] = (make[0](name, labels), make[1](name, labels))
        return got

    for op in ops:
        if op[0] == "bind":
            bound(op[1], op[2], op[3])
        elif op[0] == "advance":
            clock.run_until(clock.now + op[1])
        elif op[0] == "inc":
            _, k, binder, how, value = op
            if how == 2:
                reg.inc(*METRIC_KEYS[k], value)
                ref.inc(*METRIC_KEYS[k], value)
                continue
            cell, ref_cell = bound("c", k, binder)
            if how == 0:
                cell.inc(value)
            else:
                cell.value += value
                cell.at = clock.now
            ref_cell.inc(value)
        else:
            _, k, binder, how, value = op
            if how == 2:
                reg.observe(*METRIC_KEYS[k], value)
                ref.observe(*METRIC_KEYS[k], value)
                continue
            cell, ref_cell = bound("g", k, binder)
            if how == 0:
                cell.observe(value)
            else:
                cell.at.append(clock.now)
                cell.values.append(float(value))
            ref_cell.observe(value)

    sink = io.BytesIO()
    export_metrics(reg, sink)
    assert sink.getvalue() == ref.export()
    assert [(p.kind, p.name, p.labels, p.value, p.at) for p in reg.snapshot()] == ref.snapshot()
    for name in ("m", "n"):
        for label in ("topic", "link", "node"):
            assert reg.totals(name, label) == ref.totals(name, label)
        assert {k: list(v) for k, v in reg.gauge_sets(name).items()} == ref.gauge_sets(name)
    # each key's cell, bound last: a cell never updated reads as empty
    for name, labels in METRIC_KEYS:
        key = (name, tuple(sorted(labels.items())))
        assert reg.counter(name, labels).value == ref.counters.get(key, [0])[0]
        assert list(reg.gauge(name, labels)) == ref.gauges.get(key, [])


# ints of any size, which overflow a float sum past 2**1024; every
# float, subnormals, both zeros, both infinities and nan among them; and
# floats spread over every binary exponent
summands = st.one_of(
    st.integers(),
    st.integers(-(2**1100), 2**1100),
    st.floats(),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 1e16, 0.1)),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
)


def sum_outcome(add_up, values) -> tuple:
    """What ``add_up`` makes of ``values``: its type and repr, so that -0.0
    differs from 0.0 and every nan equals every other. The sign of a nan
    that adds two nans of opposite signs is left out: CPython's loop gives
    it from whichever C path its adaptive interpreter has chosen for `+=`
    (on 3.11, -nan for [nan, -nan] on the loop's first two calls, nan
    after), and the export writes either as ``nan``."""
    try:
        total = add_up(iter(values))
    except OverflowError:
        return ("OverflowError",)
    return (type(total), repr(total))


@given(st.lists(summands, max_size=30))
@example([])
@example([-0.0])
@example([1e16, 1.0, -1e16])  # compensated summation gives 1.0 here, not 0.0
@example([2**1100, 1.0])
def test_ordered_sum_matches_the_loop_oracle(values):
    assert sum_outcome(ordered_sum, values) == sum_outcome(oracle_ordered_sum, values)
