"""Property-based tests for the allocator, token bucket, dedupe window,
the flow table's queries, and the flow engines' bridges and limiter
registrations."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from flowbridge.flow import DedupeWindow, FlowTable
from flowbridge.ratelimit import (
    PublisherRecord,
    RateLimitConfig,
    TokenBucket,
    allocate,
    available_bandwidth,
)
from flowbridge.runner import World
from flowbridge.sdk import Advertise
from flowbridge.simnet import MS, SECOND
from flowbridge.topology import FlowDeclaration, NodeId, build_topology
from oracles import (
    OracleRingWindow,
    oracle_advertisers_at,
    oracle_allocate,
    oracle_bridges,
    oracle_bucket_replay,
    oracle_contributions,
    oracle_limiter_regs,
    oracle_scopes,
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


def records(pubs):
    return [PublisherRecord(t, r, s) for t, r, s in pubs]


@given(limits, publishers)
def test_allocation_matches_oracle(limit, pubs):
    cfg = RateLimitConfig(limit_mbps=limit)
    got = allocate(cfg, records(pubs)).rates()
    want = oracle_allocate(limit, pubs)
    assert got.keys() == want.keys()
    for topic in want:
        assert math.isclose(got[topic], want[topic], rel_tol=1e-9, abs_tol=1e-9)


@given(limits, publishers, st.randoms(use_true_random=False))
def test_allocation_ignores_registration_order(limit, pubs, rnd):
    cfg = RateLimitConfig(limit_mbps=limit)
    base = allocate(cfg, records(pubs)).rates()
    shuffled = list(pubs)
    rnd.shuffle(shuffled)
    assert allocate(cfg, records(shuffled)).rates() == base


@given(limits, publishers)
def test_allocation_is_deterministic(limit, pubs):
    cfg = RateLimitConfig(limit_mbps=limit)
    a = allocate(cfg, records(pubs))
    b = allocate(cfg, records(pubs))
    assert a.rates() == b.rates() and a.remaining == b.remaining


@given(limits, publishers)
def test_allocation_invariants(limit, pubs):
    cfg = RateLimitConfig(limit_mbps=limit)
    result = allocate(cfg, records(pubs))
    b_avail = available_bandwidth(cfg)
    assert result.available == b_avail

    spent = 0.0
    standard_bytes = 0.0
    for topic, declared_rate, size in pubs:
        alloc = result[topic]
        rate = alloc.allocated_rate
        eff = max(1, size)
        assert rate >= 0.0 and math.isfinite(rate)
        if declared_rate > 0:
            assert rate <= declared_rate
        assert alloc.large == (eff >= cfg.large_threshold)
        if alloc.large and declared_rate > 0:
            assert rate >= min(cfg.min_rate_hz, declared_rate)
        take = rate * eff * cfg.alpha
        spent += take
        if not alloc.large:
            standard_bytes += take
            # no single standard publisher may hog the share cap
            assert take <= cfg.beta * b_avail * (1 + 1e-9)

    assert standard_bytes <= b_avail * (1 + 1e-9)
    assert math.isclose(result.remaining, b_avail - spent,
                        rel_tol=1e-9, abs_tol=1e-6)
    # only the large-publisher floor may overcommit the budget
    if result.remaining < -1e-6:
        assert any(result[t].floored for t, _, _ in pubs)


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


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 10**6)),
                min_size=1, max_size=500))
def test_dedupe_state_stays_bounded(events):
    window = DedupeWindow(capacity=16)
    for stream, seq in events:
        window.test_and_record(f"s{stream}@edge", "t", seq)
    for _, mask in window._streams.values():
        assert 0 <= mask < 2**16


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

flow_steps = st.lists(
    st.tuples(
        st.sampled_from(("start", "stop", "kill")),
        st.integers(0, 3),  # service s0..s3
        st.sampled_from(("robot-1", "robot-2", "fog-1", "cloud-1")),
        st.dictionaries(st.sampled_from(FLOW_TOPICS), st.tuples(  # advertises
            st.floats(0.1, 100.0, allow_nan=False), st.integers(1, 200_000))),
        st.sets(st.sampled_from(FLOW_TOPICS)),  # requests
    ),
    min_size=1, max_size=12,
)


@given(flow_steps)
@settings(max_examples=100, deadline=None)
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
            want = oracle_bridges(list(engine.table.entries), {s.key for s in engine.scopes})
            assert set(engine.bridges) == want, engine.layer
            regs = oracle_limiter_regs(engine)
            assert set(engine.limiters) == set(regs), engine.layer
            for client, limiter in engine.limiters.items():
                assert limiter.records, (engine.layer, client)
                got = {t: (r.advertised_rate, r.max_size) for t, r in limiter.records.items()}
                assert got == regs[client], (engine.layer, client)
    w.drain()
