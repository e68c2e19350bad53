"""Acceptance suite: one test per numbered shipping criterion.

Each test carries ``@pytest.mark.criterion(n, title)``; the conftest
rolls them up into one printed PASS/FAIL line per criterion after the
run.  Tolerances and sample sizes are pinned here on purpose - loosening
them is a behavior change, not a test fix.
"""

import copy
import hashlib
import math
import time
import zlib
from random import Random

import pytest

from flowbridge import codec
from flowbridge.monitor import MetricsRegistry
from flowbridge.ratelimit import RateLimitConfig, TokenBucket, allocate
from flowbridge.runner import World, plan, run_scenario
from flowbridge.scenario import ProbesSpec, builtin_scenarios, parse_scenario
from flowbridge.sdk import Advertise
from flowbridge.simnet import MS, SECOND, Network, SimClock
from flowbridge.topology import MessageEnvelope, NodeId, build_topology
from flowbridge.tracing import Trace
from oracles import oracle_allocate, oracle_single_large_rate, synthetic_corpus
from tracefile import records

THREE_LAYERS = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1"]},
        {"name": "fog", "nodes": ["fog-1"]},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}

TWO_LAYERS = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1"]},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}


def settle(world, ms):
    world.clock.run_until(world.clock.now + int(ms * MS))


# -- criterion 1 ------------------------------------------------------------


ORACLE_RATES = range(1, 51)
ORACLE_SIZES = (100, 10_240, 102_400, 1_000_000)


@pytest.mark.criterion(1, "allocator matches the hand oracle across the domain")
def test_allocator_oracle_equivalence():
    started = time.monotonic()
    cfg = RateLimitConfig()
    checked = 0

    def check(pubs):
        nonlocal checked
        got, _ = allocate(cfg, {t: (r, s) for t, r, s in pubs})
        want = oracle_allocate(cfg.limit_mbps, list(pubs))
        # the same float operations in the same order: equal values, equal order
        assert list(got.items()) == list(want.items()), pubs
        checked += 1

    # every single-publisher set, exhaustively
    for rate in ORACLE_RATES:
        for size in ORACLE_SIZES:
            check([("t0", float(rate), size)])

    # the full 2..4-publisher domain is ~10^7 sets; a fixed seeded sample
    # has to stand in for it to stay inside the runtime budget
    rng = Random(1318)
    for n in (2, 3, 4):
        for _ in range(4000):
            check([
                (f"t{i}", float(rng.choice(ORACLE_RATES)), rng.choice(ORACLE_SIZES))
                for i in range(n)
            ])

    assert checked == 200 + 12_000
    assert time.monotonic() - started < 5.0


# -- criterion 2 ------------------------------------------------------------


@pytest.mark.criterion(2, "single 1 MB 30 Hz publisher at 160 Mbps gets 19.5318 Hz")
def test_single_large_publisher_known_value():
    cfg = RateLimitConfig(limit_mbps=160.0, alpha=1.02, beta=0.95)
    rates, remaining = allocate(cfg, {"image": (30.0, 1_000_000)})
    got = rates["image"]
    assert abs(got - 19.5318) <= 1e-3
    assert math.isclose(
        got,
        oracle_single_large_rate(160.0, 1_000_000, 30.0),
        rel_tol=1e-12,
    )
    # a large publisher, above its floor: nothing overcommitted
    assert 1_000_000 >= cfg.large_threshold
    assert got > cfg.min_rate_hz and remaining >= 0


# -- criterion 3 ------------------------------------------------------------


@pytest.mark.criterion(3, "bucket passes 195..197 of 300 offered, bursts exactly 2")
def test_token_bucket_throughput():
    started = time.monotonic()

    fresh = TokenBucket(19.5318, 2.0)
    assert [fresh.try_acquire(0) for _ in range(4)] == [True, True, False, False]

    bucket = TokenBucket(19.5318, 2.0)
    period = SECOND // 30
    grants = sum(bucket.try_acquire(i * period) for i in range(300))
    assert 195 <= grants <= 197, grants
    assert time.monotonic() - started < 1.0


# -- criterion 4 ------------------------------------------------------------


@pytest.mark.criterion(4, "budget-starved large publisher is floored at exactly 2 Hz")
def test_starvation_floor_exact():
    cfg = RateLimitConfig()  # 160 Mbps
    rates, remaining = allocate(cfg, {
        "hog-a": (400.0, 60_000),
        "hog-b": (400.0, 60_000),
        "image": (30.0, 1_000_000),
    })
    assert 1_000_000 >= cfg.large_threshold
    assert rates["image"] == cfg.min_rate_hz == 2.0
    assert remaining < 0  # the floor is allowed to overcommit


# -- criterion 5 ------------------------------------------------------------


SMALL_STREAMS = [
    ("scan", 50.0, 500),
    ("imu", 40.0, 500),
    ("gps", 25.0, 400),
    ("status", 20.0, 300),
    ("battery", 10.0, 200),
]


@pytest.mark.criterion(5, "small topics hold >=99% rate while 1 MB stream is capped")
def test_small_message_priority_under_saturation():
    links = {"crossings": [{"between": ["edge", "cloud"],
                            "bandwidth_mbps": 160.0}]}
    doc = {
        "name": "saturation",
        "duration_s": 20.0,
        "seed": 5,
        "services": [
            {"name": "sensors", "node": "robot-1", "start_s": 0.5,
             "advertises": (
                 [{"topic": "image", "rate_hz": 30.0, "size": 1_000_000,
                   "payload": "random"}]
                 + [{"topic": t, "rate_hz": r, "size": s}
                    for t, r, s in SMALL_STREAMS]
             )},
            {"name": "collector", "node": "cloud-1",
             "requests": ["image"] + [t for t, _, _ in SMALL_STREAMS]},
        ],
    }
    scenario = parse_scenario(doc)
    topology = build_topology({**TWO_LAYERS, "links": links})
    world = World(topology, scenario.seed, plan(scenario, topology, scenario.duration_s).configs)
    world.start()
    world.setup_scenario(scenario)
    world.run_for(scenario.duration_s)
    world.drain()
    assert world.clock.now <= 30 * SECOND
    assert world.issues() == []

    active_s = scenario.duration_s - 0.5

    def received(topic: str) -> int:
        # the collector is the only service on cloud-1: the topic's latency
        # gauge there holds one sample per message it received
        return len(world.registry.gauge("mon.msg_latency_ms",
                                        {"topic": topic, "node": "cloud-1"}))

    for topic, rate, _ in SMALL_STREAMS:
        got_hz = received(topic) / active_s
        assert got_hz >= 0.99 * rate, (topic, got_hz, rate)

    predicted = oracle_allocate(
        160.0, [("image", 30.0, 1_000_000)] + list(SMALL_STREAMS))["image"]
    image_hz = received("image") / active_s
    assert image_hz < 30.0
    assert abs(image_hz - predicted) / predicted <= 0.05, (image_hz, predicted)


# -- criterion 6 ------------------------------------------------------------


@pytest.mark.criterion(6, "advertise/request handshake installs exactly two bridges")
def test_handshake_bridges_and_exactly_once(tmp_path):
    trace = tmp_path / "trace.jsonl"
    world = World(build_topology(THREE_LAYERS), seed=2, trace_path=trace)
    world.start()
    settle(world, 10)
    svc1 = world.host.start_service(
        "robot-1", "service-1", advertises=[Advertise("telemetry", 5.0, 256)])
    svc2 = world.host.start_service("fog-1", "service-2", requests=["telemetry"])
    settle(world, 200)

    t = "telemetry"
    assert {k for k in world.engines["edge"].bridges if k[0] == t} == {
        (t, "intra_node:robot-1@edge", "inter_layer:edge")}
    assert {k for k in world.engines["fog"].bridges if k[0] == t} == {
        (t, "inter_layer:fog", "intra_layer:fog")}
    assert {k for k in world.engines["cloud"].bridges if k[0] == t} == set()

    for i in range(3):
        world.host.publish(svc1, t, b"m%d" % i)
        settle(world, 250)  # stay at the declared 5 Hz
    world.drain()

    assert svc2.received == 3
    crossings = records(trace, "xlink", topic=t)
    assert len(crossings) == 3
    assert all(r["frm"] == "edge" and r["to"] == "fog" for r in crossings)
    assert records(trace, "duplicate_delivery") == []
    assert world.issues() == []


# -- criterion 7 ------------------------------------------------------------


@pytest.mark.criterion(7, "external one-to-many resolves to exactly four bridges")
def test_external_one_to_many_bridge_set(tmp_path):
    trace = tmp_path / "trace.jsonl"
    world = World(build_topology({
        "layers": [
            {"name": "edge", "nodes": ["robot-1", "robot-2"],
             "external_protocol": True},
            {"name": "fog", "nodes": ["fog-1"], "external_protocol": True},
            {"name": "cloud", "nodes": ["cloud-1"]},
        ]
    }), seed=3, trace_path=trace)
    world.start()
    settle(world, 10)

    t = "frames"
    cam = world.host.start_service(
        "robot-1", "cam", external=True, advertises=[Advertise(t, 5.0, 512)])
    local = world.host.start_service("robot-1", "local-viewer", requests=[t])
    analytics = world.host.start_service("cloud-1", "analytics", requests=[t])
    ext_edge = world.host.start_service(
        "robot-2", "ext-edge", external=True, requests=[t])
    ext_fog = world.host.start_service(
        "fog-1", "ext-fog", external=True, requests=[t])
    settle(world, 200)

    by_layer = {
        layer: {k for k in world.engines[layer].bridges if k[0] == t}
        for layer in ("edge", "fog", "cloud")
    }
    assert by_layer["edge"] == {
        (t, "external_protocol:edge", "intra_node:robot-1@edge"),
        (t, "external_protocol:edge", "inter_layer:edge"),
    }
    assert by_layer["fog"] == {(t, "inter_layer:fog", "external_protocol:fog")}
    assert by_layer["cloud"] == {(t, "inter_layer:cloud", "intra_layer:cloud")}
    assert sum(len(keys) for keys in by_layer.values()) == 4

    world.host.publish(cam, t, b"frame-1")
    world.drain()
    for handle in (local, analytics, ext_edge, ext_fog):
        assert handle.received == 1, handle.name
    assert records(trace, "duplicate_delivery") == []
    assert world.issues() == []


# -- criterion 8 ------------------------------------------------------------


@pytest.mark.criterion(8, "500 random worlds: loop-free with exact accounting")
def test_randomized_worlds_stay_loop_free(tmp_path):
    trace = tmp_path / "trace.jsonl"
    started = time.monotonic()
    rng = Random(1318)
    data_topics = ("alpha", "beta", "gamma")

    for run in range(500):
        n_layers = rng.randint(1, 3)
        counts = [1] * n_layers
        for _ in range(rng.randint(0, 4 - n_layers)):
            counts[rng.randrange(n_layers)] += 1
        layers = [{"name": f"l{i}", "nodes": [f"n{i}-{j}" for j in range(c)]}
                  for i, c in enumerate(counts)]
        node_names = [n for layer in layers for n in layer["nodes"]]

        services = []
        advertised = set()
        for i in range(rng.randint(1, 2)):
            streams = [
                {"topic": topic, "rate_hz": float(rng.choice((5, 10, 20))),
                 "size": rng.choice((64, 256, 1024, 2048))}
                for topic in rng.sample(data_topics, rng.randint(1, 2))
            ]
            advertised.update(s["topic"] for s in streams)
            services.append({"name": f"adv-{i}", "node": rng.choice(node_names),
                             "advertises": streams,
                             "start_s": round(rng.uniform(0.0, 0.2), 3)})
        pool = sorted(advertised)
        for i in range(rng.randint(1, 2)):
            services.append({"name": f"req-{i}", "node": rng.choice(node_names),
                             "requests": rng.sample(pool, rng.randint(1, len(pool))),
                             "start_s": round(rng.uniform(0.0, 0.2), 3)})

        doc = {"name": f"rand-{run}", "duration_s": 0.8, "seed": run,
               "services": services}
        scenario = parse_scenario(doc)
        topology = build_topology({"layers": layers})
        world = World(topology, run, plan(scenario, topology, scenario.duration_s).configs,
                      trace_path=trace)
        world.start()
        world.setup_scenario(scenario)
        world.run_for(scenario.duration_s)
        world.drain()  # raises if forwarding never settles

        issues = world.issues()
        assert issues == [], f"run {run}: {issues}"
        for row in world.accounting():
            assert row["balance"] == 0, f"run {run}: {row}"
        assert not world.host.violations, f"run {run}"
        crossed = set()
        for rec in records(trace, "xlink"):
            if rec["topic"] not in data_topics:
                continue
            key = (rec["frm"], rec["to"], rec["topic"], rec["origin"], rec["seq"])
            assert key not in crossed, f"run {run}: repeated crossing {key}"
            crossed.add(key)

    assert time.monotonic() - started < 120.0


# -- criterion 9 ------------------------------------------------------------


@pytest.mark.criterion(9, "50ms/10ms/0.01% crossing: ping mean in [49,51], loss in 4-sigma")
def test_latency_and_loss_emulation():
    # ping fabric over an otherwise zero-latency topology
    links = {
        "defaults": {kind: {"latency_ms": 0.0}
                     for kind in ("intra_node", "intra_layer",
                                  "inter_layer", "external_protocol")},
        "crossings": [{"between": ["edge", "cloud"], "latency_ms": 50.0,
                       "jitter_ms": 10.0, "loss": 0.0001}],
    }
    world = World(build_topology({**TWO_LAYERS, "links": links}), seed=11)
    world.start()
    settle(world, 10)
    world.enable_probes(ProbesSpec(("robot-1", "cloud-1"), 0.05, 5.0))
    world.run_for(40.0)
    world.drain()
    assert world.issues() == []

    samples = []
    for series in world.registry.gauge_sets("mon.rtt_half_ms").values():
        samples.extend(value for _, value in series)
    assert len(samples) >= 1000
    mean = sum(samples) / len(samples)
    assert 49.0 <= mean <= 51.0, (mean, len(samples))

    # loss frequency over 1e5 one-way messages: p=1e-4, so 10 +/- 12.65
    # expected drops at four sigma, i.e. at most 22
    topo = build_topology({**TWO_LAYERS, "links": {"crossings": [
        {"between": ["edge", "cloud"], "latency_ms": 1.0, "loss": 0.0001}]}})
    clock = SimClock()
    registry = MetricsRegistry(clock)
    net = Network(topo, clock, Random(9), registry, Trace())
    got = []
    net.endpoint("inter_layer:cloud").subscribe("bulk",
                                                lambda env: got.append(env.sequence))
    origin = NodeId("edge", "robot-1")
    total = 100_000
    for i in range(total):
        net.endpoint("inter_layer:edge").publish(MessageEnvelope(
            topic="bulk", payload=b"x", origin_node=origin,
            sequence=i + 1, sent_at=0,
        ))
    clock.run_until_idle(400_000)
    dropped = total - len(got)
    assert 0 <= dropped <= 22, dropped
    assert registry.totals("flow.drop.loss", "topic").get("bulk", 0) == dropped


# -- criterion 10 -----------------------------------------------------------


@pytest.mark.criterion(10, "fog-less topology still converges to exactly-once")
def test_missing_fog_layer_converges(tmp_path):
    trace = tmp_path / "trace.jsonl"
    world = World(build_topology(TWO_LAYERS), seed=4, trace_path=trace)
    world.start()
    settle(world, 10)
    svc1 = world.host.start_service(
        "robot-1", "service-1", advertises=[Advertise("telemetry", 5.0, 256)])
    svc2 = world.host.start_service("cloud-1", "service-2", requests=["telemetry"])
    settle(world, 200)

    t = "telemetry"
    assert {k for k in world.engines["edge"].bridges if k[0] == t} == {
        (t, "intra_node:robot-1@edge", "inter_layer:edge")}
    assert {k for k in world.engines["cloud"].bridges if k[0] == t} == {
        (t, "inter_layer:cloud", "intra_layer:cloud")}

    for i in range(5):
        world.host.publish(svc1, t, bytes([i]))
        settle(world, 250)
    world.drain()
    assert svc2.received == 5
    assert records(trace, "duplicate_delivery") == []
    assert world.issues() == []


# -- criterion 11 -----------------------------------------------------------


@pytest.mark.criterion(11, "80 Mbps config push reallocates within one sync cycle")
def test_config_push_reallocates_within_cycle():
    world = World(build_topology(THREE_LAYERS), seed=6)
    world.start()
    settle(world, 10)
    world.host.start_service(
        "robot-1", "cam", advertises=[Advertise("image", 30.0, 1_000_000)])
    world.host.start_service("cloud-1", "sink", requests=["image"])
    settle(world, 300)

    limiter = world.engines["edge"].limiters["node:robot-1"]
    before = limiter.buckets["image"].rate
    assert math.isclose(
        before, oracle_allocate(160.0, [("image", 30.0, 1_000_000)])["image"],
        rel_tol=1e-9)

    for layer in ("edge", "fog", "cloud"):
        body = copy.deepcopy(world.workers[layer].get_config().body)
        assert body["rate_limit"]["limit_mbps"] == 160.0
        body["rate_limit"]["limit_mbps"] = 80.0
        world.store.put(layer, body)

    world.run_for(6.0)  # one 5 s sync cycle plus reallocation margin
    after = limiter.buckets["image"].rate
    assert math.isclose(
        after, oracle_allocate(80.0, [("image", 30.0, 1_000_000)])["image"],
        rel_tol=1e-9)
    assert after < before
    for layer in world.workers:
        assert world.registry.counter("config.notices", {"layer": layer}).value == 1, layer
    world.drain()
    assert world.issues() == []


# -- criterion 12 -----------------------------------------------------------


@pytest.mark.criterion(12, "dead requester's bridges vanish and traffic stops")
def test_watchdog_teardown_stops_traffic(tmp_path):
    trace = tmp_path / "trace.jsonl"
    world = World(build_topology(TWO_LAYERS), seed=8, trace_path=trace)
    world.start()
    settle(world, 10)
    t = "alerts"
    pub = world.host.start_service(
        "robot-1", "notifier", advertises=[Advertise(t, 5.0, 128)])
    sub = world.host.start_service("cloud-1", "listener", requests=[t])
    settle(world, 300)

    for i in range(2):
        world.host.publish(pub, t, b"a%d" % i)
        settle(world, 250)
    assert sub.received == 2

    world.host.kill_service(sub)  # heartbeats stop; no clean withdraw
    # heartbeat ttl 3 s + one 1 s watchdog round + propagation margin
    settle(world, 4200)
    assert not [k for k in world.engines["edge"].bridges if k[0] == t]
    assert not [k for k in world.engines["cloud"].bridges if k[0] == t]

    second_batch = world.clock.now
    for i in range(5):
        world.host.publish(pub, t, b"b%d" % i)
        settle(world, 50)
    world.drain()
    crossings = records(trace, "xlink", topic=t)
    assert len([r for r in crossings if r["at"] < second_batch]) == 2
    assert len(crossings) == 2  # none from the second batch
    assert sub.received == 2  # nothing arrived after death
    assert world.issues() == []


# -- criterion 13 -----------------------------------------------------------


@pytest.mark.criterion(13, "codec is lossless and saves >=40% on the bundled corpus")
def test_compression_roundtrip_and_ratio():
    rng = Random(99)
    for size in (0, 1, 1024, 65_536, 1_000_000):
        payload = rng.randbytes(size)
        blob, original_len = codec.compress(payload, 10)
        assert original_len == size
        assert codec.decompress(blob) == payload

    corpus = synthetic_corpus()
    assert len(corpus) == 1 << 20
    blob, original_len = codec.compress(corpus, 10)
    assert original_len == len(corpus)
    assert len(blob) <= 0.6 * original_len, len(blob)


# -- criterion 14 -----------------------------------------------------------

# SHA-256 of every bundled world's metrics.txt, so that behaviour drift
# fails here too; a deliberate change re-pins them and says why in
# CHANGES.md. navigation compresses, and its metrics carry zlib output
# sizes, so its digests only hold under the zlib they were taken with;
# estop compresses nothing.
PINNED_METRICS = {
    "estop": (None, {
        "metrics.txt":
            "7aac51d7d5d3a0cb6e119255580f352b61ea38bde5454bafdb7b9f5f1bd0768f",
    }),
    "navigation": ("1.2.13", {
        "placement-cloud-gpu2/metrics.txt":
            "0519c2abb10ceb47ac1cd64cc10baf2fe5bb5890abee006f09accf6c748e492d",
        "placement-edge-gpu2/metrics.txt":
            "c1ddd3628f4a4ab03f8a05ebf8aec389a7b4eb12fee59b01066df034e12848ab",
        "placement-fog-gpu3/metrics.txt":
            "cd9e679e8e6886a0f57e7fbc04cc01c8e8aa0d71cc70b111c62412476ba72955",
        "placement-robot-1/metrics.txt":
            "6083d6af687feb439b9f9beb1b41dfe5619e1857fa3c9b90befc55d78c9f6216",
    }),
}


@pytest.mark.criterion(14, "equal-seed bundled runs export byte-identical metrics")
def test_bundled_scenarios_are_deterministic(tmp_path):
    for name in builtin_scenarios():
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        assert run_scenario(None, name, out_dir=str(out_a)) == 0
        assert run_scenario(None, name, out_dir=str(out_b)) == 0
        rel_a = sorted(p.relative_to(out_a) for p in out_a.rglob("metrics.txt"))
        rel_b = sorted(p.relative_to(out_b) for p in out_b.rglob("metrics.txt"))
        assert rel_a and rel_a == rel_b, name
        for rel in rel_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), \
                (name, str(rel))
        zlib_version, pinned = PINNED_METRICS[name]
        if zlib_version in (None, zlib.ZLIB_RUNTIME_VERSION):
            digests = {rel.as_posix(): hashlib.sha256((out_a / rel).read_bytes()).hexdigest()
                       for rel in rel_a}
            assert digests == pinned, name
