"""End-to-end tests for scenario runs, report files, and the CLI."""

import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowbridge import runner
from flowbridge.cli import main
from flowbridge.report import (
    MetricsParseError,
    diff_runs,
    latency_by_topic,
    parse_metrics,
    percentile,
)
from flowbridge.monitor import MetricsRegistry
from flowbridge.ratelimit import HierarchicalLimiter
from flowbridge.runner import World, WorldError, plan, run_scenario
from flowbridge.scenario import ScenarioError, make_payload, parse_scenario
from flowbridge.simnet import SimClock
from flowbridge.topology import build_topology
from tracefile import records

TOPO = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1", "robot-2"]},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}


def mini_scenario(**extra):
    doc = {
        "name": "mini",
        "duration_s": 2.0,
        "seed": 3,
        "topology": TOPO,
        "services": [
            {"name": "scanner", "node": "robot-1",
             "advertises": [{"topic": "scan", "rate_hz": 10.0, "size": 512}]},
            {"name": "mapper", "node": "cloud-1", "requests": ["scan"]},
        ],
    }
    doc.update(extra)
    return doc


def with_service(index, **fields):
    doc = mini_scenario()
    doc["services"][index].update(fields)
    return doc


def with_stream(**fields):
    doc = mini_scenario()
    doc["services"][0]["advertises"][0].update(fields)
    return doc


def assert_no_outputs(out):
    assert not [p for p in out.rglob("*") if p.is_file()]


def write_scenario(tmp_path, doc, name="sc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- report helpers -----------------------------------------------------------


def test_percentile_interpolates():
    data = [1.0, 2.0, 3.0, 4.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 100) == 4.0
    assert percentile(data, 50) == 2.5
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_latency_pool_does_not_depend_on_binding_order():
    # summing these in the pooled order gives 2.5999999999999996 when node
    # a's series comes first and 2.6 when b's does; the pool, and so the
    # summary's mean, must not depend on which node heard first
    pools = []
    for order in (("a", "b"), ("b", "a")):
        registry = MetricsRegistry(SimClock())
        cells = {node: registry.gauge("mon.msg_latency_ms", {"topic": "t", "node": node})
                 for node in order}
        for node, values in (("a", (0.1, 0.2)), ("b", (2.3,))):
            for value in values:
                cells[node].observe(value)
        pools.append(latency_by_topic(registry))
    assert pools[0] == pools[1] == {"t": [0.1, 0.2, 2.3]}


def test_parse_metrics_drops_timestamps(tmp_path):
    path = tmp_path / "metrics.txt"
    path.write_text(
        "# flowbridge metrics v1\n"
        'counter flow.offered{topic="scan"} 20 1999\n'
        "counter plain 2 42\n"
        'gauge mon.rtt_half_ms{source="a"} last=51 n=2 mean=50.5 min=50 max=51 7\n'
    )
    parsed = parse_metrics(path)
    assert parsed == {
        'counter flow.offered{topic="scan"}': "20",
        "counter plain": "2",
        'gauge mon.rtt_half_ms{source="a"}': "last=51 n=2 mean=50.5 min=50 max=51",
    }


def test_parse_metrics_rejects_garbage(tmp_path):
    path = tmp_path / "metrics.txt"
    path.write_text("counter ok 1 2\nwat\n")
    with pytest.raises(MetricsParseError) as err:
        parse_metrics(path)
    assert ":2:" in str(err.value)


def test_diff_runs_spots_changes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "metrics.txt").write_text("counter x 1 5\ncounter y 2 5\n")
    identical, lines = diff_runs(a, b)
    assert identical and "runs match" in lines[0]

    (b / "metrics.txt").write_text("counter x 1 9\ncounter y 3 9\ncounter z 1 9\n")
    identical, lines = diff_runs(a, b)
    assert not identical
    assert any(l.startswith("differs: counter y") for l in lines)
    assert any(l.startswith(f"only in {b}: counter z") for l in lines)


# -- run_scenario -------------------------------------------------------------


def test_run_writes_all_outputs(tmp_path):
    sc = write_scenario(tmp_path, mini_scenario())
    out = tmp_path / "out"
    assert run_scenario(None, sc, out_dir=str(out)) == 0
    for name in ("metrics.txt", "summary.csv", "links.csv",
                 "bridges.csv", "trace.jsonl"):
        assert (out / name).exists(), name

    rows = {r["topic"]: r for r in read_csv(out / "summary.csv")}
    scan = rows["scan"]
    assert int(scan["offered"]) > 0
    assert 0 < int(scan["delivered"]) <= int(scan["offered"])
    assert scan["latency_mean_ms"] != ""

    links = {r["link"] for r in read_csv(out / "links.csv")}
    assert "edge->cloud" in links

    bridge_rows = read_csv(out / "bridges.csv")
    assert any(r["topic"] == "scan" and r["event"] == "install"
               for r in bridge_rows)

    with open(out / "trace.jsonl") as fh:
        events = [json.loads(line) for line in fh]
    assert events and all("ev" in e and "at" in e for e in events)


def test_run_same_seed_is_repeatable(tmp_path):
    sc = write_scenario(tmp_path, mini_scenario())
    assert run_scenario(None, sc, out_dir=str(tmp_path / "a")) == 0
    assert run_scenario(None, sc, out_dir=str(tmp_path / "b")) == 0
    identical, _ = diff_runs(tmp_path / "a", tmp_path / "b")
    assert identical


def test_run_seed_override_changes_nothing_structural(tmp_path):
    # different seed must still run clean; loss draws may differ
    sc = write_scenario(tmp_path, mini_scenario())
    assert run_scenario(None, sc, seed=99, out_dir=str(tmp_path / "s")) == 0


def test_run_duration_override_shortens(tmp_path):
    sc = write_scenario(tmp_path, mini_scenario())
    out = tmp_path / "short"
    assert run_scenario(None, sc, out_dir=str(out),
                        duration_override=0.5) == 0
    scan = {r["topic"]: r for r in read_csv(out / "summary.csv")}["scan"]
    # ~5 messages at 10 Hz over 0.5 s, each offered once per hop (3 hops);
    # the full 2 s run would sit around 60
    assert int(scan["offered"]) <= 20


def test_run_sweep_produces_placement_dirs(tmp_path):
    doc = mini_scenario(sweep={"service": "mapper",
                               "nodes": ["cloud-1", "robot-2"]})
    sc = write_scenario(tmp_path, doc)
    out = tmp_path / "sweep"
    assert run_scenario(None, sc, out_dir=str(out)) == 0
    for node in ("cloud-1", "robot-2"):
        assert (out / f"placement-{node}" / "metrics.txt").exists()
        assert (out / f"placement-{node}" / "summary.csv").exists()
    compare = read_csv(out / "placement_compare.csv")
    assert {r["placement"] for r in compare} == {"cloud-1", "robot-2"}
    assert all(int(r["delivered"]) > 0 for r in compare if r["topic"] == "scan")


def test_run_with_separate_topology_file(tmp_path):
    doc = mini_scenario()
    del doc["topology"]
    sc = write_scenario(tmp_path, doc)
    topo_path = tmp_path / "topo.json"
    topo_path.write_text(json.dumps(TOPO))
    out = tmp_path / "sep"
    assert run_scenario(str(topo_path), sc, out_dir=str(out)) == 0
    assert (out / "summary.csv").exists()


def test_run_without_any_topology_raises(tmp_path):
    doc = mini_scenario()
    del doc["topology"]
    sc = write_scenario(tmp_path, doc)
    with pytest.raises(WorldError):
        run_scenario(None, sc, out_dir=str(tmp_path / "x"))


# -- churn world ---------------------------------------------------------------

# Services start late and stop mid-run, so the stop path (withdraw,
# bridge teardown, the stopped service's timers) reaches every output
# file; the bundled scenarios never stop a service. Every payload stays
# below the compression threshold, so no zlib output reaches the files
# and the digests hold under any zlib.
CHURN_WORLD = {
    "name": "churn",
    "duration_s": 6.0,
    "seed": 11,
    "topology": {
        "layers": [
            {"name": "edge", "nodes": ["e0", "e1", "e2"], "external_protocol": True},
            {"name": "fog", "nodes": ["f0"]},
            {"name": "cloud", "nodes": ["c0"]},
        ],
        "links": {"crossings": [
            {"between": ["edge", "fog"], "latency_ms": 7.0, "jitter_ms": 2.0,
             "loss": 0.05, "bandwidth_mbps": 160},
            {"between": ["edge", "cloud"], "latency_ms": 27.0, "jitter_ms": 2.0,
             "bandwidth_mbps": 160},
        ]},
    },
    "services": [
        {"name": "cam", "node": "e0",
         "advertises": [{"topic": "img", "rate_hz": 20.0, "size": 2000}]},
        {"name": "lidar", "node": "e1", "stop_s": 4.2,
         "advertises": [{"topic": "scan", "rate_hz": 10.0, "size": 4000,
                         "payload": "compressible"}]},
        {"name": "planner", "node": "f0", "start_s": 1.0, "stop_s": 4.0,
         "requests": ["img", "scan"],
         "advertises": [{"topic": "plan", "rate_hz": 5.0, "size": 300}]},
        {"name": "viewer", "node": "c0", "start_s": 0.5,
         "requests": ["img", "plan"]},
        {"name": "logger", "node": "e2", "stop_s": 3.5,
         "requests": ["scan", "plan"]},
        {"name": "tele", "node": "e2", "stop_s": 5.0, "external": True,
         "advertises": [{"topic": "status", "rate_hz": 2.0, "size": 100,
                         "payload": "zeros"}]},
        {"name": "ops", "node": "c0", "start_s": 2.0, "requests": ["status"]},
        {"name": "late", "node": "f0", "start_s": 3.0, "stop_s": 4.5,
         "advertises": [{"topic": "burst", "rate_hz": 10.0, "size": 500}],
         "requests": ["status"]},
        {"name": "dash", "node": "e0", "requests": ["burst", "status"]},
    ],
    "probes": {"nodes": ["e0", "f0", "c0"], "ping_period_s": 1.0,
               "ping_timeout_s": 2.0},
}

PINNED_CHURN = {
    "metrics.txt":
        "96f64d20c863281278f86bc52516e83f83d7fd21600d97d8e890a5eb1ea8ff65",
    "summary.csv":
        "4c2ea0a4a5d8843ccb4def955579f7969a2f9077835c8ef3db06584414f08399",
    "links.csv":
        "0421f7408e5a9948d97977b39f0c0342739a2c86b05e83c4b446f7631b63c528",
    "bridges.csv":
        "008a9388da46c4da9ce30fb5b8995c1d5cc2d8eecc6954f46574f997d70e4de9",
    "trace.jsonl":
        "3734ab9cd3a58491e994774f6dfb4b563d69824ec8254124a5839a9f16c8e3e8",
}


def test_churn_world_outputs_are_pinned(tmp_path):
    sc = write_scenario(tmp_path, CHURN_WORLD)
    out = tmp_path / "churn"
    assert run_scenario(None, sc, out_dir=str(out)) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED_CHURN}
    assert digests == PINNED_CHURN


class NoScanEntries(dict):
    """A flow table record that refuses to be iterated whole."""

    def _scan(self, *args):
        raise AssertionError("full flow-table scan")

    __iter__ = keys = values = items = _scan


def test_churn_world_control_plane_never_scans_a_whole_table(monkeypatch, tmp_path):
    syncs = []
    sync = HierarchicalLimiter.sync_publishers

    def spy(limiter, topic, reg):
        syncs.append(sync(limiter, topic, reg))
        return syncs[-1]

    monkeypatch.setattr(HierarchicalLimiter, "sync_publishers", spy)
    scenario = parse_scenario(CHURN_WORLD)
    topology = build_topology(scenario.topology)
    world = World(topology, scenario.seed, plan(scenario, topology, scenario.duration_s).configs,
                  trace_path=tmp_path / "trace.jsonl")
    for engine in world.engines.values():
        engine.table.entries = NoScanEntries()
    world.start()
    world.setup_scenario(scenario)
    world.run_for(2.0)
    world.host.kill_service(world.handles["cam"])  # the watchdog withdraws it
    world.run_for(6.0)
    assert sum(len(e.table.entries) for e in world.engines.values()) > 0
    world.drain()
    assert world.issues() == []
    assert records(tmp_path / "trace.jsonl", "watchdog_withdraw", service="cam")
    # a topic's limiter registration is re-synced only when it changed
    assert syncs and all(syncs)


# -- World invariants --------------------------------------------------------


def planned_world(scenario):
    """A world of ``scenario`` on TOPO, with the configs its plan binds."""
    topology = build_topology(TOPO)
    return World(topology, seed=5,
                 configs=plan(scenario, topology, scenario.duration_s).configs)


def test_world_accounting_balances_after_drain():
    scenario = parse_scenario(mini_scenario())
    world = planned_world(scenario)
    world.start()
    world.setup_scenario(scenario)
    world.run_for(2.0)
    world.drain()
    rows = world.accounting()
    assert rows
    assert all(r["balance"] == 0 for r in rows)
    assert world.issues() == []


def test_drain_ends_every_recurring_timer(monkeypatch):
    calls = []  # (timer, whether the drain had begun)
    draining = [False]
    every = SimClock.every

    def spied(clock, delay, fn, *args):
        def call(*a):
            calls.append((fn.__qualname__, draining[0]))
            return fn(*a)
        every(clock, delay, call, *args)

    monkeypatch.setattr(SimClock, "every", spied)
    scenario = parse_scenario(mini_scenario(
        probes={"nodes": ["robot-1", "cloud-1"]},
        config={"edge": {"flow": {"reannounce_s": 0.5}},
                "cloud": {"config": {"sync_period_s": 1.0}}}))
    world = planned_world(scenario)
    world.start()
    world.setup_scenario(scenario)
    world.run_for(2.0)
    draining[0] = True
    world.drain(max_events=100_000)
    assert sum(map(len, world.clock._queues.values())) == 0
    assert {name for name, _ in calls} == {
        "_StreamDriver.tick", "PingProbe.cycle", "ServiceHost._heartbeat_tick",
        "ServiceHost._reannounce_tick", "FlowEngine._watchdog_scan", "ConfigWorker._sync_tick"}
    assert [name for name, late in calls if late] == []


def test_world_issues_flag_accounting_imbalance():
    world = World(build_topology(TOPO), seed=5)
    world.start()
    world.run_for(0.1)
    world.drain()
    world.registry.inc("flow.offered", {"topic": "ghost"}, 5)
    assert any("accounting imbalance" in msg and "ghost" in msg
               for msg in world.issues())


# -- stream frames -------------------------------------------------------------


def scan_world(payload, size=512, rate_hz=10.0, config=None):
    doc = mini_scenario(config=config or {})
    doc["services"][0]["advertises"][0].update(payload=payload, size=size, rate_hz=rate_hz)
    scenario = parse_scenario(doc)
    world = planned_world(scenario)
    world.start()
    world.setup_scenario(scenario)
    return world


def captured(world, scope, topic="scan"):
    got = []
    world.network.endpoint(scope).subscribe(topic, got.append)
    return got


def test_random_stream_repeats_its_first_draw(monkeypatch):
    draws = []

    def drawing(kind, size, rng):
        draws.append(make_payload(kind, size, rng))
        return draws[-1]

    monkeypatch.setattr(runner, "make_payload", drawing)
    world = scan_world("random")
    assert draws == []  # no frame is drawn before the first tick
    sent = captured(world, world.topology.default_scope_for("robot-1"))
    world.run_for(2.0)
    world.drain()
    assert len(sent) == world.handles["scanner"].published > 1
    (expected,) = draws
    assert all(env.payload is expected for env in sent)
    assert len(expected) == 512
    assert world.issues() == []


def test_compressible_stream_draws_every_frame():
    world = scan_world("compressible")
    sent = captured(world, world.topology.default_scope_for("robot-1"))
    world.run_for(2.0)
    world.drain()
    frames = [env.payload for env in sent]
    assert len(frames) > 1 and len(set(frames)) == len(frames)
    assert {len(f) for f in frames} == {512}


@pytest.mark.parametrize("payload,compressed", [("random", False), ("compressible", True)])
def test_large_frames_compress_at_the_crossing_only_when_they_shrink(payload, compressed):
    # large_threshold is below the frame size and compression is on, so every
    # frame entering the inter-layer scope is offered to the codec
    size = 200_000
    world = scan_world(payload, size=size, rate_hz=5.0, config={
        "edge": {"rate_limit": {"compression_level": 10, "large_threshold": 65536}}})
    crossed = captured(world, world.topology.inter_layer_scope("edge"))
    arrived = captured(world, world.topology.intra_layer_scope("cloud"))
    world.run_for(2.0)
    world.drain()
    assert crossed and arrived
    assert {env.compressed for env in crossed} == {compressed}
    if not compressed:  # a random frame ships as its original bytes
        assert {env.payload_len for env in crossed} == {size}
    assert {(env.compressed, env.payload_len) for env in arrived} == {(False, size)}
    assert world.issues() == []


# -- CLI ----------------------------------------------------------------------


def test_cli_scenarios_lists_bundled(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "navigation" in out and "estop" in out


def test_cli_run_and_diff_roundtrip(tmp_path):
    sc = write_scenario(tmp_path, mini_scenario())
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--scenario", sc, "--out", a,
                 "--log-level", "error"]) == 0
    assert main(["run", "--scenario", sc, "--out", b,
                 "--log-level", "error"]) == 0
    assert main(["diff", a, b]) == 0

    with open(tmp_path / "b" / "metrics.txt", "a") as fh:
        fh.write("counter injected.total 1 0\n")
    assert main(["diff", a, b]) == 1


def test_metrics_escape_label_values(tmp_path):
    # a newline would split a line, and a quote would read as a second
    # label: each series stays one line that diffs against itself
    topics = ["a\nb", 'q",x="1', "back\\slash"]
    doc = mini_scenario()
    doc["services"] = [
        {"name": "scanner", "node": "robot-1",
         "advertises": [{"topic": t, "rate_hz": 10.0, "size": 64} for t in topics]},
        {"name": "mapper", "node": "cloud-1", "requests": topics},
    ]
    run = str(tmp_path / "run")
    assert main(["run", "--scenario", write_scenario(tmp_path, doc), "--out", run,
                 "--log-level", "error"]) == 0
    lines = (tmp_path / "run" / "metrics.txt").read_text().splitlines()[1:]
    assert all(line.startswith(("counter ", "gauge ")) for line in lines)
    assert len(parse_metrics(tmp_path / "run" / "metrics.txt")) == len(lines)
    for escaped in (r'"a\nb"', r'"q\",x=\"1"', r'"back\\slash"'):
        assert any(line.startswith(f"counter flow.offered{{topic={escaped}}} ")
                   for line in lines)
    assert main(["diff", run, run]) == 0


def test_cli_error_exits_with_2(tmp_path, capsys):
    assert main(["run", "--scenario", "no-such-scenario"]) == 2
    assert "flowbridge: error:" in capsys.readouterr().err

    sc = write_scenario(tmp_path, mini_scenario())
    assert main(["run", "--scenario", sc, "--duration-override", "0",
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["diff", str(tmp_path / "missing-a"),
                 str(tmp_path / "missing-b")]) == 2


def test_cli_rejects_malformed_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "flowbridge: error:" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    pytest.param({"edge": {"monitor": {"ping_period_s": 1.0}}}, id="monitor-section"),
    pytest.param({"edge": {"flow": {"reanounce_s": 5.0}}}, id="misspelt-key"),
    pytest.param({"edge": {"rate_limit": {"bogus": 1}}}, id="rate-limit-key"),
    pytest.param({"edge": {"rate_limit": {"limit_mbps": -1}}}, id="rate-limit-value"),
    pytest.param({"edge": {"rate_limit": {"compression_level": 2.5}}}, id="rate-limit-type"),
    pytest.param({"edge": {"rate_limit": "fast"}}, id="section-not-object"),
    pytest.param({"edge": [1]}, id="layer-not-object"),
    pytest.param({"mist": {}}, id="unknown-layer"),
    pytest.param({"edge": {"flow": {"heartbeat_s": 2.0, "heartbeat_ttl_s": 0.5}}},
                 id="ttl-below-heartbeat"),
    pytest.param({"edge": {"flow": {"watchdog_s": 5.0}}}, id="ttl-below-watchdog"),
    # periods past the nanosecond clock's range overflowed once the world ran
    pytest.param({"edge": {"config": {"sync_period_s": 1e300}}}, id="sync-period-overflow"),
    pytest.param({"edge": {"flow": {"watchdog_s": 1e300, "heartbeat_ttl_s": 1e300}}},
                 id="watchdog-overflow"),
    # a period under 1 ns rounded to 0 ns: its timer re-fired at the same
    # instant forever, or re-announce silently switched off
    pytest.param({"edge": {"flow": {"heartbeat_s": 1e-10}}}, id="heartbeat-under-1ns"),
    pytest.param({"edge": {"flow": {"watchdog_s": 1e-10}}}, id="watchdog-under-1ns"),
    pytest.param({"edge": {"config": {"sync_period_s": 1e-10}}}, id="sync-period-under-1ns"),
    pytest.param({"edge": {"flow": {"reannounce_s": 1e-10}}}, id="reannounce-under-1ns"),
])
def test_cli_rejects_layer_config_it_cannot_serve(tmp_path, capsys, config):
    sc = write_scenario(tmp_path, mini_scenario(config=config))
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    assert "flowbridge: error:" in capsys.readouterr().err
    assert_no_outputs(tmp_path / "o")


def test_cli_rejects_duplicate_requests(tmp_path, capsys):
    # two subscriptions to one topic used to end the run with exit 3
    doc = mini_scenario()
    doc["services"][1]["requests"] = ["scan", "scan"]
    sc = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    assert "duplicate request" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("rate_hz", float("nan")),
    ("rate_hz", float("inf")),
    ("duration_s", float("nan")),
])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, field, value):
    # parsed only: a NaN used to end in a ValueError traceback (exit 1), and
    # an infinite rate_hz would have run with a 1 ns stream period
    doc = mini_scenario()
    if field == "duration_s":
        doc["duration_s"] = value
    else:
        doc["services"][0]["advertises"][0][field] = value
    sc = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    assert f"{field} must be a finite number" in capsys.readouterr().err
    assert_no_outputs(tmp_path / "o")


@pytest.mark.parametrize("value", ["nan", "inf", pytest.param("1e300", id="overflow")])
def test_cli_rejects_duration_override_it_cannot_run(tmp_path, capsys, value):
    sc = write_scenario(tmp_path, mini_scenario())
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o"),
                 "--duration-override", value]) == 2
    err = capsys.readouterr().err
    assert "flowbridge: error: --duration-override must be a finite number > 0" in err
    assert_no_outputs(tmp_path / "o")


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_run_scenario_rejects_duration_override_it_cannot_run(tmp_path, value):
    # the library call checks what the CLI checks: 0 would have run the
    # document's whole duration, and the others failed later or oddly
    with pytest.raises(ScenarioError, match="--duration-override must be a finite number > 0"):
        run_scenario(None, "estop", out_dir=str(tmp_path / "o"), duration_override=value)
    assert not (tmp_path / "o").exists()


def test_cli_rejects_start_after_overridden_end(tmp_path, capsys):
    # within the document's 2 s, but after the 1 s the override runs
    sc = write_scenario(tmp_path, with_service(1, start_s=1.5))
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o"),
                 "--duration-override", "1"]) == 2
    assert "start_s 1.5 is after the run's end at 1 s" in capsys.readouterr().err
    assert_no_outputs(tmp_path / "o")


def test_cli_runs_a_stop_after_the_end_in_the_drain(tmp_path):
    sc = write_scenario(tmp_path, with_service(1, stop_s=5.0))
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o"),
                 "--log-level", "error"]) == 0
    assert records(tmp_path / "o" / "trace.jsonl", "service_stopped", service="mapper")


def _with_links(links):
    return mini_scenario(topology={**TOPO, "links": links})


@pytest.mark.parametrize("doc", [
    pytest.param(_with_links({"defaults": {"crossing": {"loss": 2}}}), id="loss-above-1"),
    pytest.param(_with_links({"defaults": {"crossing": {"latency_ms": "5"}}}),
                 id="latency-string"),
    pytest.param(_with_links({"crossings": [5]}), id="crossing-not-object"),
    pytest.param(_with_links({"defaults": {"warp": {}}}), id="unknown-kind"),
    pytest.param(_with_links({"crossings": [{"between": ["edge", "cloud"],
                                             "latency_ms": float("nan")}]}),
                 id="nan-latency"),
    pytest.param(_with_links({"defaults": {"intra_node": {"jitter_ms": float("inf")}}}),
                 id="infinite-jitter"),
    pytest.param(_with_links([]), id="links-not-object"),
    pytest.param(mini_scenario(topology={"layers": [
        TOPO["layers"][0], {"name": "fog", "nodes": "f1"}, TOPO["layers"][1]]}),
                 id="nodes-string"),
    pytest.param(mini_scenario(topology={"layers": [
        {**TOPO["layers"][0], "external_protocol": "no"}, TOPO["layers"][1]]}),
                 id="external-protocol-string"),
    pytest.param(mini_scenario(topology={"layers": [
        {"name": "x@edge", "nodes": ["a", "robot-1"]}, {"name": "edge", "nodes": ["a@x"]},
        TOPO["layers"][1]]}), id="at-sign-in-names"),
    # scenarios the topology cannot serve: each used to fail only once the
    # world reached it, after writing earlier placements' files, or, for a
    # reserved topic, with a traceback
    pytest.param(mini_scenario(services=[
        *mini_scenario()["services"],
        {"name": "late", "node": "ghost", "start_s": 1.0}]), id="unknown-service-node"),
    pytest.param(mini_scenario(sweep={"service": "mapper", "nodes": ["cloud-1", "ghost"]}),
                 id="unknown-sweep-node"),
    pytest.param(mini_scenario(probes={"nodes": ["robot-1", "ghost"]}), id="unknown-probe-node"),
    pytest.param(mini_scenario(services=[
        *mini_scenario()["services"],
        {"name": "gateway", "node": "cloud-1", "external": True}]), id="no-external-scope"),
    pytest.param(mini_scenario(services=[
        {"name": "spoof", "node": "robot-1",
         "advertises": [{"topic": "__flow/advertise", "rate_hz": 1.0, "size": 8}]}]),
                 id="reserved-advertise"),
    pytest.param(mini_scenario(services=[
        {"name": "snoop", "node": "robot-1", "requests": ["__config/notice"]}]),
                 id="reserved-request"),
    # values that used to be coerced: "false" ran as true, null as the
    # topic "None", "12" and 10.9 as 12 and 10 bytes, true as 1 Hz; an
    # empty topic passed parsing and crashed the run
    pytest.param(mini_scenario(
        topology={"layers": [{**TOPO["layers"][0], "external_protocol": True}, TOPO["layers"][1]]},
        services=[{"name": "gateway", "node": "robot-1", "external": "false"}]),
                 id="external-string"),
    pytest.param(with_service(1, requests=[None]), id="request-null"),
    pytest.param(with_service(1, requests=[""]), id="request-empty"),
    pytest.param(with_service(1, name=7), id="service-name-number"),
    pytest.param(with_stream(topic=1), id="topic-number"),
    pytest.param(with_stream(size="12"), id="size-string"),
    pytest.param(with_stream(size=10.9), id="size-fraction"),
    pytest.param(with_stream(rate_hz=True), id="rate-bool"),
    pytest.param(mini_scenario(seed=1.7), id="seed-fraction"),
    # a scenario name was coerced with str(), and empty layer and node names
    # made scope keys like "intra_node:@" and link names like "->cloud"
    pytest.param(mini_scenario(name=None), id="scenario-name-null"),
    pytest.param(mini_scenario(name=5), id="scenario-name-number"),
    pytest.param(mini_scenario(name={"x": 1}), id="scenario-name-object"),
    pytest.param(mini_scenario(topology={"layers": [
        {"name": "", "nodes": ["robot-1"]}, TOPO["layers"][1]]}), id="empty-layer-name"),
    pytest.param(mini_scenario(topology={"layers": [
        {"name": "edge", "nodes": ["robot-1", ""]}, TOPO["layers"][1]]}), id="empty-node-name"),
    # times the nanosecond clock cannot hold overflowed once the world ran;
    # a rate above 1 GHz ran at a 1 ns period
    pytest.param(mini_scenario(duration_s=1e300), id="duration-overflow"),
    pytest.param(with_service(1, start_s=1e300), id="start-overflow"),
    pytest.param(with_service(1, stop_s=1e300), id="stop-overflow"),
    pytest.param(mini_scenario(probes={"nodes": ["robot-1"], "ping_period_s": 1e300}),
                 id="ping-period-overflow"),
    pytest.param(mini_scenario(probes={"nodes": ["robot-1"], "ping_period_s": 1e-10}),
                 id="ping-period-under-1ns"),
    pytest.param(with_stream(rate_hz=1e-300), id="rate-period-overflow"),
    pytest.param(mini_scenario(duration_s=1e-6, services=[
        {"name": "scanner", "node": "robot-1",
         "advertises": [{"topic": "scan", "rate_hz": 2e9, "size": 8}]}]),
                 id="rate-above-1ghz"),
    pytest.param(_with_links({"defaults": {"crossing": {"latency_ms": 1e300}}}),
                 id="latency-overflow"),
    # one byte took longer than the clock's range to serialize: 1e-305
    # overflowed at the first config pull, 1e-300 stamped counters at 3.9e302 ns
    pytest.param(_with_links({"crossings": [{"between": ["edge", "cloud"],
                                             "bandwidth_mbps": 1e-305}]}),
                 id="bandwidth-overflow"),
    pytest.param(_with_links({"crossings": [{"between": ["edge", "cloud"],
                                             "bandwidth_mbps": 1e-300}]}),
                 id="bandwidth-beyond-the-clock"),
    # the later entry of a pair named twice, in either order, won silently
    pytest.param(_with_links({"crossings": [{"between": ["edge", "cloud"], "latency_ms": 5.0},
                                            {"between": ["cloud", "edge"], "latency_ms": 50.0}]}),
                 id="duplicate-crossing-pair"),
    # a start after the end crashed the drain with a traceback, or started
    # the service in the drain; a repeated probe node crashed the world,
    # and a repeated sweep node ran twice into one placement directory
    pytest.param(with_service(1, start_s=17.0), id="start-long-after-end"),
    pytest.param(with_service(1, start_s=3.0), id="start-after-end"),
    pytest.param(mini_scenario(probes={"nodes": ["robot-1", "robot-1"]}),
                 id="duplicate-probe-node"),
    pytest.param(mini_scenario(sweep={"service": "mapper", "nodes": ["cloud-1", "cloud-1"]}),
                 id="duplicate-sweep-node"),
])
def test_cli_rejects_malformed_topology(tmp_path, capsys, doc):
    # each used to exit 1 with a traceback, crash mid-run (NaN, Infinity),
    # or run a misread topology: "f1" as the two nodes "f" and "1",
    # external_protocol "no" as true, and nodes a@x@edge twice over one scope
    sc = write_scenario(tmp_path, doc)
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o")]) == 2
    assert "flowbridge: error:" in capsys.readouterr().err
    assert not list((tmp_path / "o").rglob("metrics.txt"))
    # the trace is opened only once the world has accepted its input
    assert not list((tmp_path / "o").rglob("trace.jsonl"))


@pytest.mark.parametrize("doc", [
    pytest.param(_with_links({"defaults": {"bogus": {}}}), id="unknown-link-kind"),
    pytest.param(mini_scenario(config={"mars": {}}), id="config-for-unknown-layer"),
])
def test_cli_rejects_what_the_topology_cannot_serve_before_any_output(tmp_path, capsys,
                                                                      caplog, doc):
    # both used to create --out, a nested one too, and log the run's first
    # line before the world that read them failed
    sc = write_scenario(tmp_path, doc)
    with caplog.at_level(logging.INFO, logger="flowbridge"):
        assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o" / "nested")]) == 2
    assert "flowbridge: error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert not [r for r in caplog.records if r.getMessage().startswith("run ")]


def test_cli_has_no_real_time_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "estop", "--real-time", "--out", str(tmp_path),
              "--duration-override", "0.1"])
    assert exc.value.code == 2


def test_cli_out_defaults_to_env(tmp_path, monkeypatch):
    sc = write_scenario(tmp_path, mini_scenario())
    dest = tmp_path / "envout"
    monkeypatch.setenv("FLOWBRIDGE_OUT", str(dest))
    assert main(["run", "--scenario", sc, "--log-level", "error"]) == 0
    assert (dest / "metrics.txt").exists()


def test_cli_reports_invariant_violations_with_3(tmp_path, monkeypatch):
    sc = write_scenario(tmp_path, mini_scenario())
    monkeypatch.setattr(World, "issues", lambda self: ["forced failure"])
    assert main(["run", "--scenario", sc, "--out", str(tmp_path / "v"),
                 "--log-level", "error"]) == 3


def test_a_run_past_the_clocks_range_exits_3_through_its_issues(tmp_path, caplog):
    # the crossing passes the per-byte bandwidth floor, but a 512 B frame
    # takes 4.1e12 s on it, so the drain runs to 1.7e21 ns, past the
    # clock's range. Nothing else fails there: the one issue says so, the
    # run exits 3, and no error escapes it
    doc = _with_links({"crossings": [{"between": ["edge", "cloud"], "bandwidth_mbps": 1e-15}]})
    sc = write_scenario(tmp_path, doc)
    with caplog.at_level(logging.ERROR, logger="flowbridge"):
        assert main(["run", "--scenario", sc, "--out", str(tmp_path / "o")]) == 3
    issues = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert issues[0].startswith("  invariant: virtual time ran to 1728")
    assert issues[0].endswith("past the clock's range of 9223372036854775807 ns")
    assert len(issues) == 1, issues
    assert (tmp_path / "o" / "metrics.txt").exists()


def test_importing_the_program_loads_neither_dataclasses_nor_inspect():
    # together they cost about half the package's import, which every run
    # pays in its set-up; a fresh interpreter, because this one has both
    code = ("import sys; bare = set(sys.modules); import flowbridge.runner, flowbridge.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
