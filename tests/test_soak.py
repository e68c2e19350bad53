"""Long runs: what a world holds must not grow with virtual time, what
it lets go of needs no cyclic garbage collector to free, and its reports
come from what it kept, not from the files it wrote."""

import builtins
import csv
import gc
import io
import os
import sys
import tracemalloc
from pathlib import Path

import pytest

from flowbridge import runner
from flowbridge.runner import World, plan
from flowbridge.scenario import builtin_scenarios, parse_scenario
from flowbridge.topology import build_topology
from oracles import oracle_bridge_rows

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
import ladder  # noqa: E402
import workloads  # noqa: E402


def traced_bytes(pattern: str) -> int:
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, pattern)])
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_trace_memory_does_not_grow_with_run_length(tmp_path):
    # the 80-service ladder streams thousands of trace records per
    # virtual second; they go to the file and nowhere else
    scenario = parse_scenario(ladder.generate(1, 80, 40.0))
    topology = build_topology(scenario.topology)
    configs = plan(scenario, topology, scenario.duration_s).configs
    tracemalloc.start()
    try:
        world = World(topology, scenario.seed, configs, trace_path=tmp_path / "trace.jsonl")
        world.start()
        world.setup_scenario(scenario)
        world.run_for(5.0)
        at_5s = traced_bytes("*flowbridge/tracing.py")
        world.run_for(15.0)
        at_20s = traced_bytes("*flowbridge/tracing.py")
    finally:
        tracemalloc.stop()
    world.drain()
    assert world.issues() == []
    assert abs(at_20s - at_5s) < 64 * 1024, (at_5s, at_20s)


def gauge_samples(world: World) -> int:
    registry = world.registry
    return sum(len(series) for name in registry._gauges
               for series in registry.gauge_sets(name).values())


def test_a_gauge_sample_costs_at_most_12_bytes():
    # a sample per delivery is what still grows with run length: a typed
    # array keeps its value in 8 B and the array's spare tail, and the
    # cell keeps one time, that of its last sample. Two arrays, a time per
    # sample, took about 17 B; a list of (int, float) tuples about 88 B
    scenario = parse_scenario(ladder.generate(1, 80, 12.0))
    topology = build_topology(scenario.topology)
    configs = plan(scenario, topology, scenario.duration_s).configs
    tracemalloc.start()
    try:
        world = World(topology, scenario.seed, configs)
        world.start()
        world.setup_scenario(scenario)
        readings = []
        for duration in (4.0, 8.0):  # to 4 s, then to 12 s
            world.run_for(duration)
            readings.append((traced_bytes("*flowbridge/monitor.py")
                             + traced_bytes("*flowbridge/sdk.py"), gauge_samples(world)))
    finally:
        tracemalloc.stop()
    world.drain()
    assert world.issues() == []
    (bytes_4s, samples_4s), (bytes_12s, samples_12s) = readings
    assert samples_12s - samples_4s > 10_000, readings
    per_sample = (bytes_12s - bytes_4s) / (samples_12s - samples_4s)
    assert per_sample <= 12, (per_sample, readings)


def short_doc(workload: str) -> dict:
    """A short version of a benchmark workload's document, seed 1."""
    if workload.startswith("ladder-"):
        return ladder.generate(1, workloads.LADDER_SERVICES, 4.0,
                               churn=workload == "ladder-churn")
    doc = workloads.scenario_doc(workload, 1, ROOT / "src")
    doc["duration_s"] = 2.0
    return doc


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_run_leaves_no_reference_cycles(workload):
    # every object a run drops is freed by its reference count alone; a
    # removed bridge whose subscription's callback still held it would be
    # a cycle left for the collector
    scenario = parse_scenario(short_doc(workload))
    topology = build_topology(scenario.topology)
    run = plan(scenario, topology, scenario.duration_s)
    for tag, placement in run.placements.items():
        world = World(topology, scenario.seed, run.configs)
        world.start()
        world.setup_scenario(scenario, placement)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            world.run_for(run.duration_s)
            world.drain()
            assert gc.collect() == 0, tag
        finally:
            if enabled:
                gc.enable()
        assert world.issues() == []


def test_bridge_events_do_not_grow_with_run_length():
    # each service starts and stops at most once and a re-announce
    # changes no bridge: the 12 s run crosses a re-announce period
    scenario = parse_scenario(ladder.generate(1, 80, 12.0))
    topology = build_topology(scenario.topology)
    world = World(topology, scenario.seed, plan(scenario, topology, scenario.duration_s).configs)
    world.start()
    world.setup_scenario(scenario)
    world.run_for(4.0)
    at_4s = len(world.network.bridge_events)
    world.run_for(8.0)
    at_12s = len(world.network.bridge_events)
    world.drain()
    assert world.issues() == []
    assert at_4s > 0 and at_12s == at_4s, (at_4s, at_12s)


RUNS = [f"workload:{w}" for w in sorted(workloads.WORKLOADS)] + builtin_scenarios()


def scenario_ref(run: str, tmp_path: Path) -> str:
    """A document for ``run``: a workload's short version, written under
    ``tmp_path``, or a bundled scenario's name."""
    if not run.startswith("workload:"):
        return run
    doc = tmp_path / "doc.json"
    doc.write_text(ladder.dumps(short_doc(run.removeprefix("workload:"))))
    return str(doc)


def run_dirs(out: Path) -> list[Path]:
    return sorted(path.parent for path in out.rglob("trace.jsonl"))


@pytest.mark.parametrize("run", RUNS)
def test_bridges_csv_matches_the_trace_scan(run, tmp_path):
    out = tmp_path / "out"
    assert runner.run_scenario(None, scenario_ref(run, tmp_path), out_dir=str(out)) == 0
    dirs = run_dirs(out)
    assert dirs
    for run_dir in dirs:
        with open(run_dir / "bridges.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == oracle_bridge_rows(run_dir / "trace.jsonl"), run_dir
        assert any(row["event"] == "install" for row in rows), run_dir


@pytest.mark.parametrize("run", RUNS)
def test_a_run_reads_none_of_its_own_files(run, tmp_path, monkeypatch):
    out = (tmp_path / "out").resolve()
    ref = scenario_ref(run, tmp_path)
    reads = []
    real_open = builtins.open

    def watched_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)) and ("r" in mode or "+" in mode):
            path = Path(os.fsdecode(file)).resolve()
            if path.is_relative_to(out):
                reads.append(path)
        return real_open(file, mode, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", watched_open)
        patch.setattr(io, "open", watched_open)
        assert runner.run_scenario(None, ref, out_dir=str(out)) == 0
    assert run_dirs(out)
    assert reads == []
