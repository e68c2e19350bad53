"""Long runs: what a world holds must not grow with virtual time, and
what it lets go of needs no cyclic garbage collector to free."""

import gc
import sys
import tracemalloc
from pathlib import Path

import pytest

from flowbridge.runner import World
from flowbridge.scenario import parse_scenario
from flowbridge.topology import build_topology

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
    tracemalloc.start()
    try:
        world = World(build_topology(scenario.topology), scenario.seed, config=scenario.config,
                      trace_path=tmp_path / "trace.jsonl")
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
    placements = scenario.sweep.nodes if scenario.sweep is not None else [None]
    for placement in placements:
        world = World(build_topology(scenario.topology), scenario.seed, config=scenario.config)
        world.start()
        world.setup_scenario(
            scenario, None if placement is None else {scenario.sweep.service: placement})
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            world.run_for(scenario.duration_s)
            world.drain()
            assert gc.collect() == 0, placement
        finally:
            if enabled:
                gc.enable()
        assert world.issues() == []
