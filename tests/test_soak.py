"""Long runs: what a world holds must not grow with virtual time."""

import sys
import tracemalloc
from pathlib import Path

from flowbridge.runner import World
from flowbridge.scenario import parse_scenario
from flowbridge.topology import build_topology

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import ladder  # noqa: E402


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
