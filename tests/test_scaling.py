"""Work per publish and memory per service stay flat as the ladder grows.

The simulator's work is deterministic and linear in the size of the
world, so its counts, unlike its wall time, need no host to judge them.
This test runs the steady ladder (`perfbench/ladder.py`) for 4 virtual
seconds at 40, 80 and 160 services, in process; under the ``ci``
Hypothesis profile it adds 320 and 640. Per nominal publish (services x
10 Hz x 4 s) it records:

* the clock's events, and the ``flow.offered``, ``flow.forwarded`` and
  ``link.msgs`` totals;
* cProfile's call counts of the steps a declaration costs:
  `compute_required_bridges`, `FlowTable.store`,
  `FlowEngine._sync_limiters` and `HierarchicalLimiter.sync_publishers`;

and, in a second run of each size, the `tracemalloc` peak per service.
Each ratio must stay within a band over the sizes (``BANDS``, with the
reason each may move at all). A cost that grows with the world per
publish or per service, such as an announce that reconciles every known
topic or an engine that keeps a per-service copy of its table, moves its
ratio by the growth of the world itself: 4x from 40 to 160 services.
Only counts are compared, within one run, so the host and the
interpreter version do not matter.

What it cannot see: a loop that makes no calls and keeps no memory, such
as a scan of ``FlowEngine.limiters`` inside one function, changes no
count here. Its cost shows only in wall time, which the benchmark
measures.

Parse and set-up hold such loops: a duplicate check such as
``names.count`` per service name, or a name looked up in a list of every
service, runs inside C and makes no call cProfile counts. So under the
``ci`` profile two more tests time the parse, and the set-up (`World`,
`start`, `setup_scenario`), of the 4n-service ladder against the
n-service one, where linear work takes about 4x.
"""

import cProfile
import gc
import pstats
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import settings

from flowbridge import flow, ratelimit
from flowbridge.runner import World
from flowbridge.scenario import parse_scenario
from flowbridge.topology import build_topology

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import ladder  # noqa: E402

DURATION_S = 4.0

PROFILED = {
    "compute_required_bridges": flow.compute_required_bridges,
    "FlowTable.store": flow.FlowTable.store,
    "FlowEngine._sync_limiters": flow.FlowEngine._sync_limiters,
    "HierarchicalLimiter.sync_publishers": ratelimit.HierarchicalLimiter.sync_publishers,
}

# the largest max / min of each ratio over the sizes
BANDS = {
    # copies per publish follow the share of requests that cross a node
    # or a layer, which moves with the ladder's node counts (edge n/4,
    # fog n/20, cloud always 2) by a few percent per doubling
    "events": 1.25,
    "flow.offered": 1.25,
    "flow.forwarded": 1.25,
    "link.msgs": 1.25,
    # one store, and with it one reconcile and one limiter sync, per
    # declaration and engine: 3 engines x (1 advertise + 1.5 requests on
    # average) per 40 publishes; the mean request count of n services
    # moves by about 0.5 / sqrt(n), 8% at 40
    "compute_required_bridges": 1.25,
    "FlowTable.store": 1.25,
    "FlowEngine._sync_limiters": 1.25,
    # one call per limiter registration that changes, that is per topic
    # requested from another layer: about 20 calls at 40 services, so
    # the draw of the service graph alone moves it by up to 45% (2 sigma)
    "HierarchicalLimiter.sync_publishers": 2.0,
    # a constant per service, plus the world's fixed part (topology,
    # config, one engine per layer) shared among the services
    "tracemalloc KiB per service": 1.25,
}


def ci_profile() -> bool:
    return settings.default == settings.get_profile("ci")


def sizes() -> tuple[int, ...]:
    if ci_profile():
        return (40, 80, 160, 320, 640)
    return (40, 80, 160)


def run_ladder(doc: dict) -> World:
    scenario = parse_scenario(doc)
    world = World(build_topology(scenario.topology), scenario.seed, config=scenario.config)
    world.start()
    world.setup_scenario(scenario)
    world.run_for(DURATION_S)
    world.drain()
    assert world.issues() == []
    return world


def ratios(services: int) -> dict[str, float]:
    doc = ladder.generate(1, services, DURATION_S)
    publishes = services * ladder.TOPIC_RATE_HZ * DURATION_S

    profile = cProfile.Profile()
    profile.enable()
    try:
        world = run_ladder(doc)
    finally:
        profile.disable()
    calls = pstats.Stats(profile).stats
    out = {"events": world.clock.events_processed / publishes}
    for name, label in (("flow.offered", "topic"), ("flow.forwarded", "topic"),
                        ("link.msgs", "link")):
        out[name] = sum(world.registry.totals(name, label).values()) / publishes
    for name, fn in PROFILED.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = calls[key][1] / publishes

    tracemalloc.start()
    try:
        run_ladder(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["tracemalloc KiB per service"] = peak / 1024 / services
    return out


def test_work_per_publish_and_memory_per_service_stay_flat():
    table = {n: ratios(n) for n in sizes()}
    shown = "\n".join(f"{n:4d} " + " ".join(f"{k}={v:.4g}" for k, v in row.items())
                      for n, row in table.items())
    for name, band in BANDS.items():
        values = [row[name] for row in table.values()]
        assert min(values) > 0, (name, shown)
        assert max(values) / min(values) <= band, (name, shown)


# parse and set-up times of n and 4n services; a term quadratic in the
# services would take 16x. Set-up starts from 1280: at 640 a start that
# looked its name up in a list of every service still read under 6x
PARSE_SERVICES = 640
PARSE_RATIO = 6.0
SETUP_SERVICES = 1280
SETUP_RATIO = 6.0


def least_seconds(step: Callable[[], object], repeats: int) -> float:
    """The least of ``repeats`` times of ``step()``, each with the collector
    off, as the clock runs events, and after a collection that frees what
    the one before left."""
    best = float("inf")
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            start = time.perf_counter()
            step()
            best = min(best, time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return best


def parse_seconds(services: int) -> float:
    """The least of five parse times of the ``services``-service ladder."""
    doc = ladder.generate(1, services, DURATION_S)
    return least_seconds(lambda: parse_scenario(doc), 5)


def setup_seconds(services: int) -> float:
    """The least of three set-up times of the ``services``-service ladder:
    `World`, `World.start` and `World.setup_scenario`, from a parsed
    document and its built topology."""
    scenario = parse_scenario(ladder.generate(1, services, DURATION_S))
    topology = build_topology(scenario.topology)

    def set_up() -> None:
        world = World(topology, scenario.seed, config=scenario.config)
        world.start()
        world.setup_scenario(scenario)

    return least_seconds(set_up, 3)


def test_parse_time_grows_linearly_with_the_services():
    if not ci_profile():
        pytest.skip("a timing ratio: run under the ci profile only")
    small, large = parse_seconds(PARSE_SERVICES), parse_seconds(4 * PARSE_SERVICES)
    assert large / small <= PARSE_RATIO, (small, large)


def test_setup_time_grows_linearly_with_the_services():
    if not ci_profile():
        pytest.skip("a timing ratio: run under the ci profile only")
    small, large = setup_seconds(SETUP_SERVICES), setup_seconds(4 * SETUP_SERVICES)
    assert large / small <= SETUP_RATIO, (small, large)
