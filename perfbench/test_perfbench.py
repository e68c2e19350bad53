"""Self-tests of the benchmark's own code (not of flowbridge).

    python3 -m pytest perfbench/test_perfbench.py

Run from the checkout root; the scenario parser comes from `src/`.
"""

from __future__ import annotations

import collections
import gc
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ladder  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from flowbridge.scenario import parse_scenario  # noqa: E402

SEEDS = (0, 1, 7, 12345)
VARIANTS = (False, True)


@pytest.mark.parametrize("churn", VARIANTS)
def test_same_seed_same_bytes(churn):
    for seed in SEEDS:
        a = ladder.dumps(ladder.generate(seed, churn=churn))
        b = ladder.dumps(ladder.generate(seed, churn=churn))
        assert a == b
    assert ladder.dumps(ladder.generate(1, churn=churn)) != ladder.dumps(
        ladder.generate(2, churn=churn))


@pytest.mark.parametrize("churn", VARIANTS)
def test_documents_parse(churn):
    for seed in SEEDS:
        sc = parse_scenario(ladder.generate(seed, churn=churn))
        assert sc.duration_s == workloads.LADDER_DURATION_S


@pytest.mark.parametrize("services", (20, 80, 160))
@pytest.mark.parametrize("churn", VARIANTS)
def test_documented_sizes(services, churn):
    doc = ladder.generate(3, services=services, churn=churn)
    layers = {layer["name"]: layer["nodes"] for layer in doc["topology"]["layers"]}
    assert [len(layers[n]) for n in ("edge", "fog", "cloud")] == [
        services // 4, services // 20, 2]
    nodes = {n for names in layers.values() for n in names}
    specs = doc["services"]
    assert len(specs) == services
    for spec in specs:
        assert spec["node"] in nodes
        assert spec["advertises"] == [{"topic": "t" + spec["name"][1:], "rate_hz": 10.0,
                                       "size": 512, "payload": "random"}]
        assert 1 <= len(spec["requests"]) <= ladder.MAX_REQUESTS
    churners = [s for s in specs if "start_s" in s]
    if churn:
        assert len(churners) == (services + 2) // 3
        for s in churners:
            assert 0 < s["start_s"] <= doc["duration_s"] / 2
            assert s["start_s"] < s["stop_s"] < doc["duration_s"]
    else:
        assert not churners and not any("stop_s" in s for s in specs)


@pytest.mark.parametrize("churn", VARIANTS)
def test_requests_distinct_and_advertised(churn):
    for seed in SEEDS:
        specs = ladder.generate(seed, churn=churn)["services"]
        advertised = {a["topic"] for s in specs for a in s["advertises"]}
        for s in specs:
            own = {a["topic"] for a in s["advertises"]}
            assert len(set(s["requests"])) == len(s["requests"])
            assert not own & set(s["requests"])
            assert set(s["requests"]) <= advertised


@pytest.mark.parametrize("churn", VARIANTS)
def test_seeds_relabel_one_shape(churn):
    """Every seed describes the same work: same per-layer placement counts,
    same request fan-in profile, same churn windows."""
    def shape(doc):
        layer_of = {n: layer["name"] for layer in doc["topology"]["layers"]
                    for n in layer["nodes"]}
        fan_in = collections.Counter(t for s in doc["services"] for t in s["requests"])
        return (
            sorted(collections.Counter(layer_of[s["node"]] for s in doc["services"]).items()),
            sorted(collections.Counter(len(s["requests"]) for s in doc["services"]).items()),
            sorted(fan_in.values()),
            sorted((s.get("start_s"), s.get("stop_s")) for s in doc["services"]
                   if "start_s" in s),
        )
    shapes = {repr(shape(ladder.generate(seed, churn=churn))) for seed in SEEDS}
    assert len(shapes) == 1


def test_bundled_workloads_take_the_seed():
    src = HERE.parent / "src"
    for name in ("nav-sweep", "estop-1mb"):
        a = workloads.scenario_doc(name, 1, src)
        b = workloads.scenario_doc(name, 2, src)
        assert a["seed"] != b["seed"]
        assert {k: v for k, v in a.items() if k != "seed"} == {
            k: v for k, v in b.items() if k != "seed"}
        parse_scenario(a)
    assert set(workloads.WORKLOADS) == {"nav-sweep", "estop-1mb", "ladder-steady", "ladder-churn"}


def test_phases_partition_the_process():
    # world 0: built at 10, runs 40..90, report until world 1 is built at 95;
    # world 1: runs 100..150, report until the end at 160
    marks = [("init", 0, 10), ("run", 0, 40), ("drained", 0, 90),
             ("init", 1, 95), ("run", 1, 100), ("drained", 1, 150)]
    ph = worker.phases(marks, spawn_ns=0, end_ns=160)
    assert ph == {"setup_s": 45e-9, "wall_s": 100e-9, "report_s": 15e-9}
    assert sum(ph.values()) == pytest.approx(160e-9 - 0)


def test_span_self_times_sum_to_root():
    tr = tracer.Tracer()
    leaf = tr.span(lambda: sum(range(1000)), "leaf")
    mid = tr.span(lambda: [leaf() for _ in range(3)], "mid")
    root = tr.span(lambda: (mid(), leaf()), "root")
    root()
    totals = tr.span_totals()
    assert totals["leaf"]["calls"] == 4 and totals["mid"]["calls"] == 1
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(totals["root"]["incl_s"])
    assert totals["mid"]["incl_s"] >= totals["mid"]["self_s"] >= 0


def test_percentile_is_nearest_rank():
    values = sorted(float(v) for v in range(1, 101))
    assert tracer.percentile(values, 50) == 50.0
    assert tracer.percentile(values, 99) == 99.0
    assert tracer.percentile([3.0], 99) == 3.0
    assert tracer.percentile([], 50) == 0.0


def test_slicing_leaves_the_clock_unchanged():
    from flowbridge.simnet import SimClock

    def build():
        clock, log = SimClock(), []

        def fire(n):
            log.append((clock.now, n))
            if n < 400:
                clock.call_in(1_000_000 + n * 37_003 % 5_000_000, fire, n + 1)
                if n % 7 == 0:
                    clock.call_in(0, fire, n + 1000)
        for n in range(5):
            clock.schedule(n * 3_000_000, fire, n)
        return clock, log

    whole, whole_log = build()
    whole.run_until(600_000_000)
    part, part_log = build()
    meter = reference.Meter()
    processed = worker.sliced(part, part.run_until, meter)(600_000_000)
    assert part_log == whole_log and part.now == whole.now
    assert processed == whole.events_processed == part.events_processed
    assert len(meter.times_ns) >= 2


def test_meter_time_is_left_out_of_program_time():
    meter = reference.Meter()
    t0 = meter.prog_ns()
    wall0 = reference.now_ns()
    meter.run(3)
    wall = reference.now_ns() - wall0
    assert len(meter.times_ns) == 3 and gc.isenabled()
    assert meter.prog_ns() - t0 < wall / 10
    assert meter.summary()["mean_s"] == pytest.approx(sum(meter.times_ns) / 3e9)
