"""Run one scenario document once, in this fresh process, and measure it.

    python3 perfbench/worker.py --src SRC --scenario DOC --out DIR \
        --result FILE --spawn-ns NS [--mode run|setup|trace]

The scenario goes through `flowbridge.runner.run_scenario`, the path of
`flowbridge run`, with the program's own trace left as it sets it.
Phase timers wrap `World.__init__`, `World.run_for` and `World.drain`
from here, so the call is split without touching the program:

* setup:  spawn -> first `run_for`, plus `World.__init__` -> `run_for`
          of every later world (import, parse, build, start, services);
* wall:   `run_for` + `drain` of every world;
* report: `drain` exit -> next world (or return): issues, metrics
          export, CSV reports.

`--spawn-ns` is the parent's CLOCK_MONOTONIC reading just before it
started this process; the same system-wide clock is read here.

Modes: `run` measures everything, running the simulation clock in
slices of about SLICE_S host seconds with a reference chunk
(reference.py) after each slice and on each side of each report phase;
`setup` makes `run_for` and `drain` return at once, so only set-up is
meaningful, and runs SETUP_CHUNKS reference chunks at the end; `trace`
adds the span tracer of tracer.py and runs no reference chunk. The
phase times leave the chunks out; the result carries the mean chunk
time (and that of the chunks around report phases), which run.py
divides them by. The result is one JSON object written to --result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path

import reference
import tracer

SLICE_S = 0.05  # host time of one simulation slice between reference chunks
SETUP_CHUNKS = 16  # reference chunks after a set-up probe, which never simulates
MIN_CHUNKS = 16  # reference chunks a repetition ends with at least


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from flowbridge import runner
    if not Path(runner.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"flowbridge imported from {runner.__file__}, not {src}")

    tr = None
    if args.mode == "trace":
        tr = tracer.Tracer()
        tracer.install(tr)

    # Marks read the host clock with reference-chunk time taken out.
    meter = reference.Meter()
    now_ns = meter.prog_ns
    worlds, marks = [], []  # marks: (event, world index, ns)
    virtual_ns = []  # virtual time each world ran to
    world_init = runner.World.__init__
    run_for, drain = runner.World.run_for, runner.World.drain
    issues_of = {}

    # A report phase lasts milliseconds, too short for the run's mean chunk
    # time to stand for the host's speed during it; the chunks just before
    # and just after it do.
    report_chunks: list[int] = []

    def report_chunk():
        meter.run()
        report_chunks.append(meter.times_ns[-1])

    def timed_init(self, *a, **kw):
        marks.append(("init", len(worlds), now_ns()))
        if worlds and args.mode == "run":
            report_chunk()
        world_init(self, *a, **kw)
        worlds.append(self)

    def timed_run_for(self, *a, **kw):
        marks.append(("run", worlds.index(self), now_ns()))
        if args.mode == "run":
            clock = self.clock
            clock.run_until = sliced(clock, clock.run_until, meter)
            try:
                run_for(self, *a, **kw)
            finally:
                del clock.run_until
        elif args.mode == "trace":
            run_for(self, *a, **kw)
        if args.mode != "setup":
            virtual_ns.append(self.clock.now)

    def timed_drain(self, *a, **kw):
        out = drain(self, *a, **kw) if args.mode != "setup" else 0
        marks.append(("drained", worlds.index(self), now_ns()))
        if args.mode == "run":
            report_chunk()
        return out

    issues = runner.World.issues

    def recorded_issues(self):
        found = issues(self)
        issues_of[worlds.index(self)] = found
        return found

    runner.World.__init__ = timed_init
    runner.World.run_for = timed_run_for
    runner.World.drain = timed_drain
    runner.World.issues = recorded_issues

    out = Path(args.out)
    result: dict = {"mode": args.mode, "error": None}
    rc = None
    try:
        rc = runner.run_scenario(None, args.scenario, out_dir=str(out))
    except Exception as exc:  # noqa: BLE001 - a failed world is a result
        result["error"] = f"{type(exc).__name__}: {exc}"
    t_end = now_ns()
    if args.mode == "setup":
        meter.run(SETUP_CHUNKS)
    elif args.mode == "run":
        report_chunk()
        meter.run(max(0, MIN_CHUNKS - len(meter.times_ns)))
    result["rc"] = rc
    result["reference"] = meter.summary()
    if report_chunks:
        result["reference"]["report_mean_s"] = sum(report_chunks) / len(report_chunks) / 1e9
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result["phases"] = phases(marks, args.spawn_ns, t_end)
    doc = json.loads(Path(args.scenario).read_text())
    sweep = doc.get("sweep")
    dirs = [f"placement-{n}" for n in sweep["nodes"]] if sweep else ["."]
    result["worlds"] = [world_record(out / d, d, issues_of.get(i))
                        for i, d in enumerate(dirs)]
    if args.mode != "setup":
        result["sim"] = sim_metrics(worlds, sum(virtual_ns) / 1e9)
    if tr is not None:
        layer, spans = tracer.layer_metrics(tr, worlds)
        layer["trace.wall_s"] = result["phases"]["wall_s"]
        result["layer"] = layer
        result["spans"] = spans
        result["counts"] = tr.counts
        tr.write_spans(out)
    Path(args.result).write_text(json.dumps(result, sort_keys=True))
    return 0


def sliced(clock, run_until, meter: reference.Meter):
    """`clock.run_until` in slices of about SLICE_S host seconds.

    Processing every event up to t1 and then every event up to t2 is the
    same as processing every event up to t2 (nothing runs in between),
    so slicing leaves the simulation, and its metrics.txt, unchanged.
    A reference chunk runs after each slice.
    """
    step = 10_000_000  # virtual ns of the next slice; adapts towards SLICE_S

    def run(t: int) -> int:
        nonlocal step
        processed = 0
        while True:
            stop = min(clock.now + step, t)
            t0 = reference.now_ns()
            processed += run_until(stop)
            took = max(reference.now_ns() - t0, 1) / 1e9
            meter.run()
            step = max(1_000_000, int(step * min(2.0, max(0.5, SLICE_S / took))))
            if stop >= t:
                return processed

    return run


def phases(marks: list, spawn_ns: int, end_ns: int) -> dict:
    """Split the process into set-up, simulation and report time."""
    setup = wall = report = 0
    first = True
    pending_report = None
    run_at = {}
    for event, idx, at in marks:
        if event == "init":
            if pending_report is not None:
                report += at - pending_report
                pending_report = None
            if first:
                run_at[idx] = spawn_ns
                first = False
            else:
                run_at[idx] = at
        elif event == "run":
            setup += at - run_at[idx]
            run_at[idx] = at
        elif event == "drained":
            wall += at - run_at[idx]
            pending_report = at
    if pending_report is not None:
        report += end_ns - pending_report
    return {"setup_s": setup / 1e9, "wall_s": wall / 1e9, "report_s": report / 1e9}


def world_record(run_dir: Path, tag: str, found: list[str] | None) -> dict:
    metrics = run_dir / "metrics.txt"
    digest = hashlib.sha256(metrics.read_bytes()).hexdigest() if metrics.is_file() else None
    return {"dir": tag, "metrics_sha256": digest,
            "issues": found if found is not None else ["issues() never ran"]}


def user_topic(topic: str | None) -> bool:
    return bool(topic) and not topic.startswith("__")


def sim_metrics(worlds: list, virtual_s: float) -> dict:
    """Simulated outcomes pooled over worlds, from each run's counters."""
    published = offered = dropped = events = 0
    latencies: list[float] = []
    for w in worlds:
        reg = w.registry
        published += sum(h.published for name, h in w.handles.items()
                         if not name.startswith("__"))
        events += w.clock.events_processed
        for point in reg.snapshot():
            if point.kind != "counter" or not user_topic(dict(point.labels).get("topic")):
                continue
            if point.name == "flow.offered":
                offered += point.value
            elif point.name in ("flow.drop.loss", "flow.drop.limiter"):
                dropped += point.value
        for labels, series in reg.gauge_sets("mon.msg_latency_ms").items():
            if user_topic(dict(labels).get("topic")):
                latencies.extend(v for _, v in series)
    latencies.sort()
    return {
        "user_msgs": published,
        "virtual_s": virtual_s,
        "events": events,
        "offered": offered,
        "dropped": dropped,
        "delivered_frac": 1 - dropped / offered if offered else 0.0,
        "vlat_samples": len(latencies),
        "vlat_p50_ms": tracer.percentile(latencies, 50),
        "vlat_p99_ms": tracer.percentile(latencies, 99),
    }


if __name__ == "__main__":
    sys.exit(main())
