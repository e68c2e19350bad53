"""flowbridge benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--record FILE]

Run from the root of a flowbridge checkout (the directory holding
`src/` and `BENCHMARK.json`). The workload's scenario document is built
from the seed, then each repetition runs it in a fresh process
(perfbench/worker.py) until the time budget is spent. A repetition
interleaves the simulation with fixed reference chunks (reference.py)
and states its host times in normalised seconds: scaled to a host on
which one chunk takes reference.CHUNK_S. Host times are the median over
repetitions (set-up time: over set-up samples); simulated outcomes must
repeat exactly. A line before the result gives the raw host medians.

With `--trace 0` the last stdout line carries every end-to-end metric of
BENCHMARK.json, with `--trace 1` every per-layer metric. Earlier lines
give the environment and each world's `metrics.txt` SHA-256. `--record`
appends the full result (every repetition, digests, spans, environment)
as one JSON line, for perfbench/compare.py. The exit code is 0 only
when every world passed its checks.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ladder  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 2        # full repetitions per untraced run; two allow the digest check
MIN_SETUPS = 7      # set-up samples per untraced run (full runs plus set-up probes)
MIN_TRACED = 2      # traced repetitions per traced run; two allow the count check
CHILD_DEADLINE_S = 170.0


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def environment() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "platform": platform.platform()}


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.src = root / "src"
        self.t_start = time.monotonic()
        self.deadline = self.t_start + seconds
        self.out = root / ".bench_out" / f"{workload}-{seed}-trace{int(trace)}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.doc_path = self.out / "scenario.json"
        self.doc_path.write_text(ladder.dumps(workloads.scenario_doc(workload, seed, self.src)))
        self.n = 0
        self.results: list[dict] = []   # every repetition, in order
        self.reference: dict[str, str] = {}   # world dir -> metrics.txt digest
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.host: dict = {}  # raw host-time medians, for the record

    def child(self, mode: str) -> dict:
        """Run the workload once in a fresh process; returns its result."""
        self.n += 1
        rep = self.out / f"rep-{self.n}"  # only the latest repetition's files are kept
        result_path = self.out / f"rep-{self.n}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(self.src),
               "--scenario", str(self.doc_path), "--out", str(rep),
               "--result", str(result_path), "--mode", mode]
        budget = max(5.0, CHILD_DEADLINE_S - (time.monotonic() - self.t_start))
        t0 = time.monotonic()
        spawn = now_ns()
        try:
            proc = subprocess.run(cmd + ["--spawn-ns", str(spawn)], capture_output=True,
                                  text=True, timeout=budget)
            ok = proc.returncode == 0 and result_path.is_file()
            err = proc.stderr.strip().splitlines()[-1:] if not ok else []
        except subprocess.TimeoutExpired:
            ok, err = False, [f"timed out after {budget:.0f} s"]
        result = json.loads(result_path.read_text()) if ok else {
            "mode": mode, "error": "; ".join(err) or "worker failed", "worlds": []}
        result["elapsed_s"] = time.monotonic() - t0
        shutil.rmtree(self.out / f"rep-{self.n - 1}", ignore_errors=True)
        self.check(result)
        self.results.append(result)
        return result

    def check(self, r: dict) -> None:
        """Count the repetition's worlds and mark the ones that failed.

        A set-up probe never simulates, so its worlds are neither drained
        nor balanced: it counts (as one attempt) only when it raised.
        """
        if r["mode"] == "setup":
            if r.get("error"):
                self.attempted += 1
                self.failed += 1
                self.notes.append(f"setup: {r['error']}")
            return
        worlds = r.get("worlds") or [{"dir": "?", "issues": []}]
        for w in worlds:
            problems = []
            if r.get("error"):
                problems.append(r["error"])
            elif r.get("rc") != 0:
                problems.append(f"run_scenario returned {r.get('rc')}")
            problems += w.get("issues", [])
            digest = w.get("metrics_sha256")
            ref = self.reference.setdefault(w["dir"], digest)
            if digest is None or digest != ref:
                problems.append(f"metrics.txt digest {digest} != {ref}")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.notes.append(f"{r['mode']} {w['dir']}: {problems[0]}")

    def time_left_for(self, mode: str) -> bool:
        past = [r["elapsed_s"] for r in self.results if r["mode"] == mode]
        estimate = statistics.median(past) if past else 0.0
        return time.monotonic() + estimate <= self.deadline

    def run_untraced(self) -> dict:
        runs = setups = 0
        while runs < MIN_RUNS or (self.time_left_for("run") and not self.failed):
            self.child("run")
            runs += 1
        while runs + setups < MIN_SETUPS and not self.failed:
            self.child("setup")
            setups += 1
        full = [r for r in self.results if r["mode"] == "run" and not r.get("error")]
        if not full:
            return {}
        sims = [r["sim"] for r in full]
        if any(s != sims[0] for s in sims):
            self.fail_all("simulated outcomes differ between repetitions")
        sim = sims[0]
        if not (sim["user_msgs"] and sim["offered"] and sim["vlat_samples"]):
            self.fail_all("no user-topic message was published, offered and delivered")

        self.host = {
            "wall_s": statistics.median(r["phases"]["wall_s"] for r in full),
            "report_s": statistics.median(r["phases"]["report_s"] for r in full),
            "setup_s": statistics.median(r["phases"]["setup_s"] for r in self.results
                                         if not r.get("error")),
            "chunk_s": statistics.median(r["reference"]["mean_s"] for r in self.results
                                         if not r.get("error")),
        }
        wall = statistics.median(normalised(r, "wall_s") for r in full)
        setup_samples = [normalised(r, "setup_s") for r in self.results if not r.get("error")]
        ok = 1 - self.failed / self.attempted
        return {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall,
            "report_s": statistics.median(normalised(r, "report_s") for r in full),
            "msgs_per_s": sim["user_msgs"] / wall,
            "vsec_per_s": sim["virtual_s"] / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
            "ok_frac": ok,
            "delivered_frac": sim["delivered_frac"],
            "vlat_p50_ms": sim["vlat_p50_ms"],
            "vlat_p99_ms": sim["vlat_p99_ms"],
        }

    def run_traced(self) -> dict:
        base = self.child("run")
        traced = 0
        while traced < MIN_TRACED or (self.time_left_for("trace") and not self.failed):
            self.child("trace")
            traced += 1
        reps = [r for r in self.results if r["mode"] == "trace" and not r.get("error")]
        if not reps or base.get("error"):
            return {}
        layers = [r["layer"] for r in reps]
        for key in layers[0]:
            if not key.endswith("_s") and any(l[key] != layers[0][key] for l in layers):
                self.fail_all(f"per-layer count {key} differs between repetitions")
        metrics = {key: statistics.mean(l[key] for l in layers) if key.endswith("_s")
                   else layers[0][key] for key in layers[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base["phases"]["wall_s"]
        return metrics

    def fail_all(self, why: str) -> None:
        self.notes.append(why)
        self.failed = self.attempted


def normalised(result: dict, phase: str) -> float:
    """A phase's host time scaled to a host whose reference chunk takes CHUNK_S.

    The report phase is scaled by the chunks run just before and after
    it, every other phase by all of the repetition's chunks.
    """
    ref = result["reference"]
    chunk_s = ref["report_mean_s"] if phase == "report_s" else ref["mean_s"]
    return result["phases"][phase] * reference.CHUNK_S / chunk_s


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one flowbridge benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, metavar="FILE",
                    help="append the full result as one JSON line to FILE")
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "flowbridge" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: run from a flowbridge checkout root (needs src/flowbridge "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    compileall.compile_dir(str(root / "src" / "flowbridge"), quiet=1)

    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    values = bench.run_traced() if args.trace else bench.run_untraced()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        bench.notes.append(f"no value for {', '.join(missing)}")
        bench.failed = max(bench.failed, 1)
        bench.attempted = max(bench.attempted, 1)
    correct = bench.failed == 0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if bench.host:
        print("raw host medians " + json.dumps(bench.host, sort_keys=True))
    digests = {}
    for r in bench.results:
        for w in r.get("worlds", []):
            if r["mode"] != "setup" and w.get("metrics_sha256"):
                digests.setdefault(w["dir"], w["metrics_sha256"])
    for world, digest in digests.items():
        print(f"metrics.txt sha256 {args.workload} seed={args.seed} world={world} {digest}")
    for note in bench.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "correct": correct,
                  "attempted": bench.attempted, "failed": bench.failed,
                  "values": values, "host": bench.host, "digests": digests, "notes": bench.notes,
                  "reps": bench.results}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
