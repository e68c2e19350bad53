"""Compare two result sets of the benchmark, or check that one is steady.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines `run.py --record FILE` appended, one per run.
For every workload and end-to-end metric it prints each set's median
and quartiles, the spread (interquartile range over median) and a
verdict against the metric's bound in BENCHMARK.json:

* `unsteady` - a set's spread exceeds the bound (not applied to
  `setup_s`, whose set-up samples are taken apart from the runs);
* `worse`    - NEW's median is worse than BASE's by more than the bound;
* `ok`       - neither.

For runs recorded with raw host medians it also lists the spread of the
raw `wall_s` and of the mean reference-chunk time, without a verdict, to
show how much host noise the normalisation took out.

Simulated outcomes (the `metrics.txt` digests, `delivered_frac`,
`vlat_*`) and every per-layer count (a per-layer metric whose name does
not end in `_s`) must match exactly between runs of the same workload
and seed in the two sets; any difference is a `MISMATCH`. Per-layer
times are listed by median for reference and carry no verdict.

Both sets' environments are printed. The exit code is 1 when any
verdict is `unsteady`, `worse` or `MISMATCH`, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

EXACT_E2E = ("ok_frac", "delivered_frac", "vlat_p50_ms", "vlat_p99_ms")
UNBOUNDED_SPREAD = ("setup_s",)


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread); quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse new is than base, as a share of base."""
    if not base:
        return 0.0
    return (new - base) / base if better == "lower" else (base - new) / base


def compare(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    """Print the comparison; returns the failing verdicts."""
    failures: list[str] = []
    envs = {json.dumps(r["env"], sort_keys=True) for r in base} | {
        json.dumps(r["env"], sort_keys=True) for r in new}
    for env in sorted(envs):
        print(f"env {env}")
    for rec in base + new:
        if not rec["correct"]:
            failures.append(f"{rec['workload']} seed {rec['seed']}: incorrect run")

    def by_seed(recs, trace):
        return {(r["workload"], r["seed"]): r for r in recs if r["trace"] == trace}

    for trace in (0, 1):
        a, b = by_seed(base, trace), by_seed(new, trace)
        for key in sorted(set(a) & set(b)):
            ra, rb = a[key], b[key]
            names = [m["name"] for m in spec["per_layer"]] if trace else list(EXACT_E2E)
            exact = [n for n in names if not (trace and n.endswith("_s"))]
            diff = [n for n in exact if ra["values"].get(n) != rb["values"].get(n)]
            if ra["digests"] != rb["digests"]:
                diff.append("metrics.txt digests")
            if diff:
                failures.append(f"{key[0]} seed {key[1]}: MISMATCH in {', '.join(diff)}")

    workloads = sorted({r["workload"] for r in base + new})
    header = f"{'metric':<16} {'base med [q1, q3]':>34} {'new med [q1, q3]':>34} {'spread':>13}  verdict"
    for wl in workloads:
        ra = [r for r in base if r["workload"] == wl and r["trace"] == 0]
        rb = [r for r in new if r["workload"] == wl and r["trace"] == 0]
        if not ra or not rb:
            continue
        print(f"\n{wl}: {len(ra)} base runs, {len(rb)} new runs")
        print(header)
        for m in spec["end_to_end"]:
            name = m["name"]
            ma, qa1, qa3, sa = stats([r["values"][name] for r in ra])
            mb, qb1, qb3, sb = stats([r["values"][name] for r in rb])
            verdict = "ok"
            if name not in UNBOUNDED_SPREAD and max(sa, sb) > m["bound"]:
                verdict = "unsteady"
            if worse_by(ma, mb, m["better"]) > m["bound"]:
                verdict = "worse"
            if verdict != "ok":
                failures.append(f"{wl} {name}: {verdict}")
            print(f"{name:<16} {ma:>12.6g} [{qa1:.6g}, {qa3:.6g}]".ljust(51)
                  + f" {mb:>12.6g} [{qb1:.6g}, {qb3:.6g}]".ljust(35)
                  + f" {sa:.3f}/{sb:.3f}  {verdict} (bound {m['bound']})")
        if all(r.get("host") for r in ra + rb):
            for name in ("wall_s", "chunk_s"):
                ma, qa1, qa3, sa = stats([r["host"][name] for r in ra])
                mb, qb1, qb3, sb = stats([r["host"][name] for r in rb])
                print(f"{'raw ' + name:<16} {ma:>12.6g} [{qa1:.6g}, {qa3:.6g}]".ljust(51)
                      + f" {mb:>12.6g} [{qb1:.6g}, {qb3:.6g}]".ljust(35)
                      + f" {sa:.3f}/{sb:.3f}  (not normalised; no verdict)")
        ta = [r for r in base if r["workload"] == wl and r["trace"] == 1]
        tb = [r for r in new if r["workload"] == wl and r["trace"] == 1]
        if ta and tb:
            print(f"  per-layer times (median over traced runs, base -> new)")
            for m in spec["per_layer"]:
                if m["name"].endswith("_s"):
                    va = statistics.median(r["values"][m["name"]] for r in ta)
                    vb = statistics.median(r["values"][m["name"]] for r in tb)
                    print(f"  {m['name']:<30} {va:10.4f} -> {vb:10.4f} s")
    print()
    for f in failures:
        print(f"FAIL {f}")
    print("verdict: " + ("FAIL" if failures else "PASS"))
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--spec", default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"),
                    help="benchmark definition (default: BENCHMARK.json beside perfbench/)")
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    return 1 if compare(load(args.base), load(args.new), spec) else 0


if __name__ == "__main__":
    sys.exit(main())
