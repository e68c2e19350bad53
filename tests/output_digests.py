"""Digest every output file of the benchmark workloads and the bundled scenarios.

    python tests/output_digests.py OUT

runs the four benchmark workloads of ``perfbench/workloads.py`` for
seeds 1-3, and both bundled scenarios with their own seeds, through
``runner.run_scenario`` under OUT. It then writes ``OUT/digests.txt``
with one ``sha256  path`` line per output file, the path relative to
OUT. A change that must not alter behaviour leaves that file as it was:

    diff BEFORE/digests.txt AFTER/digests.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import ladder  # noqa: E402
import workloads  # noqa: E402
from flowbridge import runner  # noqa: E402
from flowbridge.scenario import builtin_scenarios  # noqa: E402

SEEDS = (1, 2, 3)


def main(out: Path) -> int:
    docs = out / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    runs = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            doc = docs / f"{workload}-{seed}.json"
            doc.write_text(ladder.dumps(workloads.scenario_doc(workload, seed, ROOT / "src")))
            runs.append((str(doc), out / f"{workload}-{seed}"))
    runs += [(name, out / name) for name in builtin_scenarios()]
    lines = []
    for ref, run_dir in runs:
        rc = runner.run_scenario(None, ref, out_dir=str(run_dir))
        if rc != 0:
            print(f"{ref}: run_scenario returned {rc}", file=sys.stderr)
            return 1
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(out).as_posix()}\n")
    (out / "digests.txt").write_text("".join(lines))
    print(f"{len(lines)} output files digested into {out / 'digests.txt'}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(Path(sys.argv[1])))
