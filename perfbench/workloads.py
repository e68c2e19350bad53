"""The benchmark's workloads: one scenario document per (workload, seed).

Each workload is a batch job: a fixed input simulated to completion as
fast as the host allows, with no arrival schedule. The program only
sees the generated document; the benchmark seed picks the document's
simulation seed (and, for the ladders, the labels of a fixed service
graph; see ladder.py).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import ladder

LADDER_SERVICES = 80
LADDER_DURATION_S = 12.0

WORKLOADS = {
    "nav-sweep": "bundled navigation, all 4 placements: many small messages, "
                 "probes, lossy crossings, the only compressed stream",
    "estop-1mb": "bundled estop: 1 MB random frames at 30 Hz to 4 consumers "
                 "under a 160 Mbps budget; payload generation and limiter denials",
    "ladder-steady": "80-service 3-layer ladder over one 10 s re-announce cycle: "
                     "declaration flooding and reconcile of unchanged re-announces",
    "ladder-churn": "the ladder with a third of the services starting and stopping "
                    "mid-run: withdraw, contributor removal, bridge teardown",
}


def derived_seed(workload: str, seed: int) -> int:
    """The simulation seed a bundled workload runs with for `seed`."""
    return random.Random(f"{workload}/{seed}").getrandbits(31)


def scenario_doc(workload: str, seed: int, src: Path) -> dict:
    """The scenario document `workload` runs for benchmark seed `seed`."""
    if workload in ("nav-sweep", "estop-1mb"):
        name = "navigation" if workload == "nav-sweep" else "estop"
        doc = json.loads((src / "flowbridge" / "scenarios" / f"{name}.json").read_text())
        doc["seed"] = derived_seed(workload, seed)
        return doc
    if workload in ("ladder-steady", "ladder-churn"):
        return ladder.generate(seed, LADDER_SERVICES, LADDER_DURATION_S,
                               churn=workload == "ladder-churn")
    raise KeyError(workload)
