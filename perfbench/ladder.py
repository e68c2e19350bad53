"""Deterministic synthetic "ladder" scenario generator.

A ladder world has three layers sized from the service count N:

    edge   N/4 nodes   e0 .. e{N/4-1}
    fog    N/20 nodes  f0 .. f{N/20-1}
    cloud  2 nodes     c0, c1

Service i (``s<i>``) runs on one of the nodes, advertises one topic
``t<i>`` at 10 Hz with 512-byte random payloads, and requests one or two
*distinct* topics of other services. Requests are distinct because a
service that requests one topic twice is malformed input: it gets two
subscriptions and reports every message as a duplicate delivery.
ROADMAP item 4 will reject that shape at parse time; the
duplicate-delivery defect it triggers is not covered by this benchmark.

With ``churn`` a third of the services (every third one) start at a
time in the first half of the run and stop later, before the end, so
their declarations are withdrawn and their bridges torn down while the
run goes on.

The service graph (placement, requests, churn times) is drawn once per
size from a fixed structure seed. The benchmark ``seed`` then relabels
it - it permutes the node names within each layer and the service and
topic numbers, which also changes the order services start in - and
picks the simulation seed. Every seed therefore gives a different
document describing the same amount of work, so run-to-run differences
come from the host, not from a larger or smaller random graph.

The document depends only on (seed, services, duration_s, churn): the
same arguments give a byte-identical document.
"""

from __future__ import annotations

import json
import random

TOPIC_RATE_HZ = 10.0
TOPIC_SIZE = 512
MAX_REQUESTS = 2

CROSSINGS = (
    ("edge", "fog", 7.0),
    ("edge", "cloud", 27.0),
    ("fog", "cloud", 20.0),
)


def layer_sizes(services: int) -> dict[str, int]:
    """Node count per layer for a ladder of ``services`` services."""
    if services < 20 or services % 20:
        raise ValueError("services must be a positive multiple of 20")
    return {"edge": services // 4, "fog": services // 20, "cloud": 2}


def generate(seed: int, services: int = 80, duration_s: float = 12.0,
             churn: bool = False) -> dict:
    """Build one ladder scenario document (a JSON-ready dict)."""
    if duration_s < 4.0:
        raise ValueError("duration_s must be >= 4")
    sizes = layer_sizes(services)
    shape = random.Random(f"ladder-shape/{services}/{duration_s}/{int(churn)}")
    rng = random.Random(f"ladder/{seed}/{services}/{duration_s}/{int(churn)}")
    prefix = {"edge": "e", "fog": "f", "cloud": "c"}
    layers, rename = [], {}
    for name, count in sizes.items():
        names = [f"{prefix[name]}{i}" for i in range(count)]
        layers.append({"name": name, "nodes": names})
        rename.update(zip(names, rng.sample(names, count)))
    nodes = [n for layer in layers for n in layer["nodes"]]
    number = rng.sample(range(services), services)

    specs = []
    for i in range(services):
        others = [j for j in range(services) if j != i]
        spec = {
            "name": f"s{number[i]}",
            "node": rename[shape.choice(nodes)],
            "advertises": [{"topic": f"t{number[i]}", "rate_hz": TOPIC_RATE_HZ,
                            "size": TOPIC_SIZE, "payload": "random"}],
            "requests": [f"t{number[j]}" for j in
                         shape.sample(others, shape.randint(1, MAX_REQUESTS))],
        }
        if churn and i % 3 == 0:
            start = round(shape.uniform(0.5, duration_s / 2), 3)
            spec["start_s"] = start
            spec["stop_s"] = round(shape.uniform(start + 1.0, duration_s - 0.5), 3)
        specs.append(spec)
    specs.sort(key=lambda spec: int(spec["name"][1:]))

    return {
        "name": f"ladder-{'churn' if churn else 'steady'}-{services}",
        "duration_s": duration_s,
        "seed": rng.getrandbits(31),
        "topology": {
            "layers": layers,
            "links": {"crossings": [
                {"between": [a, b], "latency_ms": lat, "jitter_ms": 1.0,
                 "loss": 0.0001, "bandwidth_mbps": 160}
                for a, b, lat in CROSSINGS
            ]},
        },
        "services": specs,
    }


def dumps(doc: dict) -> str:
    """Canonical serialization, so equal documents are equal bytes."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
