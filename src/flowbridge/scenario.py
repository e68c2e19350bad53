"""Scenario files: what services run where, what they say, for how long.

A scenario is a JSON document that pairs with a topology file.  It lists
the services to start (each with its advertised streams and requested
topics), optional per-layer config overrides, optional latency probes,
and an optional placement sweep that re-runs the scenario with one
service moved across a list of candidate nodes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .configstore import resolve_layer_config
from .fields import Field, Record, read
from .simnet import SECOND
from .topology import MAX_S, MIN_PERIOD_S, RESERVED_PREFIX, duplicates


class ScenarioError(ValueError):
    """Raised for malformed scenario documents."""


PAYLOAD_KINDS = ("random", "compressible", "zeros")


class StreamSpec(Record):
    """One advertised stream: topic plus the rate/size it will publish at.
    A non-zero rate gives a period, SECOND / rate_hz, from 1 ns to MAX_S."""

    TABLE = {
        "topic": Field(str),
        "rate_hz": Field(float, 0.0, 1 / MAX_S, SECOND, or_zero=True),
        "size": Field(int, 0, 0),
        "payload": Field(PAYLOAD_KINDS, "random"),
    }
    __slots__ = FIELDS = tuple(TABLE)


class ServiceSpec(Record):
    """One service instance: where it runs and what it advertises/requests."""

    TABLE = {
        "name": Field(str),
        "node": Field(str),
        "advertises": Field(list[StreamSpec], ()),
        "requests": Field(list[str], ()),
        "start_s": Field(float, 0.0, 0.0, MAX_S),
        "stop_s": Field(float, None, hi=MAX_S, above=0.0),
        "external": Field(bool, False),
    }
    __slots__ = FIELDS = tuple(TABLE)


class ProbesSpec(Record):
    """Round-trip latency probing between the listed nodes."""

    TABLE = {
        "nodes": Field(list[str], ()),
        "ping_period_s": Field(float, 1.0, MIN_PERIOD_S, MAX_S),
        "ping_timeout_s": Field(float, 5.0, hi=MAX_S, above=0.0),
    }
    __slots__ = FIELDS = tuple(TABLE)


class SweepSpec(Record):
    """Placement sweep: re-run the scenario with `service` on each node."""

    TABLE = {"service": Field(str), "nodes": Field(list[str], lo=1)}
    __slots__ = FIELDS = tuple(TABLE)


class Scenario(Record):
    """A parsed scenario document. ``topology`` is an optional embedded
    topology document (same shape as a topology file, links section
    included), read by `topology.build_topology`; a topology file
    supplied alongside the scenario takes precedence. ``config`` maps
    layer names to resolved configs, read from `configstore.LAYER_CONFIG` overrides."""

    TABLE = {
        "name": Field(str),
        "duration_s": Field(float, hi=MAX_S, above=0.0),
        "services": Field(list[ServiceSpec], lo=1),
        "seed": Field(int, 0),
        "config": Field(dict, {}),
        "probes": Field(ProbesSpec, None),
        "sweep": Field(SweepSpec, None),
        "topology": Field(dict, None),
    }
    __slots__ = FIELDS = tuple(TABLE)


def parse_scenario(obj: object) -> Scenario:
    """Read a decoded scenario document, then check the rules that relate
    its fields, every layer's config included."""
    sc = read(Scenario, obj, "", ScenarioError)
    for i, spec in enumerate(sc.services):
        if spec.stop_s is not None and spec.stop_s <= spec.start_s:
            raise ScenarioError(f"services[{i}].stop_s must be > start_s")
        for kind, topics in (("advertise", [s.topic for s in spec.advertises]),
                             ("request", spec.requests)):
            if len(set(topics)) != len(topics):
                raise ScenarioError(f"services[{i}]: duplicate {kind} topics "
                                    f"{duplicates(topics)}")
            reserved = sorted({t for t in topics if t.startswith(RESERVED_PREFIX)})
            if reserved:
                raise ScenarioError(f"services[{i}]: {kind} topics {reserved} "
                                    f"are in the reserved {RESERVED_PREFIX!r} namespace")
    names = [s.name for s in sc.services]
    for what, items in (("service names", names),
                        ("probes.nodes", sc.probes.nodes if sc.probes else ()),
                        ("sweep.nodes", sc.sweep.nodes if sc.sweep else ())):
        if dupes := duplicates(items):
            raise ScenarioError(f"duplicate {what} {dupes}")
    if sc.sweep is not None and sc.sweep.service not in names:
        raise ScenarioError(f"sweep service {sc.sweep.service!r} is not defined")
    # layer names are checked against the topology by `runner.plan`
    sc.config = {layer: resolve_layer_config(overrides, f"config.{layer}", ScenarioError)
                 for layer, overrides in sc.config.items()}
    return sc


def _bundle():
    """The package's ``scenarios`` directory. `importlib.resources` is
    imported here, not with the module: from Python 3.12 it imports
    `inspect`, which the package does not load when imported."""
    from importlib import resources

    return resources.files(__package__).joinpath("scenarios")


def builtin_scenarios() -> list[str]:
    """Names of the scenario files bundled with the package."""
    names = []
    for entry in _bundle().iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def load_scenario(ref: str | Path) -> Scenario:
    """Load a scenario from a file path, or by bundled name."""
    path = Path(ref)
    if path.is_file():
        text = path.read_text()
    else:
        bundle = _bundle().joinpath(f"{ref}.json")
        if not bundle.is_file():
            raise ScenarioError(
                f"no scenario file {ref!r} and no bundled scenario of that name "
                f"(bundled: {', '.join(builtin_scenarios())})"
            )
        text = bundle.read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {ref}: invalid JSON: {exc}") from None
    return parse_scenario(obj)


def make_payload(kind: str, size: int, rng: random.Random) -> bytes:
    """Generate one message payload of the given texture."""
    if size <= 0:
        return b""
    if kind == "zeros":
        return bytes(size)
    if kind == "compressible":
        unit = rng.randbytes(32)
        return (unit * (size // len(unit) + 1))[:size]
    if kind == "random":
        return rng.randbytes(size)
    raise ScenarioError(f"unknown payload kind {kind!r}")
