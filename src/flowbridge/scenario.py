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

from .configstore import ConfigError, resolve_layer_config
from .simnet import SECOND
from .topology import MAX_S, MIN_PERIOD_S, RESERVED_PREFIX, Record, duplicates, finite_number


class ScenarioError(ValueError):
    """Raised for malformed scenario documents."""


PAYLOAD_KINDS = ("random", "compressible", "zeros")


def _check_name(value: object, what: str) -> None:
    """Topics, service names and node names are non-empty strings."""
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{what} must be a non-empty string, got {value!r}")


def _check_nodes(nodes: tuple, where: str) -> None:
    """A node list names each node once: a probe per node, a run per placement."""
    for node in nodes:
        _check_name(node, f"{where}: node")
    dupes = duplicates(nodes)
    if dupes:
        raise ScenarioError(f"{where}: duplicate nodes {dupes}")


class StreamSpec(Record):
    """One advertised stream: topic plus the rate/size it will publish at."""

    __slots__ = FIELDS = ("topic", "rate_hz", "size", "payload")

    def __init__(self, topic: str, rate_hz: float, size: int, payload: str = "random") -> None:
        self.topic = topic
        self.rate_hz = rate_hz
        self.size = size
        self.payload = payload
        _check_name(topic, "stream topic")
        if rate_hz < 0:
            raise ScenarioError(f"stream {topic!r}: rate_hz must be >= 0")
        # the stream's period, SECOND / rate_hz, must be 1 ns to MAX_S
        if rate_hz and not 1 / MAX_S <= rate_hz <= SECOND:
            raise ScenarioError(f"stream {topic!r}: rate_hz must be 0 or from "
                                f"{1 / MAX_S:.4g} to {SECOND:g}, got {rate_hz!r}")
        if size < 0:
            raise ScenarioError(f"stream {topic!r}: size must be >= 0")
        if payload not in PAYLOAD_KINDS:
            raise ScenarioError(
                f"stream {topic!r}: payload must be one of {PAYLOAD_KINDS}"
            )


class ServiceSpec:
    """One service instance: where it runs and what it advertises/requests."""

    __slots__ = ("name", "node", "advertises", "requests", "start_s", "stop_s", "external")

    def __init__(self, name: str, node: str, advertises: tuple[StreamSpec, ...] = (),
                 requests: tuple[str, ...] = (), start_s: float = 0.0,
                 stop_s: float | None = None, external: bool = False) -> None:
        self.name = name
        self.node = node
        self.advertises = advertises
        self.requests = requests
        self.start_s = start_s
        self.stop_s = stop_s
        self.external = external
        _check_name(name, "service name")
        _check_name(node, f"service {name!r}: node")
        for topic in requests:
            _check_name(topic, f"service {name!r}: request topic")
        if not isinstance(external, bool):
            raise ScenarioError(f"service {name!r}: external must be true or false, "
                                f"got {external!r}")
        if start_s < 0:
            raise ScenarioError(f"service {name!r}: start_s must be >= 0")
        if stop_s is not None and stop_s <= start_s:
            raise ScenarioError(f"service {name!r}: stop_s must be > start_s")
        for kind, topics in (("advertise", [s.topic for s in advertises]),
                             ("request", requests)):
            dupes = duplicates(topics)
            if dupes:
                raise ScenarioError(f"service {name!r}: duplicate {kind} topics {dupes}")
            reserved = sorted({t for t in topics if t.startswith(RESERVED_PREFIX)})
            if reserved:
                raise ScenarioError(f"service {name!r}: {kind} topics {reserved} "
                                    f"are in the reserved {RESERVED_PREFIX!r} namespace")


class ProbesSpec(Record):
    """Round-trip latency probing between the listed nodes."""

    __slots__ = FIELDS = ("nodes", "ping_period_s", "ping_timeout_s")

    def __init__(self, nodes: tuple[str, ...] = (), ping_period_s: float = 1.0,
                 ping_timeout_s: float = 5.0) -> None:
        self.nodes = nodes
        self.ping_period_s = ping_period_s
        self.ping_timeout_s = ping_timeout_s
        _check_nodes(nodes, "probes")
        if ping_period_s < MIN_PERIOD_S:
            raise ScenarioError("probes: ping_period_s must be at least 1 ns")
        if ping_timeout_s <= 0:
            raise ScenarioError("probes: ping_timeout_s must be > 0")


class SweepSpec(Record):
    """Placement sweep: re-run the scenario with `service` on each node."""

    __slots__ = FIELDS = ("service", "nodes")

    def __init__(self, service: str, nodes: tuple[str, ...]) -> None:
        self.service = service
        self.nodes = nodes
        _check_name(service, "sweep: service")
        _check_nodes(nodes, "sweep")
        if not nodes:
            raise ScenarioError("sweep: nodes must be non-empty")


class Scenario:
    """A parsed scenario document. ``topology`` is an optional embedded
    topology document (same shape as a topology file, links section
    included), read by `topology.build_topology`; a topology file
    supplied alongside the scenario takes precedence."""

    __slots__ = ("name", "duration_s", "services", "seed", "config", "probes", "sweep",
                 "topology")

    def __init__(self, name: str, duration_s: float, services: tuple[ServiceSpec, ...],
                 seed: int = 0, config: dict | None = None, probes: ProbesSpec | None = None,
                 sweep: SweepSpec | None = None, topology: dict | None = None) -> None:
        self.name = name
        self.duration_s = duration_s
        self.services = services
        self.seed = seed
        self.config = {} if config is None else config
        self.probes = probes
        self.sweep = sweep
        self.topology = topology
        if duration_s <= 0:
            raise ScenarioError("duration_s must be > 0")
        names = [s.name for s in services]
        dupes = duplicates(names)
        if dupes:
            raise ScenarioError(f"duplicate service names: {dupes}")
        if sweep is not None and sweep.service not in names:
            raise ScenarioError(
                f"sweep service {sweep.service!r} is not defined"
            )


_STREAM_KEYS = {"topic", "rate_hz", "size", "payload"}
_SERVICE_KEYS = {
    "name", "node", "advertises", "requests", "start_s", "stop_s", "external",
}
_PROBES_KEYS = {"nodes", "ping_period_s", "ping_timeout_s"}
_SWEEP_KEYS = {"service", "nodes"}
_SCENARIO_KEYS = {
    "name", "duration_s", "seed", "config", "services", "probes", "sweep",
    "topology",
}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")


def _number(obj: dict, key: str, default, where: str, kind: type = float):
    """``obj[key]`` (or ``default``) as a ``kind``; it must be a finite
    number, and integral when ``kind`` is int. Nothing is coerced."""
    value = obj.get(key, default)
    if not finite_number(value, int if kind is int else (int, float)):
        raise ScenarioError(f"{where}: {key} must be a finite number"
                            f"{' (integral)' if kind is int else ''}, got {value!r}")
    return kind(value)


def _seconds(obj: dict, key: str, default, where: str) -> float:
    """A time in seconds the nanosecond clock can hold."""
    value = _number(obj, key, default, where)
    if value > MAX_S:
        raise ScenarioError(f"{where}: {key} must be at most {MAX_S:.4g} s, got {value!r}")
    return value


def _list(obj: dict, key: str, where: str) -> tuple:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: {key} must be a list, got {value!r}")
    return tuple(value)


def _parse_stream(obj: object) -> StreamSpec:
    if not isinstance(obj, dict):
        raise ScenarioError(f"stream must be an object, got {type(obj).__name__}")
    _reject_unknown(obj, _STREAM_KEYS, "stream")
    try:
        topic = obj["topic"]
        return StreamSpec(
            topic=topic,
            rate_hz=_number(obj, "rate_hz", 0.0, f"stream {topic!r}"),
            size=_number(obj, "size", 0, f"stream {topic!r}", int),
            payload=obj.get("payload", "random"),
        )
    except KeyError as exc:
        raise ScenarioError(f"stream missing key {exc}") from None


def _parse_service(obj: object) -> ServiceSpec:
    if not isinstance(obj, dict):
        raise ScenarioError(f"service must be an object, got {type(obj).__name__}")
    _reject_unknown(obj, _SERVICE_KEYS, "service")
    try:
        name = obj["name"]
        node = obj["node"]
    except KeyError as exc:
        raise ScenarioError(f"service missing key {exc}") from None
    where = f"service {name!r}"
    return ServiceSpec(
        name=name,
        node=node,
        advertises=tuple(_parse_stream(s) for s in _list(obj, "advertises", where)),
        requests=_list(obj, "requests", where),
        start_s=_seconds(obj, "start_s", 0.0, where),
        stop_s=None if obj.get("stop_s") is None else _seconds(obj, "stop_s", None, where),
        external=obj.get("external", False),
    )


def parse_scenario(obj: object) -> Scenario:
    """Validate a decoded scenario document and build the model."""
    if not isinstance(obj, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(obj, _SCENARIO_KEYS, "scenario")
    services = obj.get("services", [])
    if not isinstance(services, list) or not services:
        raise ScenarioError("scenario must define a non-empty services list")
    probes = None
    if "probes" in obj and obj["probes"] is not None:
        pobj = obj["probes"]
        if not isinstance(pobj, dict):
            raise ScenarioError("probes must be an object")
        _reject_unknown(pobj, _PROBES_KEYS, "probes")
        probes = ProbesSpec(
            nodes=_list(pobj, "nodes", "probes"),
            ping_period_s=_seconds(pobj, "ping_period_s", 1.0, "probes"),
            ping_timeout_s=_seconds(pobj, "ping_timeout_s", 5.0, "probes"),
        )
    sweep = None
    if "sweep" in obj and obj["sweep"] is not None:
        sobj = obj["sweep"]
        if not isinstance(sobj, dict):
            raise ScenarioError("sweep must be an object")
        _reject_unknown(sobj, _SWEEP_KEYS, "sweep")
        try:
            sweep = SweepSpec(service=sobj["service"], nodes=_list(sobj, "nodes", "sweep"))
        except KeyError as exc:
            raise ScenarioError(f"sweep missing key {exc}") from None
    config = obj.get("config", {})
    if not isinstance(config, dict):
        raise ScenarioError("config must be an object")
    # layer names are checked against the topology before any world is built
    for layer, overrides in config.items():
        try:
            resolve_layer_config(overrides)
        except ConfigError as exc:
            raise ScenarioError(f"config.{layer}: {exc}") from None
    topology = obj.get("topology")
    if topology is not None and not isinstance(topology, dict):
        raise ScenarioError("topology must be an object")
    for key in ("name", "duration_s"):
        if key not in obj:
            raise ScenarioError(f"scenario missing key {key!r}")
    return Scenario(
        name=str(obj["name"]),
        duration_s=_seconds(obj, "duration_s", None, "scenario"),
        seed=_number(obj, "seed", 0, "scenario", int),
        config=config,
        services=tuple(_parse_service(s) for s in services),
        probes=probes,
        sweep=sweep,
        topology=topology,
    )


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
