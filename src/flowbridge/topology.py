"""Layered deployment model: layers, nodes, broker scopes, links, message types.

A deployment is an ordered stack of layers (edge first, most central
last). Every layer gets one intra-layer scope and one inter-layer scope;
every node gets an intra-node scope; a layer may additionally expose an
external-protocol scope for non-native clients. Scopes are the units a
broker endpoint binds to and the vertices bridges connect.
`build_topology` reads the whole topology document, ``links`` included,
so a malformed links section is rejected when the document is read.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from enum import Enum
from typing import Any, Iterable

RESERVED_PREFIX = "__"

# control topics (reserved namespace, never bridged by declaration)
FLOW_ADVERTISE = "__flow/advertise"
FLOW_REQUEST = "__flow/request"
FLOW_WITHDRAW = "__flow/withdraw"
CONFIG_REQUEST = "__config/req"
CONFIG_REPLY = "__config/rep"
CONFIG_NOTICE = "__config/notice"

ADVERTISE = "advertise"
REQUEST = "request"
DIRECTIONS = (ADVERTISE, REQUEST)


# the longest time a run may name: the range of a signed 64-bit
# nanosecond count, about 292 years
MAX_S = (2**63 - 1) / 1_000_000_000
# the slowest link: one byte (8e-6 Mbit) serializes in at most MAX_S
MIN_BANDWIDTH_MBPS = 8e-6 / MAX_S
# the shortest timer period, one tick of the nanosecond clock; a period
# the clock rounds to 0 would re-fire at the same instant forever
MIN_PERIOD_S = 1e-9


class TopologyError(ValueError):
    """Raised for malformed topology specs or unknown layer/node lookups."""


def finite_number(value: object, kind: type | tuple[type, ...] = (int, float)) -> bool:
    """Whether ``value`` is a ``kind`` JSON number: never a bool, NaN,
    infinity or an integer too large for a float."""
    try:
        return (isinstance(value, kind) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def duplicates(items: Iterable[Any]) -> list[Any]:
    """The items that occur more than once in ``items``, sorted; one pass."""
    return sorted(item for item, n in Counter(items).items() if n > 1)


class Record:
    """Base of the records that callers and tests compare: two records are
    equal when they are of one class and their ``FIELDS`` are equal. Any
    other slot of a record is derived from its fields."""

    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self.FIELDS]
                == [getattr(other, f) for f in self.FIELDS])


class FrozenRecord(Record):
    """A record that refuses assignment once built: its ``__init__`` sets
    each slot through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")


def _expect(obj: object, kind: type, where: str) -> Any:
    if not isinstance(obj, kind):
        want = "an object" if kind is dict else "a list"
        raise TopologyError(f"{where} must be {want}, got {obj!r}")
    return obj


class LinkSpec(Record):
    """Simulated link parameters.

    ``loss`` is a fraction of copies dropped (0.0001 = 0.01%).
    ``bandwidth_mbps`` is in multiples of 10^6 bits/s; 0 = unlimited.
    """

    __slots__ = FIELDS = ("latency_ms", "jitter_ms", "loss", "bandwidth_mbps")

    def __init__(self, latency_ms: float = 0.0, jitter_ms: float = 0.0, loss: float = 0.0,
                 bandwidth_mbps: float = 0.0) -> None:
        self.latency_ms = latency_ms
        self.jitter_ms = jitter_ms
        self.loss = loss
        self.bandwidth_mbps = bandwidth_mbps
        for f in self.FIELDS:
            v = getattr(self, f)
            if not finite_number(v):
                raise TopologyError(f"link {f} must be a finite number, got {v!r}")
        if not (0 <= latency_ms <= MAX_S * 1000 and 0 <= jitter_ms <= MAX_S * 1000):
            raise TopologyError(f"latency/jitter must be >= 0 and at most {MAX_S * 1000:.4g} ms")
        if not 0.0 <= loss <= 1.0:
            raise TopologyError("loss must be a fraction in [0, 1]")
        if bandwidth_mbps < 0 or 0 < bandwidth_mbps < MIN_BANDWIDTH_MBPS:
            raise TopologyError(f"bandwidth_mbps must be 0 (unlimited) or at least "
                                f"{MIN_BANDWIDTH_MBPS:.4g}")

    def merged(self, obj: dict) -> "LinkSpec":
        _expect(obj, dict, "link spec")
        unknown = set(obj) - set(self.FIELDS)
        if unknown:
            raise TopologyError(f"unknown link keys: {sorted(unknown)}")
        vals = {f: obj.get(f, getattr(self, f)) for f in self.FIELDS}
        return LinkSpec(**vals)


DEFAULT_LINKS: dict[str, LinkSpec] = {
    "intra_node": LinkSpec(latency_ms=0.1),
    "intra_layer": LinkSpec(latency_ms=1.0),
    "external_protocol": LinkSpec(latency_ms=1.0),
    "inter_layer": LinkSpec(latency_ms=0.1),
    "crossing": LinkSpec(latency_ms=10.0),
}


class ScopeKind(str, Enum):
    INTRA_NODE = "intra_node"
    INTRA_LAYER = "intra_layer"
    INTER_LAYER = "inter_layer"
    EXTERNAL = "external_protocol"


class NodeId(FrozenRecord):
    """A node, named within its layer; frozen, because one decoded
    declaration's node is shared by every engine it reaches."""

    __slots__ = ("layer", "name", "key")
    FIELDS = ("layer", "name")

    def __init__(self, layer: str, name: str) -> None:
        object.__setattr__(self, "layer", layer)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "key", f"{name}@{layer}")


class BrokerScope(Record):
    """Identity of one broker endpoint: kind plus owning layer or node."""

    __slots__ = ("kind", "layer", "node", "key")
    FIELDS = ("kind", "layer", "node")

    def __init__(self, kind: ScopeKind, layer: str, node: str | None = None) -> None:
        self.kind = kind
        self.layer = layer
        self.node = node
        # "kind:layer", or "kind:node@layer" for intra_node
        if kind is ScopeKind.INTRA_NODE:
            if node is None:
                raise TopologyError("intra_node scope requires a node")
            self.key = f"{kind.value}:{node}@{layer}"
        elif node is not None:
            raise TopologyError(f"{kind.value} scope must not name a node")
        else:
            self.key = f"{kind.value}:{layer}"

    def __str__(self) -> str:
        return self.key


class MessageEnvelope:
    """One published message as carried between scopes.

    ``sequence`` is per (origin_node, topic) and assigned at publish
    time; together they identify the message for deduplication.
    ``sent_at`` is virtual time in ns. When ``compressed`` is set,
    ``payload`` holds codec output and ``uncompressed_len`` the original
    size; otherwise ``uncompressed_len`` equals ``payload_len``.

    One envelope object is handed to every subscriber of a fan-out, so
    it is never changed once built: a bridge that compresses or
    decompresses builds a new one. That is a convention, not a refused
    assignment, which would make every build several times slower; a
    test checks that no code assigns to an envelope's attributes outside
    ``__init__`` and ``__post_init__``.
    """

    __slots__ = ("topic", "payload", "origin_node", "sequence", "sent_at",
                 "compressed", "uncompressed_len", "payload_len")

    def __init__(self, topic: str, payload: bytes, origin_node: NodeId, sequence: int,
                 sent_at: int, compressed: bool = False, uncompressed_len: int = -1) -> None:
        self.topic = topic
        self.payload = payload
        self.origin_node = origin_node
        self.sequence = sequence
        self.sent_at = sent_at
        self.compressed = compressed
        self.uncompressed_len = uncompressed_len
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.topic:
            raise ValueError("empty topic")
        if self.sequence < 1:
            raise ValueError("sequence starts at 1")
        self.payload_len = len(self.payload)
        if self.uncompressed_len < 0:
            if self.compressed:
                raise ValueError("compressed envelope requires uncompressed_len")
            self.uncompressed_len = self.payload_len
        if self.compressed and self.uncompressed_len < self.payload_len:
            raise ValueError("compressed payload larger than original")
        if not self.compressed and self.uncompressed_len != self.payload_len:
            raise ValueError("uncompressed envelope with mismatched uncompressed_len")


def control_payload(body: dict[str, Any]) -> bytes:
    """The bytes of a control message: ``body`` as sorted-key JSON."""
    return json.dumps(body, sort_keys=True).encode()


def control_envelope(topic: str, payload: bytes, node: NodeId,
                     seq: "SequenceCounter", now: int) -> MessageEnvelope:
    """A control message from ``node`` carrying ``payload``."""
    return MessageEnvelope(
        topic=topic,
        payload=payload,
        origin_node=node,
        sequence=seq.next(topic),
        sent_at=now,
    )


def declaration_body(decl: "FlowDeclaration", service: str) -> dict[str, Any]:
    """The control body that carries ``service``'s declaration."""
    return {"decl": decl.to_obj(), "service": service}


def declaration_payload(decl: "FlowDeclaration", service: str) -> bytes:
    """The canonical bytes of ``declaration_body(decl, service)``."""
    return control_payload(declaration_body(decl, service))


def declaration_from_body(body: dict[str, Any]) -> tuple["FlowDeclaration", str]:
    """The declaration and service carried by a ``declaration_body``."""
    return FlowDeclaration.from_obj(body["decl"]), body["service"]


# A world holds a few declarations per service, re-announced every cycle
# by the same bytes; the bound holds every distinct payload of a
# 1280-service ladder (3,212). An evicted payload only costs a decode again.
@functools.lru_cache(maxsize=4096)
def decode_declaration(payload: bytes) -> tuple["FlowDeclaration", str, bytes]:
    """The declaration and service a control payload carries, and its
    canonical bytes: ``payload`` itself when it re-encodes to the same
    bytes, else the re-encoding. Memoised, so each of the engines that
    receive one payload shares one decode and one immutable result."""
    decl, service = declaration_from_body(json.loads(payload))
    canonical = declaration_payload(decl, service)
    return decl, service, payload if canonical == payload else canonical


class FlowDeclaration(FrozenRecord):
    """An advertise or request for one topic, as flooded between layers.

    Its origin layer is ``origin_node.layer``. The bus reaches every
    layer in one hop, so a declaration needs no record of where it has
    been: an engine floods what arrives on its local scopes and never
    what arrives over the bus. Frozen: `decode_declaration` hands one
    instance to every engine that receives its payload.
    """

    __slots__ = FIELDS = ("direction", "topic", "origin_node", "declared_rate",
                          "declared_max_size")

    def __init__(self, direction: str, topic: str, origin_node: NodeId,
                 declared_rate: float = 0.0, declared_max_size: int = 0) -> None:
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if not topic:
            raise ValueError("empty topic")
        if declared_rate < 0 or declared_max_size < 0:
            raise ValueError("declared rate/size must be >= 0")
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "topic", topic)
        object.__setattr__(self, "origin_node", origin_node)
        object.__setattr__(self, "declared_rate", declared_rate)
        object.__setattr__(self, "declared_max_size", declared_max_size)

    def to_obj(self) -> dict[str, Any]:
        return {
            "direction": self.direction,
            "topic": self.topic,
            "origin_node": [self.origin_node.layer, self.origin_node.name],
            "declared_rate": self.declared_rate,
            "declared_max_size": self.declared_max_size,
        }

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "FlowDeclaration":
        return cls(
            direction=obj["direction"],
            topic=obj["topic"],
            origin_node=NodeId(obj["origin_node"][0], obj["origin_node"][1]),
            declared_rate=obj["declared_rate"],
            declared_max_size=obj["declared_max_size"],
        )


class SequenceCounter:
    """Per-node monotonic sequence numbers, one stream per topic."""

    def __init__(self) -> None:
        self._last: dict[str, int] = {}

    def next(self, topic: str) -> int:
        seq = self._last[topic] = self._last.get(topic, 0) + 1
        return seq


class Topology:
    """Validated deployment: ordered layers, their nodes, all scopes, and
    every link's spec.

    ``layers`` is the tuple of layer names, outermost (edge) first; a
    layer's depth is its index there.

    ``links`` is the document's links section (all sections optional)::

        {"defaults":  {"intra_node": {...}, "crossing": {...}, ...},
         "scopes":    {"intra_layer:edge": {...}, ...},
         "crossings": [{"between": ["edge", "cloud"], "latency_ms": 50,
                        "jitter_ms": 10, "loss": 0.0001,
                        "bandwidth_mbps": 160}, ...]}

    Link fields not given fall back to the kind default; kinds are the
    scope kinds plus "crossing" for inter-layer hops. ``self.links`` holds
    each link's spec by name: a scope's key, or ``a->b`` for a crossing.
    """

    def __init__(self, layers: Iterable[tuple[str, list[str]]], external: Iterable[str] = (),
                 links: dict | None = None):
        self.layers: tuple[str, ...] = tuple(name for name, _ in layers)
        names = self.layers
        if not names:
            raise TopologyError("at least one layer required")
        # node keys join node and layer with "@", so it may appear in neither
        for name in [*names, *(n for _, nodes in layers for n in nodes)]:
            if "@" in name:
                raise TopologyError(f"name {name!r} contains '@'")
        if len(set(names)) != len(names):
            raise TopologyError("duplicate layer name")
        self.external_layers = frozenset(external)
        for name in self.external_layers:
            if name not in names:
                raise TopologyError(f"external_protocol on unknown layer {name!r}")

        self._nodes_by_layer: dict[str, tuple[NodeId, ...]] = {}
        self._node_by_name: dict[str, NodeId] = {}
        for layer_name, node_names in layers:
            if not node_names:
                raise TopologyError(f"layer {layer_name!r} has no nodes")
            nodes = []
            for n in node_names:
                if n in self._node_by_name:
                    raise TopologyError(f"duplicate node name {n!r}")
                node = NodeId(layer_name, n)
                self._node_by_name[n] = node
                nodes.append(node)
            self._nodes_by_layer[layer_name] = tuple(nodes)

        scopes: dict[str, BrokerScope] = {}
        for layer in self.layers:
            for s in (
                BrokerScope(ScopeKind.INTRA_LAYER, layer),
                BrokerScope(ScopeKind.INTER_LAYER, layer),
            ):
                scopes[s.key] = s
            if layer in self.external_layers:
                s = BrokerScope(ScopeKind.EXTERNAL, layer)
                scopes[s.key] = s
            for node in self._nodes_by_layer[layer]:
                s = BrokerScope(ScopeKind.INTRA_NODE, layer, node.name)
                scopes[s.key] = s
        self.scopes: dict[str, BrokerScope] = scopes
        self.links: dict[str, LinkSpec] = self._resolve_links({} if links is None else links)

    def _resolve_links(self, links: dict) -> dict[str, LinkSpec]:
        unknown = set(_expect(links, dict, "links")) - {"defaults", "scopes", "crossings"}
        if unknown:
            raise TopologyError(f"unknown links sections: {sorted(unknown)}")
        defaults = dict(DEFAULT_LINKS)
        for kind, obj in _expect(links.get("defaults", {}), dict, "links.defaults").items():
            if kind not in defaults:
                raise TopologyError(f"unknown link kind {kind!r}")
            defaults[kind] = defaults[kind].merged(obj)

        overrides = _expect(links.get("scopes", {}), dict, "links.scopes")
        stray = set(overrides) - set(self.scopes)
        if stray:
            raise TopologyError(f"link override for unknown scope: {sorted(stray)}")
        specs = {key: defaults[scope.kind.value].merged(overrides.get(key, {}))
                 for key, scope in self.scopes.items()}

        pairs = {frozenset(p): defaults["crossing"] for p in self.layer_pairs()}
        for entry in _expect(links.get("crossings", []), list, "links.crossings"):
            entry = dict(_expect(entry, dict, "crossing entry"))
            between = entry.pop("between", None)
            if (not isinstance(between, list) or len(between) != 2
                    or not all(isinstance(n, str) for n in between)):
                raise TopologyError("crossing entry needs 'between': [layer_a, layer_b]")
            a, b = between
            self.layer(a), self.layer(b)
            if frozenset(between) not in pairs:
                raise TopologyError(f"crossing {a!r}-{b!r} is not a distinct layer pair")
            pairs[frozenset(between)] = defaults["crossing"].merged(entry)
        for a, b in self.layer_pairs():
            specs[f"{a}->{b}"] = specs[f"{b}->{a}"] = pairs[frozenset((a, b))]
        if len(specs) != len(self.scopes) + 2 * len(pairs):
            raise TopologyError("layer names make a crossing's name equal a scope key")
        return specs

    # -- lookups -------------------------------------------------------

    def layer(self, name: str) -> str:
        """``name`` itself, once it is checked to be one of ``layers``."""
        if name not in self.layers:
            raise TopologyError(f"unknown layer {name!r}")
        return name

    def node(self, name: str) -> NodeId:
        try:
            return self._node_by_name[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def nodes_in(self, layer: str) -> tuple[NodeId, ...]:
        self.layer(layer)
        return self._nodes_by_layer[layer]

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(self._node_by_name[n] for n in sorted(self._node_by_name))

    @property
    def most_central_layer(self) -> str:
        return self.layers[-1]

    def scopes_for_layer(self, layer: str) -> tuple[BrokerScope, ...]:
        self.layer(layer)
        return tuple(s for s in self.scopes.values() if s.layer == layer)

    def intra_node_scope(self, node: str) -> BrokerScope:
        n = self.node(node)
        return self.scopes[f"{ScopeKind.INTRA_NODE.value}:{n.name}@{n.layer}"]

    def intra_layer_scope(self, layer: str) -> BrokerScope:
        self.layer(layer)
        return self.scopes[f"{ScopeKind.INTRA_LAYER.value}:{layer}"]

    def inter_layer_scope(self, layer: str) -> BrokerScope:
        self.layer(layer)
        return self.scopes[f"{ScopeKind.INTER_LAYER.value}:{layer}"]

    def external_scope(self, layer: str) -> BrokerScope:
        self.layer(layer)
        key = f"{ScopeKind.EXTERNAL.value}:{layer}"
        if key not in self.scopes:
            raise TopologyError(f"layer {layer!r} has no external_protocol scope")
        return self.scopes[key]

    def default_scope_for(self, node: str) -> BrokerScope:
        """Where a node's services attach: intra_node on the outermost
        (edge) layer, intra_layer on every deeper layer."""
        n = self.node(node)
        if n.layer == self.layers[0]:
            return self.intra_node_scope(node)
        return self.intra_layer_scope(n.layer)

    def system_node(self, layer: str) -> NodeId:
        """First declared node of a layer; hosts layer-level system agents."""
        return self.nodes_in(layer)[0]

    def layer_pairs(self) -> list[tuple[str, str]]:
        """All unordered layer pairs, nearest-neighbor first."""
        names = self.layers
        pairs = []
        for span in range(1, len(names)):
            for i in range(len(names) - span):
                pairs.append((names[i], names[i + span]))
        return pairs


def build_topology(spec: dict[str, Any]) -> Topology:
    """Build and validate a Topology from its dict spec.

    Expected shape::

        {"layers": [{"name": "edge", "nodes": ["robot-1"],
                     "external_protocol": true}, ...]}

    plus an optional top-level ``links`` section (see `Topology`).
    Layers are ordered outermost (edge) first. Unknown keys, at the top
    level or inside a layer entry, are rejected.
    """
    if not isinstance(spec, dict) or not isinstance(spec.get("layers"), list):
        raise TopologyError("topology spec must be a dict with a 'layers' list")
    known_top = {"layers", "links"}
    extra = set(spec) - known_top
    if extra:
        raise TopologyError(f"unknown topology keys: {sorted(extra)}")
    layers: list[tuple[str, list[str]]] = []
    external: list[str] = []
    for entry in spec["layers"]:
        if not isinstance(entry, dict):
            raise TopologyError("each layer entry must be a dict")
        unknown = set(entry) - {"name", "nodes", "external_protocol"}
        if unknown:
            raise TopologyError(f"unknown layer keys: {sorted(unknown)}")
        try:
            name = entry["name"]
            nodes = entry["nodes"]
        except KeyError as e:
            raise TopologyError(f"layer entry missing {e.args[0]!r}") from None
        if not isinstance(name, str) or not (
                isinstance(nodes, list) and all(isinstance(n, str) for n in nodes)):
            raise TopologyError(f"layer {name!r} needs a string name and a list of node names")
        layers.append((name, nodes))
        ext = entry.get("external_protocol", False)
        if not isinstance(ext, bool):
            raise TopologyError(f"layer {name!r}: external_protocol must be true or false")
        if ext:
            external.append(name)
    return Topology(layers, external, spec.get("links"))


def load_topology(path: str) -> Topology:
    """Read and build a topology JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return build_topology(json.load(fh))
