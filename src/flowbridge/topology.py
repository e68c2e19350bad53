"""Layered deployment model: layers, nodes, broker scopes, message types.

A deployment is an ordered stack of layers (edge first, most central
last). Every layer gets one intra-layer scope and one inter-layer scope;
every node gets an intra-node scope; a layer may additionally expose an
external-protocol scope for non-native clients. Scopes are the units a
broker endpoint binds to and the vertices bridges connect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


class TopologyError(ValueError):
    """Raised for malformed topology specs or unknown layer/node lookups."""


class ScopeKind(str, Enum):
    INTRA_NODE = "intra_node"
    INTRA_LAYER = "intra_layer"
    INTER_LAYER = "inter_layer"
    EXTERNAL = "external_protocol"


@dataclass(frozen=True)
class LayerId:
    """A named layer with its depth in the stack (0 = outermost edge)."""

    depth: int
    name: str


@dataclass(frozen=True)
class NodeId:
    layer: str
    name: str
    key: str = field(init=False, repr=False, compare=False)  # "name@layer"

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", f"{self.name}@{self.layer}")


@dataclass(frozen=True)
class BrokerScope:
    """Identity of one broker endpoint: kind plus owning layer or node."""

    kind: ScopeKind
    layer: str
    node: str | None = None
    # "kind:layer", or "kind:node@layer" for intra_node
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind is ScopeKind.INTRA_NODE:
            if self.node is None:
                raise TopologyError("intra_node scope requires a node")
            key = f"{self.kind.value}:{self.node}@{self.layer}"
        elif self.node is not None:
            raise TopologyError(f"{self.kind.value} scope must not name a node")
        else:
            key = f"{self.kind.value}:{self.layer}"
        object.__setattr__(self, "key", key)

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class MessageEnvelope:
    """One published message as carried between scopes.

    ``sequence`` is per (origin_node, topic) and assigned at publish
    time; together they identify the message for deduplication.
    ``sent_at`` is virtual time in ns. When ``compressed`` is set,
    ``payload`` holds codec output and ``uncompressed_len`` the original
    size; otherwise ``uncompressed_len`` equals ``payload_len``. Frozen
    because one envelope object is handed to every subscriber of a
    fan-out.
    """

    topic: str
    payload: bytes
    origin_node: NodeId
    sequence: int
    sent_at: int
    compressed: bool = False
    uncompressed_len: int = -1
    payload_len: int = field(init=False, repr=False, compare=False)  # len(payload)

    def __post_init__(self) -> None:
        if not self.topic:
            raise ValueError("empty topic")
        if self.sequence < 1:
            raise ValueError("sequence starts at 1")
        object.__setattr__(self, "payload_len", len(self.payload))
        if self.uncompressed_len < 0:
            if self.compressed:
                raise ValueError("compressed envelope requires uncompressed_len")
            object.__setattr__(self, "uncompressed_len", self.payload_len)
        if self.compressed and self.uncompressed_len < self.payload_len:
            raise ValueError("compressed payload larger than original")
        if not self.compressed and self.uncompressed_len != self.payload_len:
            raise ValueError("uncompressed envelope with mismatched uncompressed_len")


def control_envelope(topic: str, body: dict[str, Any], node: NodeId,
                     seq: "SequenceCounter", now: int) -> MessageEnvelope:
    """A control message from ``node``: ``body`` as sorted-key JSON."""
    return MessageEnvelope(
        topic=topic,
        payload=json.dumps(body, sort_keys=True).encode(),
        origin_node=node,
        sequence=seq.next(topic),
        sent_at=now,
    )


def declaration_body(decl: "FlowDeclaration", service: str) -> dict[str, Any]:
    """The control body that carries ``service``'s declaration."""
    return {"decl": decl.to_obj(), "service": service}


def declaration_from_body(body: dict[str, Any]) -> tuple["FlowDeclaration", str]:
    """The declaration and service carried by a ``declaration_body``."""
    return FlowDeclaration.from_obj(body["decl"]), body["service"]


@dataclass
class FlowDeclaration:
    """An advertise or request for one topic, as flooded between layers.

    Its origin layer is ``origin_node.layer``. The bus reaches every
    layer in one hop, so a declaration needs no record of where it has
    been: an engine floods what arrives on its local scopes and never
    what arrives over the bus.
    """

    direction: str
    topic: str
    origin_node: NodeId
    declared_rate: float = 0.0
    declared_max_size: int = 0

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if not self.topic:
            raise ValueError("empty topic")
        if self.declared_rate < 0 or self.declared_max_size < 0:
            raise ValueError("declared rate/size must be >= 0")

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

    def last(self, topic: str) -> int:
        return self._last.get(topic, 0)


class Topology:
    """Validated deployment: ordered layers, their nodes, and all scopes."""

    def __init__(self, layers: Iterable[tuple[str, list[str]]], external: Iterable[str] = ()):
        self.layers: tuple[LayerId, ...] = tuple(
            LayerId(i, name) for i, (name, _) in enumerate(layers)
        )
        names = [l.name for l in self.layers]
        if not names:
            raise TopologyError("at least one layer required")
        # node keys join node and layer with "@", so it may appear in neither
        for name in [*names, *(n for _, nodes in layers for n in nodes)]:
            if "@" in name:
                raise TopologyError(f"name {name!r} contains '@'")
        if len(set(names)) != len(names):
            raise TopologyError("duplicate layer name")
        self._layer_by_name = {l.name: l for l in self.layers}
        self.external_layers = frozenset(external)
        for name in self.external_layers:
            if name not in self._layer_by_name:
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
                BrokerScope(ScopeKind.INTRA_LAYER, layer.name),
                BrokerScope(ScopeKind.INTER_LAYER, layer.name),
            ):
                scopes[s.key] = s
            if layer.name in self.external_layers:
                s = BrokerScope(ScopeKind.EXTERNAL, layer.name)
                scopes[s.key] = s
            for node in self._nodes_by_layer[layer.name]:
                s = BrokerScope(ScopeKind.INTRA_NODE, layer.name, node.name)
                scopes[s.key] = s
        self.scopes: dict[str, BrokerScope] = scopes

    # -- lookups -------------------------------------------------------

    def layer(self, name: str) -> LayerId:
        try:
            return self._layer_by_name[name]
        except KeyError:
            raise TopologyError(f"unknown layer {name!r}") from None

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
    def most_central_layer(self) -> LayerId:
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
        if self.layer(n.layer).depth == 0:
            return self.intra_node_scope(node)
        return self.intra_layer_scope(n.layer)

    def system_node(self, layer: str) -> NodeId:
        """First declared node of a layer; hosts layer-level system agents."""
        return self.nodes_in(layer)[0]

    def layer_pairs(self) -> list[tuple[str, str]]:
        """All unordered layer pairs, nearest-neighbor first."""
        names = [l.name for l in self.layers]
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

    Layers are ordered outermost (edge) first. Unknown keys inside a
    layer entry are rejected; a ``links`` key at the top level is
    allowed and ignored here (the network consumes it).
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
    return Topology(layers, external)


def load_topology(path: str) -> tuple[Topology, dict[str, Any]]:
    """Read a topology JSON file; returns (topology, links section)."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    topo = build_topology(spec)
    links = spec.get("links", {})
    return topo, links
