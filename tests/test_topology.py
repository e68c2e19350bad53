"""Unit tests for the deployment model: layers, nodes, scopes, envelopes."""

import ast
import json
import math
from pathlib import Path

import pytest

import flowbridge
from flowbridge.topology import (
    ADVERTISE,
    DEFAULT_LINKS,
    REQUEST,
    RESERVED_PREFIX,
    BrokerScope,
    FlowDeclaration,
    LinkSpec,
    MessageEnvelope,
    NodeId,
    ScopeKind,
    SequenceCounter,
    Topology,
    TopologyError,
    build_topology,
    declaration_body,
    declaration_from_body,
    load_topology,
)

SPEC = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1", "robot-2"], "external_protocol": True},
        {"name": "fog", "nodes": ["fog-1"]},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}


def make_topo() -> Topology:
    return build_topology(SPEC)


# -- identities ---------------------------------------------------------


def test_node_key_format():
    assert NodeId("edge", "robot-1").key == "robot-1@edge"


def test_scope_keys():
    assert BrokerScope(ScopeKind.INTRA_NODE, "edge", "robot-1").key == "intra_node:robot-1@edge"
    assert BrokerScope(ScopeKind.INTRA_LAYER, "fog").key == "intra_layer:fog"
    assert BrokerScope(ScopeKind.INTER_LAYER, "cloud").key == "inter_layer:cloud"
    assert BrokerScope(ScopeKind.EXTERNAL, "edge").key == "external_protocol:edge"


def test_scope_node_constraints():
    with pytest.raises(TopologyError):
        BrokerScope(ScopeKind.INTRA_NODE, "edge")
    with pytest.raises(TopologyError):
        BrokerScope(ScopeKind.INTRA_LAYER, "edge", "robot-1")
    with pytest.raises(TopologyError):
        BrokerScope(ScopeKind.EXTERNAL, "edge", "robot-1")


# -- topology construction ----------------------------------------------


def test_build_and_lookups():
    topo = make_topo()
    # a layer is its name, and its depth is its index in ``layers``
    assert topo.layers == ("edge", "fog", "cloud")
    assert topo.layer("fog") == "fog"
    assert topo.node("robot-2") == NodeId("edge", "robot-2")
    assert topo.nodes_in("edge") == (NodeId("edge", "robot-1"), NodeId("edge", "robot-2"))
    assert topo.most_central_layer == "cloud"


def test_nodes_property_sorted_by_name():
    topo = make_topo()
    assert [n.name for n in topo.nodes] == ["cloud-1", "fog-1", "robot-1", "robot-2"]


def test_scope_inventory():
    topo = make_topo()
    # 2 per layer + 1 per node + 1 external on edge
    assert len(topo.scopes) == 2 * 3 + 4 + 1
    assert topo.intra_node_scope("robot-1").key == "intra_node:robot-1@edge"
    assert topo.intra_layer_scope("fog").key == "intra_layer:fog"
    assert topo.inter_layer_scope("cloud").key == "inter_layer:cloud"
    assert topo.external_scope("edge").key == "external_protocol:edge"
    with pytest.raises(TopologyError):
        topo.external_scope("fog")


def test_default_scope_depth_rule():
    topo = make_topo()
    # outermost layer services attach per node, deeper layers share one scope
    assert topo.default_scope_for("robot-1").kind is ScopeKind.INTRA_NODE
    assert topo.default_scope_for("fog-1").kind is ScopeKind.INTRA_LAYER
    assert topo.default_scope_for("cloud-1").kind is ScopeKind.INTRA_LAYER


def test_system_node_is_first_declared():
    topo = make_topo()
    assert topo.system_node("edge").name == "robot-1"
    assert topo.system_node("cloud").name == "cloud-1"


def test_layer_pairs_nearest_first():
    topo = make_topo()
    assert topo.layer_pairs() == [("edge", "fog"), ("fog", "cloud"), ("edge", "cloud")]


def test_unknown_lookups_raise():
    topo = make_topo()
    with pytest.raises(TopologyError):
        topo.layer("mist")
    with pytest.raises(TopologyError):
        topo.node("ghost")
    with pytest.raises(TopologyError):
        topo.nodes_in("mist")


def test_validation_errors():
    with pytest.raises(TopologyError):
        Topology([])
    with pytest.raises(TopologyError):
        Topology([("edge", ["a"]), ("edge", ["b"])])
    with pytest.raises(TopologyError):
        Topology([("edge", [])])
    with pytest.raises(TopologyError):
        Topology([("edge", ["a"]), ("fog", ["a"])])
    with pytest.raises(TopologyError):
        Topology([("edge", ["a"])], external=["fog"])
    # node keys are "<node>@<layer>": these two nodes would both be
    # a@x@edge and share one intra_node scope
    with pytest.raises(TopologyError, match="'@'"):
        Topology([("x@edge", ["a"]), ("edge", ["a@x"])])
    with pytest.raises(TopologyError, match="'@'"):
        Topology([("edge", ["a@x"])])


def test_build_topology_rejects_bad_specs():
    with pytest.raises(TopologyError):
        build_topology([])
    with pytest.raises(TopologyError):
        build_topology({"nodes": []})
    with pytest.raises(TopologyError):
        build_topology({"layers": [], "extra": 1})
    with pytest.raises(TopologyError):
        build_topology({"layers": [{"name": "edge", "nodes": ["a"], "color": "red"}]})
    with pytest.raises(TopologyError):
        build_topology({"layers": [{"name": "edge"}]})
    with pytest.raises(TopologyError):
        build_topology({"layers": ["edge"]})
    # an empty name made scope keys like "intra_node:@" and links like "->cloud"
    with pytest.raises(TopologyError, match=r"layers\[0\]\.name must be a non-empty string"):
        build_topology({"layers": [{"name": "", "nodes": ["a"]}]})
    with pytest.raises(TopologyError, match=r"layers\[0\]\.nodes\[1\] must be a non-empty"):
        build_topology({"layers": [{"name": "edge", "nodes": ["a", ""]}]})


def test_load_topology_returns_links(tmp_path):
    # the links section is resolved with the topology, one spec per link name
    spec = dict(SPEC)
    spec["links"] = {"defaults": {"intra_layer": {"latency_ms": 3.0}},
                     "scopes": {"intra_layer:fog": {"loss": 0.5}},
                     "crossings": [{"between": ["cloud", "edge"], "bandwidth_mbps": 160}]}
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(spec))
    topo = load_topology(str(path))
    assert topo.most_central_layer == "cloud"
    assert topo.links["intra_layer:edge"] == LinkSpec(latency_ms=3.0)
    assert topo.links["intra_layer:fog"] == LinkSpec(latency_ms=3.0, loss=0.5)
    assert topo.links["inter_layer:edge"] == DEFAULT_LINKS["inter_layer"]
    assert topo.links["edge->cloud"] == topo.links["cloud->edge"] == LinkSpec(
        latency_ms=10.0, bandwidth_mbps=160)
    assert topo.links["fog->cloud"] == DEFAULT_LINKS["crossing"]
    pairs = topo.layer_pairs()
    assert set(topo.links) == set(topo.scopes) | {
        f"{a}->{b}" for p in pairs for a, b in (p, p[::-1])}


def test_topology_without_links_gets_the_defaults():
    topo = Topology([("edge", ["a"]), ("cloud", ["b"])])
    assert topo.links["intra_node:a@edge"] == DEFAULT_LINKS["intra_node"]
    assert topo.links["cloud->edge"] == DEFAULT_LINKS["crossing"]


@pytest.mark.parametrize("links", [
    {"defaults": {"latency_ms": 1.0}},  # names no link kind
    {"defaults": {"bogus": {}}},
    {"crossings": [{"between": ["edge", "mars"]}]},
])
def test_load_topology_rejects_a_malformed_links_section(tmp_path, links):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps({**SPEC, "links": links}))
    with pytest.raises(TopologyError):
        load_topology(str(path))


@pytest.mark.parametrize("second", [["edge", "cloud"], ["cloud", "edge"]])
def test_a_crossing_pair_may_be_named_only_once(second):
    # the later entry used to win without an error
    links = {"crossings": [{"between": ["edge", "cloud"], "latency_ms": 5.0},
                           {"between": second, "latency_ms": 50.0}]}
    with pytest.raises(TopologyError, match=r"links\.crossings\[1\]: crossing .* named twice"):
        build_topology({**SPEC, "links": links})


def test_crossing_name_may_not_equal_a_scope_key():
    # the crossing from layer "intra_layer:x" to layer "y" would share its
    # name, and so its spec, with the intra_layer scope of layer "x->y"
    with pytest.raises(TopologyError, match="crossing's name"):
        Topology([("intra_layer:x", ["a"]), ("y", ["b"]), ("x->y", ["c"])])


# -- envelopes -----------------------------------------------------------


def env(**kw) -> MessageEnvelope:
    base = dict(
        topic="scan",
        payload=b"hello",
        origin_node=NodeId("edge", "robot-1"),
        sequence=1,
        sent_at=0,
    )
    base.update(kw)
    return MessageEnvelope(**base)


def test_envelope_defaults_and_stream_key():
    e = env()
    assert e.payload_len == 5
    assert e.uncompressed_len == 5
    assert not e.compressed
    # the length follows the payload, also in an envelope built from another
    assert MessageEnvelope(e.topic, b"hi", e.origin_node, e.sequence, e.sent_at).payload_len == 2


ENVELOPE_FIELDS = set(MessageEnvelope.__slots__)
# the envelope's methods that build it
ENVELOPE_BUILDERS = ("__init__", "__post_init__")


def envelope_field_stores(tree: ast.Module) -> list[int]:
    """Lines that store, or delete, an attribute named like an envelope
    field on anything but ``self``, through ``setattr`` and
    ``__setattr__`` too, or on ``self`` in a `MessageEnvelope` method
    other than ``__init__`` and ``__post_init__``. Another class's
    ``self.topic = ...``, or ``object.__setattr__(self, "topic", ...)``,
    is its own attribute, not an envelope's."""
    found = []

    def visit(node, cls, fn):
        def store(target, lineno):
            on_self = isinstance(target, ast.Name) and target.id == "self"
            if not on_self or (cls == "MessageEnvelope" and fn not in ENVELOPE_BUILDERS):
                found.append(lineno)

        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))
              and node.attr in ENVELOPE_FIELDS):
            store(node.value, node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else ""
            if name in ("setattr", "delattr", "__setattr__", "__delattr__"):
                if any(isinstance(a, ast.Constant) and a.value in ENVELOPE_FIELDS
                       for a in node.args):
                    store(node.args[0] if node.args else None, node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_no_code_assigns_to_an_envelope_after_it_is_built():
    # an envelope is shared by every copy of a fan-out and is immutable by
    # convention only (slots, not frozen)
    src = Path(flowbridge.__file__).parent
    stores = {path.name: lines for path in sorted(src.glob("*.py"))
              if (lines := envelope_field_stores(ast.parse(path.read_text())))}
    assert stores == {}


def test_a_declaration_cannot_be_assigned_to():
    # one decoded declaration, and its node, is shared by every engine its
    # payload reaches
    node = NodeId("edge", "robot-1")
    d = FlowDeclaration(ADVERTISE, "scan", node, 10.0, 512)
    with pytest.raises(AttributeError):
        d.declared_rate = 20.0
    with pytest.raises(AttributeError):
        node.name = "robot-2"
    assert (d.declared_rate, node.name, node.key) == (10.0, "robot-1", "robot-1@edge")


def test_the_store_check_sees_what_it_forbids():
    bad = """
e.sent_at = 1
e.payload_len += 1
a.topic, b = 1, 2
del e.payload
setattr(e, "sequence", 2)
object.__setattr__(e, "compressed", True)
class MessageEnvelope:
    def later(self):
        self.topic = "x"
        object.__setattr__(self, "topic", "x")
"""
    assert envelope_field_stores(ast.parse(bad)) == [2, 3, 4, 5, 6, 7, 10, 11]
    fine = """
class MessageEnvelope:
    def __init__(self, topic):
        self.topic = topic
    def __post_init__(self):
        self.payload_len = 1
class Handle:
    def __init__(self, topic):
        self.topic = topic
        object.__setattr__(self, "topic", topic)
x.active = False
setattr(x, "other", 1)
"""
    assert envelope_field_stores(ast.parse(fine)) == []


def test_envelope_validation():
    with pytest.raises(ValueError):
        env(topic="")
    with pytest.raises(ValueError):
        env(sequence=0)
    with pytest.raises(ValueError):
        env(compressed=True)  # needs uncompressed_len
    with pytest.raises(ValueError):
        env(compressed=True, uncompressed_len=2)  # smaller than payload
    with pytest.raises(ValueError):
        env(uncompressed_len=99)


# -- flow declarations ---------------------------------------------------


def decl(**kw) -> FlowDeclaration:
    base = dict(
        direction=ADVERTISE,
        topic="scan",
        origin_node=NodeId("edge", "robot-1"),
        declared_rate=10.0,
        declared_max_size=512,
    )
    base.update(kw)
    return FlowDeclaration(**base)


def test_declaration_validation():
    with pytest.raises(ValueError):
        decl(direction="subscribe")
    with pytest.raises(ValueError):
        decl(topic="")
    with pytest.raises(ValueError):
        decl(declared_rate=-1.0)
    # as the document reader does, for callers that pass no document
    for field in ("declared_rate", "declared_max_size"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                decl(**{field: value})


def test_flow_control_body_carries_each_fact_once():
    d = decl()
    body = json.loads(json.dumps(declaration_body(d, "cam")))
    assert set(body) == {"decl", "service"}
    assert set(body["decl"]) == {
        "direction", "topic", "origin_node", "declared_rate", "declared_max_size"}
    assert declaration_from_body(body) == (d, "cam")


def test_declaration_obj_round_trip():
    d = decl(direction=REQUEST)
    assert FlowDeclaration.from_obj(d.to_obj()) == d
    # to_obj output is JSON-serializable
    json.dumps(d.to_obj())


# -- sequences -----------------------------------------------------------


def test_sequence_counter():
    c = SequenceCounter()
    assert [c.next("a") for _ in range(3)] == [1, 2, 3]
    assert c.next("b") == 1
    assert c.next("a") == 4


def test_reserved_prefix_marks_control_topics():
    from flowbridge import topology as t

    for name in (t.FLOW_ADVERTISE, t.FLOW_REQUEST, t.FLOW_WITHDRAW,
                 t.CONFIG_REQUEST, t.CONFIG_REPLY, t.CONFIG_NOTICE):
        assert name.startswith(RESERVED_PREFIX)
