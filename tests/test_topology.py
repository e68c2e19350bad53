"""Unit tests for the deployment model: layers, nodes, scopes, envelopes."""

import json

import pytest

from flowbridge.topology import (
    ADVERTISE,
    REQUEST,
    RESERVED_PREFIX,
    BrokerScope,
    FlowDeclaration,
    LayerId,
    MessageEnvelope,
    NodeId,
    ScopeKind,
    SequenceCounter,
    Topology,
    TopologyError,
    build_topology,
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
    assert [l.name for l in topo.layers] == ["edge", "fog", "cloud"]
    assert [l.depth for l in topo.layers] == [0, 1, 2]
    assert topo.layer("fog") == LayerId(1, "fog")
    assert topo.node("robot-2") == NodeId("edge", "robot-2")
    assert topo.nodes_in("edge") == (NodeId("edge", "robot-1"), NodeId("edge", "robot-2"))
    assert topo.most_central_layer.name == "cloud"


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


def test_load_topology_returns_links(tmp_path):
    spec = dict(SPEC)
    spec["links"] = {"defaults": {"latency_ms": 1.0}}
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(spec))
    topo, links = load_topology(str(path))
    assert topo.most_central_layer.name == "cloud"
    assert links == {"defaults": {"latency_ms": 1.0}}


# -- envelopes -----------------------------------------------------------


def env(**kw) -> MessageEnvelope:
    base = dict(
        topic="scan",
        payload=b"hello",
        origin_node=NodeId("edge", "robot-1"),
        origin_layer="edge",
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


def test_envelope_validation():
    with pytest.raises(ValueError):
        env(topic="")
    with pytest.raises(ValueError):
        env(sequence=0)
    with pytest.raises(ValueError):
        env(payload_len=3)
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
        origin_layer="edge",
        declared_rate=10.0,
        declared_max_size=512,
    )
    base.update(kw)
    return FlowDeclaration(**base)


def test_declaration_stamps_origin_layer():
    d = decl()
    assert d.visited_layers == frozenset({"edge"})


def test_declaration_visit_accumulates():
    d = decl().visit("fog").visit("cloud")
    assert d.visited_layers == frozenset({"edge", "fog", "cloud"})
    # original is unchanged
    assert decl().visited_layers == frozenset({"edge"})


def test_declaration_validation():
    with pytest.raises(ValueError):
        decl(direction="subscribe")
    with pytest.raises(ValueError):
        decl(topic="")
    with pytest.raises(ValueError):
        decl(declared_rate=-1.0)
    with pytest.raises(ValueError):
        decl(visited_layers=frozenset({"fog"}))  # origin missing


def test_declaration_obj_round_trip():
    d = decl(direction=REQUEST).visit("fog")
    assert FlowDeclaration.from_obj(d.to_obj()) == d
    # to_obj output is JSON-serializable
    json.dumps(d.to_obj())


# -- sequences -----------------------------------------------------------


def test_sequence_counter():
    c = SequenceCounter()
    assert c.last("a") == 0
    assert [c.next("a") for _ in range(3)] == [1, 2, 3]
    assert c.next("b") == 1
    assert c.last("a") == 3


def test_reserved_prefix_marks_control_topics():
    from flowbridge import topology as t

    for name in (t.FLOW_ADVERTISE, t.FLOW_REQUEST, t.FLOW_WITHDRAW,
                 t.CONFIG_REQUEST, t.CONFIG_REPLY, t.CONFIG_NOTICE):
        assert name.startswith(RESERVED_PREFIX)
