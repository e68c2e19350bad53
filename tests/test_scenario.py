"""Unit tests for scenario documents and the bundled scenario files."""

import json
import zlib
from random import Random

import pytest

from flowbridge.scenario import (
    ProbesSpec,
    Scenario,
    ScenarioError,
    ServiceSpec,
    StreamSpec,
    SweepSpec,
    builtin_scenarios,
    load_scenario,
    make_payload,
    parse_scenario,
)
from flowbridge.topology import build_topology

MINIMAL = {
    "name": "mini",
    "duration_s": 5.0,
    "services": [
        {"name": "cam", "node": "robot-1",
         "advertises": [{"topic": "img", "rate_hz": 10.0, "size": 100}]},
        {"name": "viewer", "node": "cloud-1", "requests": ["img"]},
    ],
}


# -- model validation -----------------------------------------------------


def test_stream_validation():
    with pytest.raises(ScenarioError):
        StreamSpec("", 1.0, 1)
    with pytest.raises(ScenarioError):
        StreamSpec("t", -1.0, 1)
    with pytest.raises(ScenarioError):
        StreamSpec("t", 1.0, -1)
    with pytest.raises(ScenarioError):
        StreamSpec("t", 1.0, 1, payload="sparkles")


def test_service_validation():
    with pytest.raises(ScenarioError):
        ServiceSpec("", "n")
    with pytest.raises(ScenarioError):
        ServiceSpec("s", "")
    with pytest.raises(ScenarioError):
        ServiceSpec("s", "n", start_s=-1)
    with pytest.raises(ScenarioError):
        ServiceSpec("s", "n", start_s=5.0, stop_s=5.0)
    ok = ServiceSpec("s", "n", start_s=1.0, stop_s=2.0)
    assert ok.stop_s == 2.0


def test_probes_and_sweep_validation():
    with pytest.raises(ScenarioError):
        ProbesSpec(ping_period_s=0)
    with pytest.raises(ScenarioError, match="at least 1 ns"):
        ProbesSpec(ping_period_s=1e-10)  # 0 ns on the clock
    assert ProbesSpec(ping_period_s=1e-9).ping_period_s == 1e-9
    with pytest.raises(ScenarioError):
        ProbesSpec(ping_timeout_s=0)
    with pytest.raises(ScenarioError):
        SweepSpec("", ("a",))
    with pytest.raises(ScenarioError):
        SweepSpec("svc", ())


def test_scenario_validation():
    svc = ServiceSpec("a", "n")
    with pytest.raises(ScenarioError):
        Scenario("x", 0.0, (svc,))
    with pytest.raises(ScenarioError):
        Scenario("x", 1.0, (svc, ServiceSpec("a", "m")))
    with pytest.raises(ScenarioError):
        Scenario("x", 1.0, (svc,), sweep=SweepSpec("ghost", ("n",)))
    assert Scenario("x", 1.0, (svc,)).services == (svc,)


# -- parsing -----------------------------------------------------------------


def test_parse_minimal_document():
    sc = parse_scenario(MINIMAL)
    assert sc.name == "mini" and sc.duration_s == 5.0 and sc.seed == 0
    cam, viewer = sc.services
    assert cam.name == "cam" and cam.advertises[0] == StreamSpec("img", 10.0, 100)
    assert viewer.name == "viewer" and viewer.requests == ("img",)
    assert sc.probes is None and sc.sweep is None and sc.topology is None


def test_parse_full_document():
    doc = dict(MINIMAL)
    doc["seed"] = 7
    doc["config"] = {"edge": {"rate_limit": {"limit_mbps": 40.0}}}
    doc["probes"] = {"nodes": ["robot-1"], "ping_period_s": 2.0}
    doc["sweep"] = {"service": "viewer", "nodes": ["robot-1", "cloud-1"]}
    doc["topology"] = {"layers": [{"name": "edge", "nodes": ["robot-1"]}]}
    sc = parse_scenario(doc)
    assert sc.seed == 7
    assert sc.probes == ProbesSpec(("robot-1",), 2.0, 5.0)
    assert sc.sweep == SweepSpec("viewer", ("robot-1", "cloud-1"))
    assert sc.topology["layers"][0]["name"] == "edge"


def test_parse_rejects_unknown_keys():
    for patch in (
        {"color": "red"},
        {"services": [{"name": "a", "node": "n", "wheels": 4}]},
        {"services": [{"name": "a", "node": "n",
                       "advertises": [{"topic": "t", "priority": 1}]}]},
        {"probes": {"cadence": 1}},
        {"sweep": {"service": "cam", "nodes": ["n"], "mode": "fast"}},
    ):
        doc = {**MINIMAL, **patch}
        with pytest.raises(ScenarioError):
            parse_scenario(doc)


def test_parse_rejects_malformed_documents():
    with pytest.raises(ScenarioError):
        parse_scenario([])
    with pytest.raises(ScenarioError):
        parse_scenario({"name": "x", "duration_s": 1.0, "services": []})
    with pytest.raises(ScenarioError):
        parse_scenario({"name": "x", "services": MINIMAL["services"]})
    with pytest.raises(ScenarioError):
        parse_scenario({**MINIMAL, "config": 7})
    with pytest.raises(ScenarioError):
        parse_scenario({**MINIMAL, "topology": "embedded"})
    with pytest.raises(ScenarioError):
        parse_scenario({**MINIMAL, "services": [{"node": "n"}]})


# A period the clock rounds to 0 ns (0, or under 1 ns) re-arms its timer at
# the same virtual instant forever, and a heartbeat TTL below the heartbeat
# or watchdog period lets live heartbeats lapse, so these documents are only
# ever parsed here, never run.
@pytest.mark.parametrize("section,key,value", [
    ("config", "sync_period_s", 0),
    ("config", "sync_period_s", 1e-10),
    ("flow", "heartbeat_s", 0),
    ("flow", "heartbeat_s", 1e-10),
    ("flow", "watchdog_s", 1e-10),
    ("flow", "reannounce_s", 1e-10),  # it switched re-announce off, as only 0 may
    ("flow", "heartbeat_ttl_s", 0.0),
    ("flow", "heartbeat_ttl_s", 0.5),
    ("flow", "watchdog_s", 0),
    ("flow", "watchdog_s", -1.0),
    ("flow", "reannounce_s", -1.0),
    ("flow", "heartbeat_s", "1"),
    ("flow", "heartbeat_s", True),
    ("config", "sync_period_s", None),
    ("config", "sync_period_s", float("inf")),
])
def test_parse_rejects_layer_config_that_cannot_run(section, key, value):
    doc = {**MINIMAL, "config": {"edge": {section: {key: value}}}}
    with pytest.raises(ScenarioError, match=rf"config\.edge: {section}\.{key}"):
        parse_scenario(doc)


# json reads NaN and Infinity; a run with them fails or spins (an infinite
# rate_hz gives a 1 ns stream period), so these are only parsed, never run.
@pytest.mark.parametrize("path,key,literal", [
    ((), "duration_s", "NaN"),
    ((), "duration_s", "Infinity"),
    ((), "seed", "NaN"),
    ((), "seed", "Infinity"),
    (("services", 0, "advertises", 0), "rate_hz", "NaN"),
    (("services", 0, "advertises", 0), "rate_hz", "Infinity"),
    (("services", 0, "advertises", 0), "size", "NaN"),
    (("services", 0, "advertises", 0), "size", "-Infinity"),
    (("services", 1), "start_s", "NaN"),
    (("services", 1), "stop_s", "Infinity"),
    (("probes",), "ping_period_s", "NaN"),
    (("probes",), "ping_timeout_s", "Infinity"),
])
def test_parse_rejects_non_finite_numbers(path, key, literal):
    doc = json.loads(json.dumps({**MINIMAL, "probes": {"nodes": ["robot-1"]}}))
    target = doc
    for step in path:
        target = target[step]
    target[key] = json.loads(literal)
    with pytest.raises(ScenarioError, match=f"{key} must be a finite number"):
        parse_scenario(doc)


def test_parse_accepts_reannounce_off():
    sc = parse_scenario({**MINIMAL, "config": {"edge": {"flow": {"reannounce_s": 0}}}})
    assert sc.config == {"edge": {"flow": {"reannounce_s": 0}}}
    # and the shortest period the nanosecond clock holds
    sc = parse_scenario({**MINIMAL, "config": {"edge": {"flow": {"reannounce_s": 1e-9}}}})
    assert sc.config == {"edge": {"flow": {"reannounce_s": 1e-9}}}


def test_parse_rejects_duplicate_topics_of_one_service():
    for service in (
        {"name": "a", "node": "n", "requests": ["t61", "t61"]},
        {"name": "a", "node": "n", "advertises": [{"topic": "t"}, {"topic": "t"}]},
    ):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario({**MINIMAL, "services": [service]})


# -- loading ------------------------------------------------------------------


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(MINIMAL))
    sc = load_scenario(str(path))
    assert sc.name == "mini"


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def test_load_scenario_unknown_name_mentions_bundled():
    with pytest.raises(ScenarioError) as err:
        load_scenario("no-such-scenario")
    for name in builtin_scenarios():
        assert name in str(err.value)


def test_bundled_scenarios_parse_and_embed_topologies():
    names = builtin_scenarios()
    assert "navigation" in names and "estop" in names
    for name in names:
        sc = load_scenario(name)
        assert sc.duration_s > 0
        assert sc.topology is not None
        topo = build_topology(sc.topology)
        node_names = {n.name for n in topo.nodes}
        for svc in sc.services:
            assert svc.node in node_names, f"{name}: {svc.name} on unknown node"
            for topic in svc.requests:
                advertised = any(
                    topic in {s.topic for s in other.advertises}
                    for other in sc.services)
                assert advertised, f"{name}: request {topic!r} never advertised"
        if sc.probes:
            assert set(sc.probes.nodes) <= node_names
        if sc.sweep:
            assert set(sc.sweep.nodes) <= node_names


# -- payload generation ----------------------------------------------------------


def test_make_payload_sizes_and_kinds():
    rng = Random(0)
    assert make_payload("zeros", 0, rng) == b""
    assert make_payload("zeros", 64, rng) == bytes(64)
    assert len(make_payload("random", 100, rng)) == 100
    assert len(make_payload("compressible", 100, rng)) == 100
    with pytest.raises(ScenarioError):
        make_payload("sparkles", 10, rng)


def test_make_payload_textures_differ_under_compression():
    rng = Random(1)
    compressible = make_payload("compressible", 64 * 1024, rng)
    noise = make_payload("random", 64 * 1024, rng)
    assert len(zlib.compress(compressible)) < len(compressible) * 0.1
    assert len(zlib.compress(noise)) > len(noise) * 0.9


def test_make_payload_is_seed_deterministic():
    a = make_payload("random", 256, Random(42))
    b = make_payload("random", 256, Random(42))
    assert a == b
