"""Unit tests for scenario documents and the bundled scenario files."""

import json
import zlib
from random import Random

import pytest

from flowbridge.configstore import resolve_layer_config
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


def with_fields(path, **fields):
    """MINIMAL with ``fields`` set in the object at ``path``, made if absent."""
    doc = json.loads(json.dumps(MINIMAL))
    target = doc
    for step in path:
        target = target.setdefault(step, {}) if isinstance(target, dict) else target[step]
    target.update(fields)
    return doc


STREAM = ("services", 0, "advertises", 0)
SERVICE = ("services", 0)


def test_stream_validation():
    # a stream names only its topic; each field at its bound is accepted
    sc = parse_scenario(with_fields(STREAM, topic="t", rate_hz=0, size=0))
    assert sc.services[0].advertises == (StreamSpec("t"),)
    assert StreamSpec("t") == StreamSpec("t", 0.0, 0, "random")
    for payload in ("random", "compressible", "zeros"):
        sc = parse_scenario(with_fields(STREAM, rate_hz=1e9, payload=payload))
        assert sc.services[0].advertises[0].payload == payload


def test_service_validation():
    ok = parse_scenario(with_fields(SERVICE, start_s=1.0, stop_s=2.0)).services[0]
    assert (ok.start_s, ok.stop_s) == (1.0, 2.0)
    assert ok == ServiceSpec("cam", "robot-1", ok.advertises, (), 1.0, 2.0)


def test_probes_and_sweep_validation():
    sc = parse_scenario(with_fields(("probes",), ping_period_s=1e-9))
    assert sc.probes == ProbesSpec((), 1e-9, 5.0)
    sc = parse_scenario(with_fields(("sweep",), service="cam", nodes=["a"]))
    assert sc.sweep == SweepSpec("cam", ("a",))


def test_scenario_validation():
    sc = parse_scenario(MINIMAL)
    assert sc == Scenario("mini", 5.0, sc.services)
    # no two records share a default dict
    assert Scenario("x", 1.0, ()).config is not Scenario("x", 1.0, ()).config
    assert parse_scenario(MINIMAL).config is not sc.config


# Each value a spec's own constructor once refused, sent through the reader,
# and the names that were once coerced with str() or let through empty.
@pytest.mark.parametrize("path,fields,match", [
    pytest.param(STREAM, {"topic": ""}, "topic must be a non-empty string",
                 id="stream-empty-topic"),
    pytest.param(STREAM, {"rate_hz": -1.0}, "rate_hz must be a finite number, 0 or at least",
                 id="stream-negative-rate"),
    pytest.param(STREAM, {"size": -1}, "size must be a finite number", id="stream-negative-size"),
    pytest.param(STREAM, {"payload": "sparkles"}, "payload must be one of",
                 id="stream-unknown-payload"),
    pytest.param(SERVICE, {"name": ""}, r"services\[0\]\.name must be a non-empty",
                 id="service-empty-name"),
    pytest.param(SERVICE, {"node": ""}, r"services\[0\]\.node must be a non-empty",
                 id="service-empty-node"),
    pytest.param(SERVICE, {"start_s": -1}, "start_s must be a finite number",
                 id="service-negative-start"),
    pytest.param(SERVICE, {"start_s": 5.0, "stop_s": 5.0}, "stop_s must be > start_s",
                 id="service-stop-at-start"),
    pytest.param(("probes",), {"ping_period_s": 0}, "ping_period_s", id="probes-period-0"),
    pytest.param(("probes",), {"ping_period_s": 1e-10}, "at least 1e-09",
                 id="probes-period-under-1ns"),  # 0 ns on the clock
    pytest.param(("probes",), {"ping_timeout_s": 0}, "ping_timeout_s .* above 0",
                 id="probes-timeout-0"),
    pytest.param(("sweep",), {"service": "", "nodes": ["a"]}, "sweep.service",
                 id="sweep-empty-service"),
    pytest.param(("sweep",), {"service": "cam", "nodes": []}, "sweep.nodes",
                 id="sweep-no-nodes"),
    pytest.param((), {"duration_s": 0.0}, "duration_s .* above 0", id="duration-0"),
    pytest.param((), {"services": [{"name": "a", "node": "n"}, {"name": "a", "node": "m"}]},
                 r"duplicate service names \['a'\]", id="duplicate-service-names"),
    pytest.param(("sweep",), {"service": "ghost", "nodes": ["n"]}, "'ghost' is not defined",
                 id="sweep-ghost-service"),
    pytest.param((), {"name": None}, "name must be a non-empty string, got None",
                 id="name-null"),
    pytest.param((), {"name": 5}, "name must be a non-empty string, got 5", id="name-number"),
    pytest.param((), {"name": {"x": 1}}, "name must be a non-empty string",
                 id="name-object"),
    pytest.param((), {"name": ""}, "name must be a non-empty string", id="name-empty"),
])
def test_parse_rejects_a_bad_field(path, fields, match):
    with pytest.raises(ScenarioError, match=match):
        parse_scenario(with_fields(path, **fields))


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
    with pytest.raises(ScenarioError, match=rf"config\.edge\.{section}\.{key}"):
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
    assert sc.config == {"edge": resolve_layer_config({"flow": {"reannounce_s": 0}})}
    # and the shortest period the nanosecond clock holds
    sc = parse_scenario({**MINIMAL, "config": {"edge": {"flow": {"reannounce_s": 1e-9}}}})
    assert sc.config == {"edge": resolve_layer_config({"flow": {"reannounce_s": 1e-9}})}


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
