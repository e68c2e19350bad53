"""Unit tests for the distributed configuration store and sync workers."""

import json
from random import Random

import pytest

from flowbridge import configstore, runner, scenario
from flowbridge.configstore import (
    ConfigDocument,
    ConfigError,
    ConfigWorker,
    MainConfigService,
    MainConfigStore,
    canonical,
    diff_paths,
    resolve_layer_config,
)
from flowbridge.monitor import MetricsRegistry
from flowbridge.runner import WorldError, plan, run_scenario
from flowbridge.scenario import parse_scenario
from flowbridge.simnet import MS, Network, SimClock
from flowbridge.topology import CONFIG_NOTICE, build_topology
from flowbridge.tracing import Trace

SPEC = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1"]},
        {"name": "fog", "nodes": ["fog-1"]},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}


def make_topo():
    return build_topology(SPEC)


def planned_configs(topology, config=None):
    """Every layer's config as a run binds it: the plan of a scenario whose
    ``config`` section is ``config``."""
    sc = parse_scenario({"name": "config", "duration_s": 1.0, "config": config or {},
                         "services": [{"name": "idle", "node": "robot-1"}]})
    return plan(sc, topology, sc.duration_s).configs


def merge_config(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins on leaves."""
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = merge_config(out[k], v)
        else:
            out[k] = v
    return out


def layer_body(**rate_limit):
    """A complete layer document: the defaults with ``rate_limit`` overrides."""
    return merge_config(resolve_layer_config({}), {"rate_limit": rate_limit})


# -- pure helpers ------------------------------------------------------------


def test_default_layer_config_shape():
    cfg = resolve_layer_config({})
    assert cfg["rate_limit"]["limit_mbps"] == 160.0
    assert cfg["flow"]["heartbeat_ttl_s"] == 3.0
    assert cfg["config"]["sync_period_s"] == 5.0
    assert set(cfg) == {"rate_limit", "flow", "config"}


def test_merge_config_is_deep_and_non_destructive():
    # an override of one key keeps its section's other defaults, leaves
    # the override as it was, and shares no section with another result
    overrides = {"flow": {"heartbeat_s": 0.5}}
    out = resolve_layer_config(overrides)
    assert out["flow"] == {"reannounce_s": 10.0, "heartbeat_s": 0.5,
                           "heartbeat_ttl_s": 3.0, "watchdog_s": 1.0}
    assert overrides == {"flow": {"heartbeat_s": 0.5}}
    again = resolve_layer_config(overrides)
    assert again == out and all(again[s] is not out[s] for s in out)


def test_canonical_is_sorted_and_strict():
    assert canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    with pytest.raises(ConfigError):
        canonical({"x": object()})


def test_diff_paths():
    old = {"rate_limit": {"limit_mbps": 160.0, "beta": 0.95}, "flow": {"watchdog_s": 1.0}}
    new = {"rate_limit": {"limit_mbps": 80.0, "beta": 0.95}, "extra": 1}
    assert diff_paths(old, new) == ["extra", "flow", "rate_limit.limit_mbps"]
    assert diff_paths(old, old) == []


def test_document_round_trip():
    doc = ConfigDocument("edge", 3, {"k": 1})
    assert doc.to_obj() == {"layer": "edge", "revision": 3, "body": {"k": 1}}
    assert ConfigDocument.from_obj(doc.to_obj()) == doc


def test_plan_covers_every_layer_and_rejects_unknown_ones():
    layers = planned_configs(make_topo(), {"edge": {"rate_limit": {"limit_mbps": 40.0}}})
    assert list(layers) == ["edge", "fog", "cloud"]
    assert layers["edge"]["rate_limit"]["limit_mbps"] == 40.0
    assert layers["fog"] == layers["cloud"] == resolve_layer_config({})
    with pytest.raises(WorldError, match="unknown layers"):
        planned_configs(make_topo(), {"mist": {}})


def test_a_sweep_resolves_each_layer_config_once(monkeypatch, tmp_path):
    # navigation sweeps 4 placements over 3 layers; every world of the run
    # shares the plan's configs
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return resolve_layer_config(*args, **kwargs)

    for module in (configstore, scenario, runner):
        monkeypatch.setattr(module, "resolve_layer_config", counting)
    assert run_scenario(None, "navigation", out_dir=str(tmp_path), duration_override=1.0) == 0
    assert len(list(tmp_path.glob("placement-*"))) == 4
    assert len(calls) == 3


# -- main store ---------------------------------------------------------------


def test_store_revisions_are_monotonic_per_document():
    store = MainConfigStore(make_topo())
    d1 = store.put("edge", layer_body(limit_mbps=100.0))
    d2 = store.put("edge", layer_body(limit_mbps=80.0))
    other = store.put("fog", layer_body(limit_mbps=100.0))
    assert (d1.revision, d2.revision, other.revision) == (1, 2, 1)


def test_store_identical_body_is_noop():
    store = MainConfigStore(make_topo())
    body = layer_body()
    d1 = store.put("edge", body)
    d2 = store.put("edge", dict(reversed(body.items())))  # same canonical body
    assert d2.revision == 1 and d1 == d2


def test_store_validates_subjects():
    store = MainConfigStore(make_topo())
    with pytest.raises(Exception):
        store.put("mist", layer_body())
    assert store.docs == {}


@pytest.mark.parametrize("body", [
    {"marker": 1},                                       # not a layer config at all
    {"rate_limit": {"limit_mbps": 80.0}},                # incomplete
    layer_body(limit_mbps=-1.0),                         # bad rate_limit
    layer_body(compression_level=99),
    merge_config(layer_body(), {"flow": {"watchdog_s": 0.0}}),
    merge_config(layer_body(), {"flow": {"extra": 1.0}}),
], ids=["marker", "incomplete", "limit", "compression", "watchdog", "unknown-key"])
def test_store_rejects_layer_document_that_cannot_run(body):
    # a stored layer document replaces the layer's config on every worker,
    # so an invalid one would fail there one sync period later
    store = MainConfigStore(make_topo())
    with pytest.raises(ConfigError, match="layer 'edge'"):
        store.put("edge", body)
    assert store.docs == {}


# -- wired sync ----------------------------------------------------------------


class ConfigWorld:
    def __init__(self, config=None, links=None):
        self.topology = build_topology({**SPEC, "links": links})
        self.clock = SimClock()
        self.metrics = MetricsRegistry(self.clock)
        self.network = Network(self.topology, self.clock, Random(0), self.metrics, Trace())
        self.store = MainConfigStore(self.topology)
        self.main = MainConfigService(self.store, self.network)
        layers = planned_configs(self.topology, config)
        self.workers = {
            l: ConfigWorker(l, self.network, layers[l]) for l in self.topology.layers
        }
        self.main.start()

    def start_workers(self):
        for w in self.workers.values():
            w.start()

    def settle(self, ms=200.0):
        self.clock.run_until(self.clock.now + int(ms * MS))

    def drain(self):
        self.clock.run_until_idle(100_000)


def test_worker_reads_default_before_first_sync():
    w = ConfigWorld(config={"fog": {"config": {"sync_period_s": 9.0}}})
    fog = w.workers["fog"]
    doc = fog.get_config()
    assert (doc.layer, doc.revision) == ("fog", 0)
    assert doc.body["config"]["sync_period_s"] == 9.0
    assert fog.get_config() is doc  # built once, served without copies
    w.drain()


def test_pull_sync_delivers_stored_documents():
    w = ConfigWorld()
    body = layer_body(limit_mbps=80.0)
    w.store.put("edge", body)
    w.start_workers()
    w.settle()
    doc = w.workers["edge"].get_config()
    assert doc.revision == 1 and doc.body == body
    # other layers never see edge's layer doc
    assert w.workers["fog"].get_config().revision == 0
    assert w.metrics.counter("config.pulls", {"layer": "edge"}).value >= 1
    w.drain()


def test_change_emits_one_notice_per_document():
    w = ConfigWorld()
    w.start_workers()
    w.settle()
    def notices():
        return w.metrics.counter("config.notices", {"layer": "edge"}).value

    sent_before = notices()
    w.store.put("edge", layer_body(limit_mbps=100.0))
    w.store.put("edge", layer_body(limit_mbps=80.0))
    w.settle(6_000)  # one 5 s sync period later
    # the pull fetches only the latest revision
    assert notices() == sent_before + 1
    # replaying the same revision produces no further notices
    w.settle(6_000)
    assert notices() == sent_before + 1
    w.drain()


def test_notice_lists_changed_paths():
    w = ConfigWorld()
    got = []
    w.network.endpoint("intra_layer:edge").subscribe(
        CONFIG_NOTICE, lambda env: got.append(json.loads(env.payload)))
    w.start_workers()
    w.settle()
    base = w.workers["edge"].get_config().body
    changed = merge_config(base, {"rate_limit": {"limit_mbps": 80.0}})
    w.store.put("edge", changed)
    w.settle(6_000)
    assert got == [{"layer": "edge", "revision": 1, "changed_paths": ["rate_limit.limit_mbps"]}]
    w.drain()


def test_worker_ignores_foreign_replies():
    w = ConfigWorld()
    w.start_workers()
    w.settle()
    # a reply correlated to another layer's pull must not apply here
    edge = w.workers["edge"]
    before = edge.get_config()
    edge._on_reply(type("E", (), {"payload": json.dumps(
        {"corr": "fog:1", "docs": [
            {"layer": "edge", "revision": 99, "body": {"x": 1}}
        ]}).encode()})())
    assert edge.get_config() is before
    w.drain()


def test_apply_snapshot_skips_stale_revisions():
    w = ConfigWorld()
    worker = w.workers["edge"]
    doc_v2 = ConfigDocument("edge", 2, {"a": 2})
    doc_v1 = ConfigDocument("edge", 1, {"a": 1})
    assert worker.apply_snapshot([doc_v2]) == 1
    assert worker.apply_snapshot([doc_v1]) == 0
    assert worker.apply_snapshot([doc_v2]) == 0
    assert worker.get_config().body == {"a": 2}
    w.drain()


def test_sync_uses_correlation_ids():
    w = ConfigWorld()
    worker = w.workers["edge"]
    worker.start()  # issues pull edge:1 immediately
    corr2 = worker.sync_now()
    corr3 = worker.sync_now()
    assert (corr2, corr3) == ("edge:2", "edge:3")
    w.settle()
    assert worker._pending == {}  # all answered
    w.drain()


def test_lost_replies_do_not_pile_up():
    # the main service lives on cloud, the most central layer; every pull
    # from edge and fog crosses to it and is lost
    lost = [{"between": [layer, "cloud"], "loss": 1.0} for layer in ("edge", "fog")]
    w = ConfigWorld(links={"crossings": lost})
    w.start_workers()
    w.settle(60_000)  # twelve 5 s sync periods
    for layer in ("edge", "fog"):
        worker = w.workers[layer]
        assert worker._corr >= 12  # it kept pulling
        assert w.metrics.counter("config.pulls", {"layer": layer}).value == 0
        assert len(worker._pending) <= 1, layer
    assert w.metrics.counter("config.pulls", {"layer": "cloud"}).value >= 12  # not crossing
    w.drain()


def test_pushed_sync_period_applies_from_the_next_pull():
    w = ConfigWorld()
    w.store.put("edge", resolve_layer_config({"config": {"sync_period_s": 1.0}}))
    w.start_workers()
    # pulls at 0 s and 5 s; the first one fetched the 1 s period, which
    # the second one re-arms with
    w.settle(5_500)
    before = w.metrics.counter("config.pulls", {"layer": "edge"}).value
    w.settle(10_000)
    assert w.metrics.counter("config.pulls", {"layer": "edge"}).value - before == 10
    assert w.metrics.counter("config.pulls", {"layer": "fog"}).value == 4  # 0, 5, 10, 15 s
    w.drain()
