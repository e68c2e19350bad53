"""Unit tests for the distributed configuration store and sync workers."""

import json
from random import Random

import pytest

from flowbridge.configstore import (
    ConfigChangeNotice,
    ConfigDocument,
    ConfigError,
    ConfigWorker,
    MainConfigService,
    MainConfigStore,
    canonical,
    default_layer_config,
    diff_paths,
    merge_config,
)
from flowbridge.monitor import MetricsRegistry
from flowbridge.simnet import MS, Network, SimClock
from flowbridge.topology import CONFIG_NOTICE, SequenceCounter, build_topology

SPEC = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1"]},
        {"name": "fog", "nodes": ["fog-1"]},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}


def make_topo():
    return build_topology(SPEC)


def layer_body(**rate_limit):
    """A complete layer document: the defaults with ``rate_limit`` overrides."""
    return merge_config(default_layer_config(), {"rate_limit": rate_limit})


# -- pure helpers ------------------------------------------------------------


def test_default_layer_config_shape():
    cfg = default_layer_config()
    assert cfg["rate_limit"]["limit_mbps"] == 160.0
    assert cfg["flow"]["heartbeat_ttl_s"] == 3.0
    assert cfg["config"]["sync_period_s"] == 5.0
    assert set(cfg) == {"rate_limit", "flow", "config"}


def test_merge_config_is_deep_and_non_destructive():
    base = {"a": {"x": 1, "y": 2}, "b": 3}
    out = merge_config(base, {"a": {"y": 9}, "c": 4})
    assert out == {"a": {"x": 1, "y": 9}, "b": 3, "c": 4}
    assert base == {"a": {"x": 1, "y": 2}, "b": 3}


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
    doc = ConfigDocument("layer", "edge", 3, {"k": 1})
    assert ConfigDocument.from_obj(doc.to_obj()) == doc
    notice = ConfigChangeNotice("layer", "edge", 3, ("rate_limit.beta",))
    assert notice.to_obj()["changed_paths"] == ["rate_limit.beta"]


# -- main store ---------------------------------------------------------------


def test_store_revisions_are_monotonic_per_document():
    store = MainConfigStore(make_topo())
    d1 = store.put("layer", "edge", layer_body(limit_mbps=100.0))
    d2 = store.put("layer", "edge", layer_body(limit_mbps=80.0))
    other = store.put("layer", "fog", layer_body(limit_mbps=100.0))
    assert (d1.revision, d2.revision, other.revision) == (1, 2, 1)


def test_store_identical_body_is_noop():
    store = MainConfigStore(make_topo())
    body = layer_body()
    d1 = store.put("layer", "edge", body)
    d2 = store.put("layer", "edge", dict(reversed(body.items())))  # same canonical body
    assert d2.revision == 1 and d1 == d2


def test_store_get_falls_back_to_defaults():
    store = MainConfigStore(make_topo(), layer_defaults={"edge": {"rate_limit": {"limit_mbps": 40.0}}})
    doc = store.get("layer", "edge")
    assert doc.revision == 0
    assert doc.body["rate_limit"]["limit_mbps"] == 40.0
    assert store.get("layer", "fog").body["rate_limit"]["limit_mbps"] == 160.0
    assert store.get("node", "robot-1").body == {}
    assert store.get("service", "cam").body == {}


def test_store_validates_subjects():
    store = MainConfigStore(make_topo())
    with pytest.raises(Exception):
        store.put("layer", "mist", {})
    with pytest.raises(Exception):
        store.put("node", "ghost", {})
    with pytest.raises(ConfigError):
        store.put("service", "", {})
    with pytest.raises(ConfigError):
        store.put("cluster", "edge", {})
    with pytest.raises(ConfigError):
        MainConfigStore(make_topo(), layer_defaults={"mist": {}})


def test_store_snapshot_filters_by_layer():
    store = MainConfigStore(make_topo())
    store.put("layer", "edge", layer_body())
    store.put("layer", "fog", layer_body())
    store.put("node", "robot-1", {"c": 1})
    store.put("service", "cam", {"d": 1})
    docs = store.snapshot_for_layer("edge")
    assert [(d.scope, d.subject) for d in docs] == [
        ("layer", "edge"), ("node", "robot-1"), ("service", "cam")]
    assert [(d.scope, d.subject) for d in store.snapshot_for_layer("cloud")] == [
        ("service", "cam")]


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
        store.put("layer", "edge", body)
    assert store.docs == {}
    assert store.put("node", "robot-1", {"marker": 1}).revision == 1  # only layers are typed


# -- wired sync ----------------------------------------------------------------


class ConfigWorld:
    def __init__(self, layer_defaults=None, links=None):
        self.topology = make_topo()
        self.clock = SimClock()
        self.metrics = MetricsRegistry(self.clock)
        self.network = Network(self.topology, self.clock, Random(0),
                               self.metrics, links=links)
        self.seqs = {n.name: SequenceCounter() for n in self.topology.nodes}
        self.store = MainConfigStore(self.topology, layer_defaults=layer_defaults)
        self.main = MainConfigService(self.store, self.network, self.seqs["cloud-1"])
        self.workers = {
            l.name: ConfigWorker(
                l.name, self.network,
                self.seqs[self.topology.system_node(l.name).name],
                layer_defaults=layer_defaults,
            )
            for l in self.topology.layers
        }
        self.main.start()

    def start_workers(self):
        for w in self.workers.values():
            w.start()

    def settle(self, ms=200.0):
        self.clock.run_until(self.clock.now + int(ms * MS))

    def drain(self):
        for w in self.workers.values():
            w.running = False
        self.clock.run_until_idle(100_000)


def test_worker_reads_default_before_first_sync():
    w = ConfigWorld(layer_defaults={"fog": {"config": {"sync_period_s": 9.0}}})
    doc = w.workers["fog"].get_config("layer", "fog")
    assert doc.revision == 0
    assert doc.body["config"]["sync_period_s"] == 9.0
    with pytest.raises(ConfigError):
        w.workers["fog"].get_config("layer", "mist")
    w.drain()


def test_pull_sync_delivers_stored_documents():
    w = ConfigWorld()
    body = layer_body(limit_mbps=80.0)
    w.store.put("layer", "edge", body)
    w.start_workers()
    w.settle()
    doc = w.workers["edge"].get_config("layer", "edge")
    assert doc.revision == 1 and doc.body == body
    # other layers never see edge's layer doc
    assert w.workers["fog"].replica == {}
    assert w.metrics.counter_value("config.pulls", {"layer": "edge"}) >= 1
    w.drain()


def test_change_emits_one_notice_per_document():
    w = ConfigWorld()
    w.start_workers()
    w.settle()
    sent_before = w.workers["edge"].notices_sent
    w.store.put("layer", "edge", layer_body(limit_mbps=80.0))
    w.store.put("node", "robot-1", {"beta": 2})
    w.settle(6_000)  # one 5 s sync period later
    assert w.workers["edge"].notices_sent == sent_before + 2
    # replaying the same revisions produces no further notices
    w.settle(6_000)
    assert w.workers["edge"].notices_sent == sent_before + 2
    w.drain()


def test_notice_lists_changed_paths():
    w = ConfigWorld()
    got = []
    w.network.endpoint("intra_layer:edge").subscribe(
        CONFIG_NOTICE, lambda env: got.append(json.loads(env.payload)))
    w.start_workers()
    w.settle()
    base = w.workers["edge"].get_config("layer", "edge").body
    changed = merge_config(base, {"rate_limit": {"limit_mbps": 80.0}})
    w.store.put("layer", "edge", changed)
    w.settle(6_000)
    notices = [n for n in got if n["scope"] == "layer" and n["subject"] == "edge"]
    assert len(notices) == 1
    assert notices[0]["changed_paths"] == ["rate_limit.limit_mbps"]
    assert notices[0]["revision"] == 1
    w.drain()


def test_worker_ignores_foreign_replies():
    w = ConfigWorld()
    w.start_workers()
    w.settle()
    # a reply correlated to another layer's pull must not apply here
    edge = w.workers["edge"]
    before = dict(edge.replica)
    edge._on_reply(type("E", (), {"payload": json.dumps(
        {"corr": "fog:1", "docs": [
            {"scope": "layer", "subject": "edge", "revision": 99, "body": {"x": 1}}
        ]}).encode()})())
    assert edge.replica == before
    w.drain()


def test_apply_snapshot_skips_stale_revisions():
    w = ConfigWorld()
    worker = w.workers["edge"]
    doc_v2 = ConfigDocument("layer", "edge", 2, {"a": 2})
    doc_v1 = ConfigDocument("layer", "edge", 1, {"a": 1})
    assert worker.apply_snapshot([doc_v2]) == 1
    assert worker.apply_snapshot([doc_v1]) == 0
    assert worker.apply_snapshot([doc_v2]) == 0
    assert worker.get_config("layer", "edge").body == {"a": 2}
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
        assert w.metrics.counter_value("config.pulls", {"layer": layer}) == 0
        assert len(worker._pending) <= 1, layer
    assert w.metrics.counter_value("config.pulls", {"layer": "cloud"}) >= 12  # not crossing
    w.drain()


def test_pushed_sync_period_applies_from_the_next_pull():
    w = ConfigWorld()
    w.store.put("layer", "edge", merge_config(
        default_layer_config(), {"config": {"sync_period_s": 1.0}}))
    w.start_workers()
    # pulls at 0 s and 5 s; the first one fetched the 1 s period, which
    # the second one re-arms with
    w.settle(5_500)
    before = w.metrics.counter_value("config.pulls", {"layer": "edge"})
    w.settle(10_000)
    assert w.metrics.counter_value("config.pulls", {"layer": "edge"}) - before == 10
    assert w.metrics.counter_value("config.pulls", {"layer": "fog"}) == 4  # 0, 5, 10, 15 s
    w.drain()
