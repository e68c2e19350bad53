"""Unit tests for metrics, export format, heartbeats, and ping probes."""

import io
import json

import pytest

from flowbridge.monitor import (
    HeartbeatRegistry,
    MetricsRegistry,
    PingProbe,
    export_metrics,
    ping_topic,
    pong_topic,
)
from flowbridge.simnet import MS, SECOND, SimClock
from flowbridge.topology import MessageEnvelope, NodeId
from flowbridge.tracing import Trace


def make_reg():
    clock = SimClock()
    return MetricsRegistry(clock), clock


def make_heartbeats(clock, reg=None):
    return HeartbeatRegistry(clock, reg or MetricsRegistry(clock), Trace(), "edge")


# -- registry ---------------------------------------------------------------


def test_counter_accumulates_with_timestamp():
    reg, clock = make_reg()
    reg.inc("hits", {"topic": "scan"})
    clock.run_until(5)
    reg.inc("hits", {"topic": "scan"}, 2)
    assert reg.counter("hits", {"topic": "scan"}).value == 3
    assert reg.counter("hits", {"topic": "other"}).value == 0
    point = [p for p in reg.snapshot() if p.name == "hits"][0]
    assert point.at == 5 and point.kind == "counter"


def test_label_order_does_not_matter():
    reg, _ = make_reg()
    reg.inc("x", {"a": "1", "b": "2"})
    reg.inc("x", {"b": "2", "a": "1"})
    assert reg.counter("x", {"a": "1", "b": "2"}).value == 2


def test_totals_sum_per_label_value():
    reg, _ = make_reg()
    reg.inc("drops", {"topic": "scan", "link": "l1"}, 3)
    reg.inc("drops", {"topic": "scan", "link": "l2"}, 4)
    reg.inc("drops", {"topic": "pose", "link": "l1"}, 9)
    assert reg.totals("drops", "topic") == {"scan": 7, "pose": 9}
    assert reg.totals("drops", "link") == {"l1": 12, "l2": 4}
    assert reg.totals("drops", "node") == {}


def test_totals_sum_in_bind_order():
    reg, _ = make_reg()
    for link, value in (("l1", 0.1), ("l2", 0.2), ("l3", 0.3), ("l4", 1e16), ("l5", 1.0)):
        reg.inc("bytes", {"topic": "scan", "link": link}, value)
    total = reg.totals("bytes", "topic")["scan"]
    assert total == (((0 + 0.1 + 0.2) + 0.3) + 1e16) + 1.0  # not math.fsum's value


def test_gauge_series_and_sets():
    reg, clock = make_reg()
    reg.observe("lat", {"topic": "a"}, 1.5)
    clock.run_until(10)
    reg.observe("lat", {"topic": "a"}, 2.5)
    reg.observe("lat", {"topic": "b"}, 9.0)
    cell = reg.gauge("lat", {"topic": "a"})
    assert list(cell.values) == [1.5, 2.5] and cell.at == 10
    assert list(cell) == [(10, 1.5), (10, 2.5)]
    sets = reg.gauge_sets("lat")
    assert {dict(k)["topic"] for k in sets} == {"a", "b"}
    snap = [p for p in reg.snapshot() if p.name == "lat" and dict(p.labels)["topic"] == "a"]
    assert (snap[0].value, snap[0].at) == (2.5, 10)  # last observation


def test_snapshot_is_sorted_and_stable():
    reg, _ = make_reg()
    reg.observe("g", {}, 1)
    reg.inc("b", {"z": "1"})
    reg.inc("a", {})
    names = [(p.kind, p.name) for p in reg.snapshot()]
    assert names == [("counter", "a"), ("counter", "b"), ("gauge", "g")]


# -- bound cells ---------------------------------------------------------------


def export_text(reg):
    sink = io.BytesIO()
    export_metrics(reg, sink)
    return sink.getvalue().decode()


def test_counter_cell_and_inc_share_one_entry():
    reg, _ = make_reg()
    early = reg.counter("hits", {"b": "2", "a": "1"})  # bound before the entry exists
    reg.inc("hits", {"a": "1", "b": "2"}, 2)
    early.inc()
    late = reg.counter("hits", {"a": "1", "b": "2"})
    assert late is early
    late.inc(3)
    early.inc()
    reg.inc("hits", {"b": "2", "a": "1"})
    assert reg.counter("hits", {"a": "1", "b": "2"}).value == 8
    assert [p.name for p in reg.snapshot()] == ["hits"]


def test_unused_cells_leave_the_export_unchanged():
    reg, _ = make_reg()
    reg.inc("seen", {"topic": "a"})
    before = export_text(reg)
    counter = reg.counter("idle", {"topic": "a"})
    gauge = reg.gauge("idle.g", {"topic": "a"})
    assert export_text(reg) == before
    assert [p.name for p in reg.snapshot()] == ["seen"]
    counter.inc()
    gauge.observe(1)
    assert 'counter idle{topic="a"} 1 0' in export_text(reg).splitlines()


def test_counter_cell_at_is_the_last_update():
    reg, clock = make_reg()
    cell = reg.counter("hits", {"topic": "a"})
    clock.run_until(5)
    cell.inc()
    clock.run_until(9)
    cell.inc(2)
    assert [(p.value, p.at) for p in reg.snapshot()] == [(3, 9)]
    clock.run_until(12)
    reg.inc("hits", {"topic": "a"})
    clock.run_until(20)  # nothing updates it here
    assert [(p.value, p.at) for p in reg.snapshot()] == [(4, 12)]


def test_gauge_cell_records_what_observe_would():
    values = [3, 0.1, -2.5, 7]
    by_observe, clock_a = make_reg()
    by_cell, clock_b = make_reg()
    cell = by_cell.gauge("lat", {"topic": "a"})
    for t, v in enumerate(values):
        clock_a.run_until(t * 10)
        clock_b.run_until(t * 10)
        by_observe.observe("lat", {"topic": "a"}, v)
        cell.observe(v)
    assert list(cell) == list(by_observe.gauge("lat", {"topic": "a"}))
    assert all(type(v) is float for _, v in cell)
    assert export_text(by_cell) == export_text(by_observe)


def test_a_failed_observe_keeps_nothing():
    # observe appends the value, then sets the time: a value too large for
    # a float raises and leaves the cell as it was
    reg, clock = make_reg()
    cell, idle = reg.gauge("lat"), reg.gauge("idle")
    clock.run_until(5)
    cell.observe(1)
    clock.run_until(9)
    for c in (cell, idle):
        with pytest.raises(OverflowError):
            c.observe(10**400)
    assert list(cell.values) == [1.0] and cell.at == 5
    assert list(idle.values) == [] and idle.at == -1
    assert [p.name for p in reg.snapshot()] == ["lat"]


# -- export format -------------------------------------------------------------


def test_export_format_exact():
    reg, clock = make_reg()
    clock.run_until(42)
    reg.inc("flow.offered", {"topic": "scan"}, 1500)
    reg.observe("mon.rtt_half_ms", {"source": "a@edge", "target": "b@cloud"}, 50.0)
    reg.observe("mon.rtt_half_ms", {"source": "a@edge", "target": "b@cloud"}, 51.0)
    reg.inc("plain", None, 2)
    sink = io.BytesIO()
    n = export_metrics(reg, sink)
    text = sink.getvalue().decode()
    assert n == len(sink.getvalue())
    lines = text.splitlines()
    assert lines[0] == "# flowbridge metrics v1"
    assert 'counter flow.offered{topic="scan"} 1500 42' in lines
    assert "counter plain 2 42" in lines  # empty labels render as nothing
    assert ('gauge mon.rtt_half_ms{source="a@edge",target="b@cloud"}'
            " last=51 n=2 mean=50.5 min=50 max=51 42") in lines
    assert text.endswith("\n")


def test_export_is_deterministic():
    def build():
        reg, clock = make_reg()
        reg.inc("z.last", {"k": "1"})
        reg.inc("a.first", {"k": "2"}, 5)
        reg.observe("m.gauge", {}, 3.25)
        sink = io.BytesIO()
        export_metrics(reg, sink)
        return sink.getvalue()

    assert build() == build()


def test_export_formats_floats_precisely():
    reg, _ = make_reg()
    reg.observe("g", {}, 0.1)
    sink = io.BytesIO()
    export_metrics(reg, sink)
    # repr round-trips the float exactly; integers print bare
    assert b"last=0.1 " in sink.getvalue()


def test_export_mean_adds_left_to_right():
    # the builtin sum() of CPython 3.12+ compensates and would give 0.1;
    # the export must read the same on every Python version
    reg, _ = make_reg()
    for _ in range(10):
        reg.observe("g", {}, 0.1)
    sink = io.BytesIO()
    export_metrics(reg, sink)
    assert b" mean=0.09999999999999999 " in sink.getvalue()


# -- heartbeats ----------------------------------------------------------------


def test_heartbeat_live_until_ttl():
    clock = SimClock()
    hb = make_heartbeats(clock)
    hb.refresh("cam", "robot-1", 3 * SECOND)
    clock.run_until(3 * SECOND)
    assert hb.live("cam", "robot-1")
    clock.run_until(3 * SECOND + 1)
    assert not hb.live("cam", "robot-1")
    assert not hb.live("ghost", "robot-1")


def test_heartbeat_is_live_and_kept_exactly_at_its_ttl():
    clock = SimClock()
    hb = make_heartbeats(clock)
    hb.refresh("cam", "robot-1", 3 * SECOND)
    clock.run_until(3 * SECOND)
    assert hb.live("cam", "robot-1")
    assert hb.expire() == []
    clock.run_until(3 * SECOND + 1)
    assert hb.expire() == [("cam", "robot-1")]


def test_heartbeat_refresh_extends():
    clock = SimClock()
    hb = make_heartbeats(clock)
    hb.refresh("cam", "robot-1", 3 * SECOND)
    clock.run_until(2 * SECOND)
    hb.refresh("cam", "robot-1", 3 * SECOND)
    clock.run_until(4 * SECOND)
    assert hb.live("cam", "robot-1")


def test_heartbeat_expire_removes_and_reports():
    clock = SimClock()
    hb = make_heartbeats(clock)
    hb.refresh("cam", "robot-1", 1 * SECOND)
    hb.refresh("mon", "robot-1", 10 * SECOND)
    clock.run_until(5 * SECOND)
    assert hb.expire() == [("cam", "robot-1")]
    assert hb.expire() == []
    assert hb.live("mon", "robot-1")


def test_heartbeat_remove_is_idempotent():
    clock = SimClock()
    hb = make_heartbeats(clock)
    hb.refresh("cam", "robot-1", SECOND)
    assert hb.remove("cam", "robot-1")
    assert not hb.remove("cam", "robot-1")
    assert not hb.live("cam", "robot-1")


def test_heartbeat_gauges_track_count():
    clock = SimClock()
    reg = MetricsRegistry(clock)
    hb = make_heartbeats(clock, reg)
    hb.refresh("a", "n", SECOND)
    hb.refresh("b", "n", SECOND)
    hb.remove("a", "n")
    counts = [v for _, v in reg.gauge("mon.heartbeats", {"layer": "edge"})]
    assert counts == [1, 2, 1]


# -- ping probe ---------------------------------------------------------------


class LoopFabric:
    """Probes joined directly: a publish reaches, after a fixed delay, only
    the probe that requests its topic, as the flow engines route it."""

    def __init__(self, clock, delay_ns):
        self.clock = clock
        self.delay = delay_ns
        self.probes = []

    def publish(self, topic, payload):
        env = MessageEnvelope(
            topic=topic, payload=payload, origin_node=NodeId("x", "src"),
            sequence=1, sent_at=self.clock.now,
        )
        copies = 0
        for p in self.probes:
            for requested, cb in ((ping_topic(p.node.key), p.on_ping),
                                  (pong_topic(p.node.key), p.on_pong)):
                if topic == requested:
                    self.clock.call_in(self.delay, cb, env)
                    copies += 1
        return copies


def make_pair(delay_ms=25.0, period_s=1.0, timeout_s=5.0):
    clock = SimClock()
    reg = MetricsRegistry(clock)
    fabric = LoopFabric(clock, int(delay_ms * MS))
    a = NodeId("edge", "a")
    b = NodeId("cloud", "b")
    pa = PingProbe(a, [b], fabric.publish, clock, reg, period_ns=int(period_s * SECOND),
                   timeout_ns=int(timeout_s * SECOND), offsets=[0])
    pb = PingProbe(b, [a], fabric.publish, clock, reg, period_ns=int(period_s * SECOND),
                   timeout_ns=int(timeout_s * SECOND), offsets=[0])
    fabric.probes += [pa, pb]
    return clock, reg, pa, pb


def test_probe_measures_half_rtt():
    clock, reg, pa, _ = make_pair(delay_ms=25.0)
    pa.cycle()
    clock.run_until(SECOND)
    series = reg.gauge("mon.rtt_half_ms", {"source": "a@edge", "target": "b@cloud"})
    assert [v for _, v in series] == [25.0]
    assert reg.totals("mon.ping_timeout", "source") == {}


def test_probe_timeout_when_unanswered():
    clock, reg, pa, pb = make_pair(delay_ms=25.0, timeout_s=2.0)
    pb_on_ping = pb.on_ping
    pb.on_ping = lambda env: None  # peer goes deaf
    pa.cycle()
    clock.run_until(5 * SECOND)
    assert reg.counter("mon.ping_timeout", {"source": "a@edge", "target": "b@cloud"}).value == 1
    assert list(reg.gauge("mon.rtt_half_ms", {"source": "a@edge", "target": "b@cloud"})) == []
    # a late pong for a timed-out nonce is ignored quietly
    pb.on_ping = pb_on_ping
    pa.cycle()
    clock.run_until(10 * SECOND)


def test_probe_ignores_pings_for_other_nodes():
    clock, reg, pa, pb = make_pair()
    sent = []
    pa.publish = lambda topic, payload: sent.append(topic)
    # on a's own topic, but the body is addressed elsewhere: the dst guard
    body = {"src": "c@far", "dst": "nobody@nowhere", "nonce": 9, "t0": 0}
    env = MessageEnvelope(
        topic=ping_topic(pa.node.key), payload=json.dumps(body).encode(),
        origin_node=NodeId("far", "c"), sequence=1, sent_at=0,
    )
    pa.on_ping(env)  # not addressed to a: no pong, no crash
    clock.run_until(SECOND)
    assert sent == []
    rtt = reg.gauge("mon.rtt_half_ms", {"source": "c@far", "target": "nobody@nowhere"})
    assert list(rtt) == []


def test_probe_explicit_offsets_validated():
    clock = SimClock()
    reg = MetricsRegistry(clock)
    with pytest.raises(ValueError):
        PingProbe(NodeId("x", "a"), [NodeId("x", "b")], lambda t, p: 1,
                  clock, reg, SECOND, SECOND, offsets=[0, 1])
    probe = PingProbe(NodeId("x", "a"), [NodeId("x", "b")], lambda t, p: 1,
                      clock, reg, SECOND, SECOND, offsets=[7])
    assert probe.offsets == [7]
