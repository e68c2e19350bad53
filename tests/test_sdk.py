"""Unit tests for the service SDK: lifecycle, publish, delivery wrapper."""

import math
import sys

import pytest

from flowbridge.configstore import resolve_layer_config
from flowbridge.flow import DedupeWindow
from flowbridge.runner import World
from flowbridge.sdk import (
    DEAD,
    READY,
    STOPPED,
    Advertise,
    DuplicateServiceError,
    FlowEngineUnavailable,
    NotAdvertisedError,
    ReservedTopicError,
    ServiceError,
    ServiceStopped,
)
from flowbridge.simnet import MS
from flowbridge.topology import (
    FLOW_ADVERTISE, MessageEnvelope, build_topology, decode_declaration,
)
from tracefile import records

SPEC = {
    "layers": [
        {"name": "edge", "nodes": ["robot-1", "robot-2"], "external_protocol": True},
        {"name": "cloud", "nodes": ["cloud-1"]},
    ]
}


@pytest.fixture
def world(tmp_path):
    w = World(build_topology(SPEC), seed=1, trace_path=tmp_path / "trace.jsonl")
    w.start()
    w.clock.run_until(10 * MS)
    yield w
    w.drain()


def settle(w, ms=100.0):
    w.clock.run_until(w.clock.now + int(ms * MS))


def test_advertise_validation():
    with pytest.raises(ValueError):
        Advertise("")
    with pytest.raises(ValueError):
        Advertise("t", rate_hz=-1)
    # `x < 0` is false for nan: a nan rate used to reach the limiter's
    # allocation, whose order then followed registration
    for rate_hz, max_size in ((math.nan, 100), (math.inf, 100), (5.0, math.nan), (5.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            Advertise("t", rate_hz, max_size)


def test_start_service_lifecycle(world, tmp_path):
    h = world.host.start_service("robot-1", "cam", advertises=[Advertise("img", 5.0, 100)])
    assert h.state == READY
    assert h.endpoint.scope.key == "intra_node:robot-1@edge"
    assert world.host.services[("robot-1", "cam")] is h
    assert world.engines["edge"].heartbeats.live("cam", "robot-1")
    world.drain()
    assert len(records(tmp_path / "trace.jsonl", "service_started", service="cam")) == 1


def test_default_scope_depends_on_layer_depth(world):
    edge = world.host.start_service("robot-1", "a")
    cloud = world.host.start_service("cloud-1", "b")
    assert edge.endpoint.scope.kind.value == "intra_node"
    assert cloud.endpoint.scope.key == "intra_layer:cloud"


def test_external_services_attach_to_external_scope(world):
    h = world.host.start_service("robot-1", "legacy", external=True)
    assert h.endpoint.scope.key == "external_protocol:edge"
    with pytest.raises(Exception):
        world.host.start_service("cloud-1", "nope", external=True)  # no ext scope there


def test_duplicate_service_name_rejected(world):
    world.host.start_service("robot-1", "cam")
    with pytest.raises(DuplicateServiceError):
        world.host.start_service("robot-1", "cam")
    # same name elsewhere is a different service
    world.host.start_service("robot-2", "cam")


def test_empty_name_and_duplicate_advertise_rejected(world):
    with pytest.raises(ServiceError):
        world.host.start_service("robot-1", "")
    with pytest.raises(ServiceError):
        world.host.start_service("robot-1", "x",
                                 advertises=[Advertise("t"), Advertise("t")])


def test_duplicate_request_rejected(world):
    # two subscriptions to one topic would flag every message as a duplicate
    with pytest.raises(ServiceError, match="duplicate request"):
        world.host.start_service("robot-1", "x", requests=["t61", "t61"])
    assert ("robot-1", "x") not in world.host.services


def test_reserved_topics_rejected_for_user_services(world):
    with pytest.raises(ReservedTopicError):
        world.host.start_service("robot-1", "x", advertises=[Advertise("__flow/advertise")])
    with pytest.raises(ReservedTopicError):
        world.host.start_service("robot-1", "x", requests=["__mon/ping"])
    # internal services may use the reserved namespace
    h = world.host.start_service("robot-1", "__sys", advertises=[Advertise("__mon/ping")],
                                 internal=True)
    assert h.state == READY


def test_start_requires_live_engine():
    w = World(build_topology(SPEC), seed=1)
    # world never started: engines exist but their heartbeats are not live
    with pytest.raises(FlowEngineUnavailable):
        w.host.start_service("robot-1", "cam")


def test_callbacks_must_match_requests(world, tmp_path):
    # checked with the other arguments, before the service or its
    # heartbeat is registered: the rejected call leaves nothing behind
    with pytest.raises(ServiceError, match="callbacks for unrequested topics"):
        world.host.start_service("robot-1", "x", requests=["a"],
                                 on_message={"b": lambda e: None})
    assert ("robot-1", "x") not in world.host.services
    assert not world.engines["edge"].heartbeats.live("x", "robot-1")
    h = world.host.start_service("robot-1", "x", requests=["a"],
                                 on_message={"a": lambda e: None})
    assert world.host.services[("robot-1", "x")] is h
    world.drain()
    assert len(records(tmp_path / "trace.jsonl", "hb_register", service="x")) == 1


def test_publish_guards(world):
    h = world.host.start_service("robot-1", "cam", advertises=[Advertise("img")])
    with pytest.raises(NotAdvertisedError):
        world.host.publish(h, "other", b"x")
    world.host.stop_service(h)
    assert h.state == STOPPED
    with pytest.raises(ServiceStopped):
        world.host.publish(h, "img", b"x")


def test_end_to_end_delivery_and_latency(world):
    got = []
    world.host.start_service("robot-1", "cam", advertises=[Advertise("img", 10.0, 64)])
    world.host.start_service("cloud-1", "viewer", requests=["img"],
                             on_message=lambda env: got.append(env))
    settle(world)
    cam = world.host.services[("robot-1", "cam")]
    viewer = world.host.services[("cloud-1", "viewer")]
    world.host.publish(cam, "img", b"frame-1")
    settle(world, 200)
    assert [e.payload for e in got] == [b"frame-1"]
    assert viewer.received == 1
    assert cam.published == 1
    lat = list(world.registry.gauge("mon.msg_latency_ms", {"topic": "img", "node": "cloud-1"}))
    assert len(lat) == 1 and lat[0][1] > 0


def test_same_topic_advertise_and_request_suppresses_self(world):
    got = []
    h = world.host.start_service(
        "robot-1", "chatty", advertises=[Advertise("t", 5.0)], requests=["t"],
        on_message=lambda env: got.append(env.origin_node.name))
    world.host.start_service(
        "robot-2", "peer", advertises=[Advertise("t", 5.0)], requests=["t"])
    settle(world)
    world.host.publish(h, "t", b"mine")
    peer = world.host.services[("robot-2", "peer")]
    world.host.publish(peer, "t", b"theirs")
    settle(world, 300)
    # chatty sees only the remote publish, never its own
    assert got == ["robot-2"]


def test_co_located_publishers_of_a_topic_hear_each_other_not_themselves(world):
    # both draw sequences from robot-1's one counter, so origin node and
    # sequence cannot tell them apart; the publishing service can
    got = {"a": [], "b": []}
    a, b = (world.host.start_service(
        "robot-1", name, advertises=[Advertise("t", 5.0)], requests=["t"],
        on_message=lambda env, name=name: got[name].append(env.payload))
        for name in ("a", "b"))
    settle(world)
    for i in range(3):
        world.host.publish(a, "t", b"a%d" % i)
        world.host.publish(b, "t", b"b%d" % i)
        settle(world)
    assert got == {"a": [b"b0", b"b1", b"b2"], "b": [b"a0", b"a1", b"a2"]}
    assert world.host.violations == []


def test_stop_service_withdraws_and_cleans_up(world, tmp_path):
    h = world.host.start_service("robot-1", "cam", advertises=[Advertise("img", 5.0)])
    world.host.start_service("cloud-1", "viewer", requests=["img"])
    settle(world)
    assert world.engines["edge"].bridges
    world.host.stop_service(h)
    settle(world, 500)
    assert world.engines["edge"].bridges == {}
    assert world.engines["cloud"].bridges == {}
    assert not world.engines["edge"].heartbeats.live("cam", "robot-1")
    assert ("robot-1", "cam") not in world.host.services
    # idempotent
    world.host.stop_service(h)
    # past one re-announce period: the stopped service's pending heartbeat
    # and re-announce ticks do nothing, so nothing comes back
    settle(world, 10_500)
    assert world.engines["edge"].bridges == {}
    assert world.engines["cloud"].bridges == {}
    assert not world.engines["edge"].heartbeats.live("cam", "robot-1")
    world.drain()
    trace = tmp_path / "trace.jsonl"
    assert len(records(trace, "service_stopped", service="cam")) == 1
    assert len(records(trace, "hb_register", service="cam")) == 1


def test_killed_service_is_cleaned_up_by_watchdog(world, tmp_path):
    h = world.host.start_service("robot-1", "cam", advertises=[Advertise("img", 5.0)])
    world.host.start_service("cloud-1", "viewer", requests=["img"])
    settle(world)
    assert world.engines["edge"].bridges
    world.host.kill_service(h)
    assert h.state == DEAD
    # no immediate withdrawal: the declaration lingers until ttl expiry
    assert world.engines["edge"].bridges
    settle(world, 6_000)  # ttl 3 s + watchdog period + margin
    assert world.engines["edge"].bridges == {}
    # past one re-announce period: the dead service neither re-announces
    # nor refreshes its heartbeat
    settle(world, 10_500)
    assert world.engines["edge"].bridges == {}
    assert world.engines["cloud"].bridges == {}
    world.drain()
    trace = tmp_path / "trace.jsonl"
    assert len(records(trace, "service_killed", service="cam")) == 1
    assert records(trace, "watchdog_withdraw", service="cam")
    assert len(records(trace, "hb_register", service="cam")) == 1


def test_heartbeats_keep_long_running_service_alive(world, tmp_path):
    world.host.start_service("robot-1", "cam", advertises=[Advertise("img", 5.0)])
    world.host.start_service("cloud-1", "viewer", requests=["img"])
    settle(world, 12_000)  # several ttl periods
    assert world.engines["edge"].bridges  # never withdrawn
    world.drain()
    assert records(tmp_path / "trace.jsonl", "watchdog_withdraw", service="cam") == []


def test_a_service_keeps_the_flow_periods_in_force_when_it_started():
    w = World(build_topology(SPEC), seed=1)
    w.start()
    w.store.put("edge", resolve_layer_config(
        {"flow": {"heartbeat_ttl_s": 10.0, "reannounce_s": 4.0}}))
    announced = []  # (service, ms) per announcement heard on robot-1's scope
    w.network.endpoint("intra_node:robot-1@edge").subscribe(FLOW_ADVERTISE, lambda env: (
        announced.append((decode_declaration(env.payload)[1], w.clock.now // MS))))
    old = w.host.start_service("robot-1", "old", advertises=[Advertise("a")])
    settle(w, 500)
    assert w.workers["edge"].get_config().revision == 1  # the push has applied
    new = w.host.start_service("robot-1", "new", advertises=[Advertise("b")])
    w.run_for(14.5)
    # the old service re-announces every 10 s, the new one every 4 s
    assert [ms for name, ms in announced if name == "old"] == [0, 10_000]
    assert [ms for name, ms in announced if name == "new"] == [500, 4500, 8500, 12_500]

    # last heartbeats: the old service's at 15 s with a 3 s TTL, the new
    # one's at 14.5 s with a 10 s TTL
    w.host.kill_service(old)
    w.host.kill_service(new)
    settle(w, 5_000)
    heartbeats = w.engines["edge"].heartbeats
    assert not heartbeats.live("old", "robot-1")
    assert heartbeats.live("new", "robot-1")
    w.drain()
    assert w.issues() == []


def test_duplicate_delivery_is_flagged_as_violation(world):
    world.host.start_service("robot-1", "sink", requests=["t"])
    sink = world.host.services[("robot-1", "sink")]
    env = MessageEnvelope(
        topic="t", payload=b"x", origin_node=world.topology.node("robot-2"),
        sequence=1, sent_at=0,
    )
    # bypass the bridge layer and hand the same envelope over twice
    ep = sink.endpoint
    ep.publish(env)
    ep.publish(env)
    settle(world)
    assert sink.received == 1
    assert len(world.host.violations) == 1
    v = world.host.violations[0]
    assert v["service"] == "sink" and v["seq"] == 1
    assert world.registry.counter("sdk.duplicate", {"topic": "t", "node": "robot-1"}).value == 1


def test_arrival_older_than_the_window_is_delivered_as_fresh(world):
    # the detector flags only the duplicates it can prove: after 2000,
    # sequence 5 is out of the 1024-sequence window, so it is received
    world.host.start_service("robot-1", "sink", requests=["t"])
    sink = world.host.services[("robot-1", "sink")]
    ep = sink.endpoint
    for seq in (2000, 5):
        ep.publish(MessageEnvelope(
            topic="t", payload=b"x", origin_node=world.topology.node("robot-2"),
            sequence=seq, sent_at=0,
        ))
        settle(world)
    assert sink.received == 2
    assert world.host.violations == []


def state_bytes(obj, memo) -> int:
    """Bytes held by ``obj`` and by the containers and dedupe windows in it."""
    if id(obj) in memo:
        return 0
    memo.add(id(obj))
    if isinstance(obj, DedupeWindow):
        inner = [obj._streams]
    elif isinstance(obj, dict):
        inner = [*obj, *obj.values()]
    elif isinstance(obj, (list, tuple, set)):
        inner = list(obj)
    else:
        inner = []
    return sys.getsizeof(obj) + sum(state_bytes(o, memo) for o in inner)


def test_per_stream_state_stays_bounded_over_a_long_stream(world):
    cam = world.host.start_service(
        "robot-1", "cam", advertises=[Advertise("t", 10.0)], requests=["t"])
    viewer = world.host.start_service("cloud-1", "viewer", requests=["t"])
    settle(world, 500)
    sizes = []
    for half in range(2):  # 10 Hz for 300 s, measured after 150 s and after 300 s
        for _ in range(1500):
            world.host.publish(cam, "t", b"x")
            settle(world)
        memo = set()
        sizes.append(sum(state_bytes(v, memo)
                         for h in (cam, viewer) for v in vars(h).values()))
    assert viewer.received == 3000 and cam.received == 0
    assert sizes[1] == sizes[0]
