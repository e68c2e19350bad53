"""Unit tests for the scope-local pub/sub endpoint."""

import threading

import pytest

from flowbridge.broker import (
    SUB_BRIDGE,
    SUB_USER,
    BrokerEndpoint,
    BrokerError,
)
from flowbridge.topology import BrokerScope, MessageEnvelope, NodeId, ScopeKind


def env(topic="scan", seq=1):
    return MessageEnvelope(
        topic=topic,
        payload=b"data",
        origin_node=NodeId("edge", "robot-1"),
        sequence=seq,
        sent_at=0,
    )


def sync_dispatch(endpoint, env):
    """Deliver at once on the publisher's stack, with no network between."""
    handles = endpoint.snapshot(env)
    for h in handles:
        endpoint.invoke(h, env)
    return len(handles)


def make_ep():
    return BrokerEndpoint(BrokerScope(ScopeKind.INTRA_LAYER, "edge"), sync_dispatch)


def test_sync_publish_reaches_topic_subscribers_only():
    ep = make_ep()
    got = []
    ep.subscribe("scan", got.append)
    ep.subscribe("pose", got.append)
    assert ep.publish(env("scan")) == 1
    assert [e.topic for e in got] == ["scan"]


def test_multiple_subscribers_each_get_a_copy():
    ep = make_ep()
    got = []
    for _ in range(3):
        ep.subscribe("scan", got.append)
    assert ep.publish(env()) == 3
    assert len(got) == 3


def test_empty_topic_rejected():
    ep = make_ep()
    with pytest.raises(BrokerError):
        ep.subscribe("", lambda e: None)


def test_unsubscribe_is_idempotent():
    ep = make_ep()
    h = ep.subscribe("scan", lambda e: None)
    assert ep.unsubscribe(h) is True
    assert ep.unsubscribe(h) is False
    assert ep.publish(env()) == 0
    assert ep._subs == {}  # the emptied topic is dropped


def test_filter_gates_delivery():
    ep = make_ep()
    got = []
    ep.subscribe("scan", got.append, filter=lambda e: e.sequence % 2 == 0)
    ep.publish(env(seq=1))
    ep.publish(env(seq=2))
    assert [e.sequence for e in got] == [2]


def test_handle_metadata():
    ep = make_ep()
    h = ep.subscribe("scan", lambda e: None, kind=SUB_BRIDGE, owner="bridge-1")
    assert h.kind == SUB_BRIDGE and h.owner == "bridge-1" and h.active
    assert "scan" in repr(h)
    h2 = ep.subscribe("scan", lambda e: None)
    assert h2.kind == SUB_USER


def test_callback_exception_contained():
    ep = make_ep()
    got = []

    def boom(e):
        raise ValueError("nope")

    ep.subscribe("scan", boom)
    ep.subscribe("scan", got.append)
    assert ep.publish(env()) == 2
    assert len(got) == 1
    assert len(ep.errors) == 1 and ep.errors[0][0] == "scan"


def test_snapshot_skips_inactive_and_filtered():
    ep = make_ep()
    keep = ep.subscribe("scan", lambda e: None)
    drop = ep.subscribe("scan", lambda e: None)
    never = ep.subscribe("scan", lambda e: None, filter=lambda e: False)
    ep.unsubscribe(drop)
    assert ep.snapshot(env()) == [keep]
    assert never.active


def test_unsubscribe_during_publish_from_another_thread():
    # deactivation mid-fanout must neither deadlock nor deliver twice
    ep = make_ep()
    delivered = []
    release = threading.Event()
    entered = threading.Event()

    def slow(e):
        entered.set()
        release.wait(timeout=5)
        delivered.append("slow")

    h_slow = ep.subscribe("scan", slow)
    h_other = ep.subscribe("scan", lambda e: delivered.append("other"))

    t = threading.Thread(target=ep.publish, args=(env(),))
    t.start()
    assert entered.wait(timeout=5)
    # publish is inside the slow callback; unsubscribing now must not block
    assert ep.unsubscribe(h_other) is True
    assert ep.unsubscribe(h_slow) is True
    release.set()
    t.join(timeout=5)
    assert not t.is_alive()
    # the snapshot was taken before unsubscription, so both still ran
    assert sorted(delivered) == ["other", "slow"]
    # but new publishes see nobody
    assert ep.publish(env(seq=2)) == 0


def test_subscribe_churn_inside_callbacks():
    # the simulator runs on one thread: what an endpoint must survive is
    # callbacks that subscribe and unsubscribe while a publish is running
    ep = make_ep()
    got = []
    churned = []

    def churn(e):
        churned.append(ep.subscribe("scan", got.append))
        if len(churned) > 1:
            assert ep.unsubscribe(churned[-2]) is True

    ep.subscribe("scan", churn)
    for i in range(500):
        assert ep.publish(env(seq=i + 1)) == (1 if i == 0 else 2)
    assert ep.errors == []
    # publish n reached the subscriber made during publish n - 1, once
    assert [e.sequence for e in got] == list(range(2, 501))
    assert len(ep.snapshot(env())) == 2
