"""Monitoring: metric counters/gauges, heartbeats, and latency probes.

Metrics export is a deterministic line format (sorted by kind, name,
labels) so two identical runs produce byte-identical files::

    # flowbridge metrics v1
    counter flow.offered{topic="scan"} 1500 29980000000
    gauge mon.rtt_half_ms{source="a@edge",target="b@cloud"} last=50.1 n=100 mean=50.02 min=40.9 max=59.3 99000000000

Counter lines carry the total and the virtual time of the last update;
gauge lines summarize the observed series, every sample of which the
registry keeps until export, in two typed arrays (`GaugeCell`). Label
values are escaped as in the Prometheus text format (backslash, double
quote, newline), so a series is one line and no value reads as more
labels.
"""

from __future__ import annotations

import json
from array import array
from functools import reduce
from operator import add
from typing import Any, BinaryIO, Callable, Iterable, Iterator

from .topology import MessageEnvelope, NodeId, Record
from .tracing import Trace

LabelSet = tuple[tuple[str, str], ...]


def ping_topic(node_key: str) -> str:
    """The topic of the pings addressed to the node keyed ``node_key``;
    only that node's probe requests it."""
    return f"__mon/ping/{node_key}"


def pong_topic(node_key: str) -> str:
    """The topic of the pongs that answer the pings of ``node_key``."""
    return f"__mon/pong/{node_key}"


def ordered_sum(values: Iterable[float]) -> float:
    """Add left to right, rounding after every addition.

    Since CPython 3.12 the builtin ``sum`` adds floats with compensated
    summation, which can round differently; exported figures must not
    depend on the Python version.
    """
    return reduce(add, values, 0)


def _labels(labels: dict[str, Any] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricPoint(Record):
    __slots__ = FIELDS = ("name", "kind", "labels", "value", "at")

    def __init__(self, name: str, kind: str, labels: LabelSet, value: float, at: int) -> None:
        self.name = name
        self.kind = kind
        self.labels = labels
        self.value = value
        self.at = at


class CounterCell:
    """One counter series: its running ``value`` and the virtual time
    ``at`` of its last update, -1 until the first.

    The registry holds one cell per (name, labels) key, made when the key
    is first bound and shared by every binder. Per-copy paths update the
    two slots in place (``cell.value += n; cell.at = now``); `inc` does
    the same through the cell's clock. A cell never updated adds no line
    to any reader.
    """

    __slots__ = ("clock", "value", "at")

    def __init__(self, clock):
        self.clock = clock
        self.value = 0
        self.at = -1

    def inc(self, value: float = 1) -> None:
        self.value += value
        self.at = self.clock.now


class GaugeCell:
    """One gauge series, registered like `CounterCell`: its samples'
    virtual times in ``at``, an ``array("q")`` of int ns, and their
    values in ``values``, an ``array("d")`` of floats, 16 B per sample
    and no object per sample. ``len`` counts the samples, 0 until
    observed, and iterating yields ``(at, value)`` pairs, made as read.

    A time past 2**63 - 1 ns does not fit ``at``: that observe raises
    `OverflowError` and keeps nothing."""

    __slots__ = ("clock", "at", "values")

    def __init__(self, clock):
        self.clock = clock
        self.at = array("q")
        self.values = array("d")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return zip(self.at, self.values)

    def observe(self, value: float) -> None:
        value = float(value)
        self.at.append(self.clock.now)
        self.values.append(value)


class MetricsRegistry:
    """Counters and gauge series keyed by name, then by sorted labels.

    Hot paths bind a cell once (`counter`, `gauge`) and update it per
    message; `inc` and `observe` bind and update in one call and write
    to the same cells. A name's cells are kept in the order their keys
    were first bound, and every reader skips the ones never updated.
    """

    def __init__(self, clock):
        self.clock = clock
        self._counters: dict[str, dict[LabelSet, CounterCell]] = {}
        self._gauges: dict[str, dict[LabelSet, GaugeCell]] = {}

    # -- writes --------------------------------------------------------

    def _cell(self, table: dict, make: type, name: str, labels: dict | None):
        cells = table.setdefault(name, {})
        key = _labels(labels)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = make(self.clock)
        return cell

    def counter(self, name: str, labels: dict | None = None) -> CounterCell:
        return self._cell(self._counters, CounterCell, name, labels)

    def gauge(self, name: str, labels: dict | None = None) -> GaugeCell:
        return self._cell(self._gauges, GaugeCell, name, labels)

    def inc(self, name: str, labels: dict | None = None, value: float = 1) -> None:
        self.counter(name, labels).inc(value)

    def observe(self, name: str, labels: dict | None = None, value: float = 0.0) -> None:
        self.gauge(name, labels).observe(value)

    # -- reads ---------------------------------------------------------

    def totals(self, name: str, label: str) -> dict[str, float]:
        """Per value of ``label``: the total over ``name``'s label sets that
        carry it, summed in bind order."""
        out: dict[str, float] = {}
        for labels, cell in self._counters.get(name, {}).items():
            if cell.at >= 0:
                for k, v in labels:
                    if k == label:
                        out[v] = out.get(v, 0) + cell.value
                        break
        return out

    def gauge_sets(self, name: str) -> dict[LabelSet, GaugeCell]:
        """Per label set that was observed, its cell itself, not a copy:
        callers only read it, as ``(at, value)`` pairs or through the
        cell's two arrays."""
        return {labels: cell
                for labels, cell in self._gauges.get(name, {}).items() if cell.values}

    def snapshot(self) -> list[MetricPoint]:
        points = []
        for name, cells in self._counters.items():
            for labels, cell in cells.items():
                if cell.at >= 0:
                    points.append(MetricPoint(name, "counter", labels, cell.value, cell.at))
        for name, cells in self._gauges.items():
            for labels, cell in cells.items():
                if cell.values:
                    points.append(MetricPoint(name, "gauge", labels, cell.values[-1],
                                              cell.at[-1]))
        points.sort(key=lambda p: (p.kind, p.name, p.labels))
        return points


def _fmt_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_num(x: float) -> str:
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer()):
        return str(int(x))
    return repr(x)


def export_metrics(registry: MetricsRegistry, sink: BinaryIO) -> int:
    """Write the registry in the line format above; returns bytes written."""
    lines = ["# flowbridge metrics v1"]
    counters = sorted((name, labels, cell) for name, cells in registry._counters.items()
                      for labels, cell in cells.items() if cell.at >= 0)
    for name, labels, cell in counters:
        lines.append(f"counter {name}{_fmt_labels(labels)} {_fmt_num(cell.value)} {cell.at}")
    gauges = sorted((name, labels, cell) for name, cells in registry._gauges.items()
                    for labels, cell in cells.items() if cell.values)
    for name, labels, cell in gauges:
        vals = cell.values
        mean = ordered_sum(vals) / len(vals)
        lines.append(
            f"gauge {name}{_fmt_labels(labels)} last={_fmt_num(vals[-1])} n={len(vals)}"
            f" mean={_fmt_num(mean)} min={_fmt_num(min(vals))} max={_fmt_num(max(vals))}"
            f" {cell.at[-1]}"
        )
    data = ("\n".join(lines) + "\n").encode("utf-8")
    sink.write(data)
    return len(data)


class HeartbeatRegistry:
    """TTL liveness table for the services of one layer.

    Entries expire passively: ``live`` reports False past the deadline
    and ``expire`` removes and returns every overdue entry when the
    watchdog looks.
    """

    def __init__(self, clock, registry: MetricsRegistry, trace: Trace, layer: str):
        self.clock = clock
        self.registry = registry
        self.trace = trace
        self.layer = layer
        self._entries: dict[tuple[str, str], list] = {}  # [refreshed_at, ttl_ns]

    def refresh(self, service: str, node: str, ttl_ns: int) -> None:
        now = self.clock.now
        ent = self._entries.get((service, node))
        if ent is None:
            self._entries[(service, node)] = [now, ttl_ns]
            self.trace.record("hb_register", now, service=service, node=node, layer=self.layer)
            self._gauge()
        else:
            ent[0] = now
            ent[1] = ttl_ns

    def remove(self, service: str, node: str) -> bool:
        if self._entries.pop((service, node), None) is not None:
            self.trace.record("hb_remove", self.clock.now, service=service, node=node,
                              layer=self.layer)
            self._gauge()
            return True
        return False

    def live(self, service: str, node: str) -> bool:
        ent = self._entries.get((service, node))
        if ent is None:
            return False
        return self.clock.now <= ent[0] + ent[1]

    def expire(self) -> list[tuple[str, str]]:
        now = self.clock.now
        dead = [k for k, (at, ttl) in self._entries.items() if now > at + ttl]
        for k in dead:
            del self._entries[k]
            self.trace.record("hb_expired", now, service=k[0], node=k[1], layer=self.layer)
        if dead:
            self._gauge()
        return dead

    def _gauge(self) -> None:
        self.registry.observe("mon.heartbeats", {"layer": self.layer}, len(self._entries))


class PingProbe:
    """Round-trip latency probe for one node.

    Each cycle sends one ping per target node, at its offset into the
    cycle, over the regular topic fabric (so samples include bridge and
    crossing delays). A ping rides the target's `ping_topic` and a pong
    the pinging node's `pong_topic`, so each reaches only the probe it is
    addressed to; the body's ``dst`` is checked as well. The target's
    probe answers with a pong carrying the original send time, and the
    one-way estimate rtt/2 lands in ``mon.rtt_half_ms``. Unanswered pings
    time out into ``mon.ping_timeout``.
    """

    def __init__(
        self,
        node: NodeId,
        targets: Iterable[NodeId],
        publish: Callable[[str, bytes], None],
        clock,
        registry: MetricsRegistry,
        period_ns: int,
        timeout_ns: int,
        offsets: Iterable[int],
    ):
        self.node = node
        self.targets = list(targets)
        self.publish = publish
        self.clock = clock
        self.registry = registry
        self.period_ns = period_ns
        self.timeout_ns = timeout_ns
        self.offsets = list(offsets)
        if len(self.offsets) != len(self.targets):
            raise ValueError("offsets must match targets")
        self._nonce = 0
        self._outstanding: dict[int, str] = {}  # nonce -> target key

    def cycle(self) -> int:
        """Schedule one cycle's pings; returns the delay to the next cycle."""
        # sends are spread across the cycle so bursts stay inside the
        # forwarding budget of any bridge the pings ride through
        for target, offset in zip(self.targets, self.offsets):
            self.clock.call_in(offset, self._send_ping, target)
        return self.period_ns

    def _send_ping(self, target: NodeId) -> None:
        self._nonce += 1
        nonce = self._nonce
        self._outstanding[nonce] = target.key
        body = {"src": self.node.key, "dst": target.key,
                "nonce": nonce, "t0": self.clock.now}
        self.publish(ping_topic(target.key), json.dumps(body, sort_keys=True).encode())
        self.clock.call_in(self.timeout_ns, self._check_timeout, nonce)

    def on_ping(self, env: MessageEnvelope) -> None:
        body = json.loads(env.payload)
        if body["dst"] != self.node.key:
            return
        reply = {"src": self.node.key, "dst": body["src"], "nonce": body["nonce"], "t0": body["t0"]}
        self.publish(pong_topic(body["src"]), json.dumps(reply, sort_keys=True).encode())

    def on_pong(self, env: MessageEnvelope) -> None:
        body = json.loads(env.payload)
        if body["dst"] != self.node.key:
            return
        target = self._outstanding.pop(body["nonce"], None)
        if target is None:
            return
        half_ms = (self.clock.now - body["t0"]) / 2 / 1e6
        self.registry.observe("mon.rtt_half_ms", {"source": self.node.key, "target": target}, half_ms)

    def _check_timeout(self, nonce: int) -> None:
        target = self._outstanding.pop(nonce, None)
        if target is not None:
            self.registry.inc("mon.ping_timeout", {"source": self.node.key, "target": target})
