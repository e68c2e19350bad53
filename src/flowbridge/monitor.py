"""Monitoring: metric counters/gauges, heartbeats, and latency probes.

Metrics export is a deterministic line format (sorted by kind, name,
labels) so two identical runs produce byte-identical files::

    # flowbridge metrics v1
    counter flow.offered{topic="scan"} 1500 29980000000
    gauge mon.rtt_half_ms{source="a@edge",target="b@cloud"} last=50.1 n=100 mean=50.02 min=40.9 max=59.3 99000000000

Counter lines carry the total and the virtual time of the last update;
gauge lines summarize the observed series.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Iterable

from .topology import MessageEnvelope, NodeId
from .tracing import Trace

LabelSet = tuple[tuple[str, str], ...]

PING_TOPIC = "__mon/ping"
PONG_TOPIC = "__mon/pong"


def ordered_sum(values: Iterable[float]) -> float:
    """Add left to right, rounding after every addition.

    Since CPython 3.12 the builtin ``sum`` adds floats with compensated
    summation, which can round differently; exported figures must not
    depend on the Python version.
    """
    total = 0
    for v in values:
        total += v
    return total


def _labels(labels: dict[str, Any] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class MetricPoint:
    name: str
    kind: str
    labels: LabelSet
    value: float
    at: int


class CounterCell:
    """One counter series, its label key sorted once when it is bound.

    The registry entry is made on the first ``inc``, so a cell that is
    never used adds no line to the export, and entries keep the order of
    their first update whichever path makes them.
    """

    __slots__ = ("_registry", "_key", "_entry")

    def __init__(self, registry: "MetricsRegistry", key: tuple[str, LabelSet]):
        self._registry = registry
        self._key = key
        self._entry: list | None = None

    def inc(self, value: float = 1) -> None:
        now = self._registry.clock.now
        ent = self._entry
        if ent is None:
            counters = self._registry._counters
            ent = self._entry = counters.get(self._key)
            if ent is None:
                self._entry = counters[self._key] = [value, now]
                return
        ent[0] += value
        ent[1] = now


class GaugeCell:
    """One gauge series, bound like `CounterCell` and made on first use."""

    __slots__ = ("_registry", "_key", "_series")

    def __init__(self, registry: "MetricsRegistry", key: tuple[str, LabelSet]):
        self._registry = registry
        self._key = key
        self._series: list[tuple[int, float]] | None = None

    def observe(self, value: float) -> None:
        series = self._series
        if series is None:
            series = self._series = self._registry._gauges.setdefault(self._key, [])
        series.append((self._registry.clock.now, float(value)))


class MetricsRegistry:
    """Counters and gauge series keyed by (name, sorted labels).

    Hot paths bind a cell once (`counter`, `gauge`) and update it per
    message; `inc` and `observe` bind and update in one call and write
    to the same entries.
    """

    def __init__(self, clock):
        self.clock = clock
        self._counters: dict[tuple[str, LabelSet], list] = {}
        self._gauges: dict[tuple[str, LabelSet], list[tuple[int, float]]] = {}

    # -- writes --------------------------------------------------------

    def counter(self, name: str, labels: dict | None = None) -> CounterCell:
        return CounterCell(self, (name, _labels(labels)))

    def gauge(self, name: str, labels: dict | None = None) -> GaugeCell:
        return GaugeCell(self, (name, _labels(labels)))

    def inc(self, name: str, labels: dict | None = None, value: float = 1) -> None:
        self.counter(name, labels).inc(value)

    def observe(self, name: str, labels: dict | None = None, value: float = 0.0) -> None:
        self.gauge(name, labels).observe(value)

    # -- reads ---------------------------------------------------------

    def counter_value(self, name: str, labels: dict | None = None) -> float:
        ent = self._counters.get((name, _labels(labels)))
        return ent[0] if ent else 0

    def sum_counter(self, name: str, where: dict[str, str] | None = None) -> float:
        """Total over all label sets of ``name`` matching the `where` subset."""
        want = _labels(where)
        total = 0
        for (n, labels), (value, _) in self._counters.items():
            if n == name and set(want) <= set(labels):
                total += value
        return total

    def totals(self, name: str, label: str) -> dict[str, float]:
        """Per value of ``label``: the total over ``name``'s label sets that
        carry it, summed in insertion order as `sum_counter` sums."""
        out: dict[str, float] = {}
        for (n, labels), (value, _) in self._counters.items():
            if n == name:
                for k, v in labels:
                    if k == label:
                        out[v] = out.get(v, 0) + value
                        break
        return out

    def series(self, name: str, labels: dict | None = None) -> list[tuple[int, float]]:
        return list(self._gauges.get((name, _labels(labels)), ()))

    def gauge_sets(self, name: str) -> dict[LabelSet, list[tuple[int, float]]]:
        return {labels: list(v) for (n, labels), v in self._gauges.items() if n == name}

    def snapshot(self) -> list[MetricPoint]:
        points = []
        for (name, labels), (value, at) in self._counters.items():
            points.append(MetricPoint(name, "counter", labels, value, at))
        for (name, labels), series in self._gauges.items():
            at, value = series[-1]
            points.append(MetricPoint(name, "gauge", labels, value, at))
        points.sort(key=lambda p: (p.kind, p.name, p.labels))
        return points


def _fmt_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _fmt_num(x: float) -> str:
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer()):
        return str(int(x))
    return repr(x)


def export_metrics(registry: MetricsRegistry, sink: BinaryIO) -> int:
    """Write the registry in the line format above; returns bytes written."""
    lines = ["# flowbridge metrics v1"]
    counters = sorted(registry._counters.items())
    for (name, labels), (value, at) in counters:
        lines.append(f"counter {name}{_fmt_labels(labels)} {_fmt_num(value)} {at}")
    gauges = sorted(registry._gauges.items())
    for (name, labels), series in gauges:
        vals = [v for _, v in series]
        mean = ordered_sum(vals) / len(vals)
        lines.append(
            f"gauge {name}{_fmt_labels(labels)} last={_fmt_num(vals[-1])} n={len(vals)}"
            f" mean={_fmt_num(mean)} min={_fmt_num(min(vals))} max={_fmt_num(max(vals))}"
            f" {series[-1][0]}"
        )
    data = ("\n".join(lines) + "\n").encode("utf-8")
    sink.write(data)
    return len(data)


def message_latency(registry: MetricsRegistry, latency: GaugeCell,
                    env: MessageEnvelope, now: int, node: str) -> float:
    """Record one end-to-end delivery latency sample, in milliseconds,
    into ``latency``, the ``mon.msg_latency_ms`` cell of env's topic at
    ``node``.

    Negative intervals (skewed timestamps) clamp to 0 and bump a skew
    counter instead of polluting the latency series.
    """
    ms = (now - env.sent_at) / 1e6
    if ms < 0:
        registry.inc("mon.clock_skew", {"node": node})
        ms = 0.0
    latency.observe(ms)
    return ms


class HeartbeatRegistry:
    """TTL liveness table for the services of one layer.

    Entries expire passively: ``live`` reports False past the deadline
    and ``expire`` removes and returns every overdue entry when the
    watchdog looks.
    """

    def __init__(self, clock, registry: MetricsRegistry | None = None,
                 trace: Trace | None = None, layer: str = ""):
        self.clock = clock
        self.registry = registry
        self.trace = trace if trace is not None else Trace()
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

    def entries(self) -> list[tuple[str, str]]:
        return sorted(self._entries)

    def _gauge(self) -> None:
        if self.registry is not None:
            self.registry.observe("mon.heartbeats", {"layer": self.layer}, len(self._entries))


class PingProbe:
    """Round-trip latency probe for one node.

    Each cycle sends one ping per target node, at its offset into the
    cycle, over the regular topic fabric (so samples include bridge and
    crossing delays); the target's probe answers with a pong carrying the
    original send time, and the one-way estimate rtt/2 lands in
    ``mon.rtt_half_ms``. Unanswered pings time out into ``mon.ping_timeout``.
    """

    def __init__(
        self,
        node: NodeId,
        targets: Iterable[NodeId],
        publish: Callable[[str, bytes], int],
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

    def cycle(self) -> None:
        # sends are spread across the cycle so bursts stay inside the
        # forwarding budget of any bridge the pings ride through
        for target, offset in zip(self.targets, self.offsets):
            self.clock.call_in(offset, self._send_ping, target)

    def _send_ping(self, target: NodeId) -> None:
        self._nonce += 1
        nonce = self._nonce
        self._outstanding[nonce] = target.key
        body = {"src": self.node.key, "dst": target.key,
                "nonce": nonce, "t0": self.clock.now}
        self.publish(PING_TOPIC, json.dumps(body, sort_keys=True).encode())
        self.clock.call_in(self.timeout_ns, self._check_timeout, nonce)

    def on_ping(self, env: MessageEnvelope) -> None:
        body = json.loads(env.payload)
        if body["dst"] != self.node.key:
            return
        reply = {"src": self.node.key, "dst": body["src"], "nonce": body["nonce"], "t0": body["t0"]}
        self.publish(PONG_TOPIC, json.dumps(reply, sort_keys=True).encode())

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
