"""Deterministic discrete-event network simulation.

Virtual time is an integer nanosecond counter driven by SimClock. All
randomness (loss and jitter draws) comes from one seeded Random handed
to the Network, so a run is a pure function of (topology, links, seed,
workload): repeating it yields identical event traces.

Link model, applied wherever a published envelope leaves an endpoint:

* serialization: the link is FIFO per direction; transmission starts at
  ``max(now, busy_until)`` and takes ``payload_len * 8 / (bandwidth_mbps
  * 1e6)`` seconds (zero when bandwidth is 0 = unlimited). Bandwidth is
  charged once per publish per link, not per subscriber copy.
* per-copy loss: each targeted subscriber copy is dropped independently
  with probability ``loss`` (drawn first, only when loss > 0).
* per-copy latency: ``latency_ms`` plus a uniform jitter draw in
  [-jitter_ms, +jitter_ms] (drawn only when jitter > 0), clamped at 0.

A publish on an inter_layer scope also fans out across the layer bus:
for every other layer with at least one matching subscriber, the
envelope is charged once on the directed crossing link to that layer
and delivered to those subscribers with the crossing's loss/latency.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from random import Random
from typing import Any, Callable

from .broker import SUB_BRIDGE, BrokerEndpoint, SubscriberHandle
from .monitor import CounterCell, MetricsRegistry
from .topology import BrokerScope, MessageEnvelope, ScopeKind, Topology, TopologyError
from .tracing import Trace

MS = 1_000_000
SECOND = 1_000_000_000
# the longest time a run may name: the range of a signed 64-bit
# nanosecond count, about 292 years
MAX_S = (2**63 - 1) / SECOND


def finite_number(value: object, kind: type | tuple[type, ...] = (int, float)) -> bool:
    """Whether ``value`` is a ``kind`` JSON number: never a bool, NaN,
    infinity or an integer too large for a float."""
    try:
        return (isinstance(value, kind) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def ns_from_ms(ms: float) -> int:
    return int(round(ms * MS))


def ns_from_s(s: float) -> int:
    return int(round(s * SECOND))


class SimClock:
    """Virtual-time event queue; ties resolve by scheduling order.

    Events cannot be cancelled: a recurring timer stops by checking the
    state of its owner when it fires.
    """

    def __init__(self, start: int = 0):
        self._now = start
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self.events_processed = 0

    @property
    def now(self) -> int:
        return self._now

    def schedule(self, at: int, fn: Callable, *args: Any) -> None:
        """Schedule fn(*args) at virtual time ``at`` (clamped to now)."""
        if at < self._now:
            at = self._now
        heapq.heappush(self._heap, (at, next(self._seq), fn, args))

    def call_in(self, delay: int, fn: Callable, *args: Any) -> None:
        self.schedule(self._now + max(0, delay), fn, *args)

    def _pop_run(self) -> None:
        self._now, _, fn, args = heapq.heappop(self._heap)
        self.events_processed += 1
        fn(*args)

    def run_until(self, t: int) -> int:
        """Process every event with timestamp <= t; leaves now == t."""
        start = self.events_processed
        while self._heap and self._heap[0][0] <= t:
            self._pop_run()
        if t > self._now:
            self._now = t
        return self.events_processed - start

    def run_until_idle(self, max_events: int | None = None) -> int:
        """Drain the queue completely; guards against runaway forwarding."""
        start = self.events_processed
        while self._heap:
            if max_events is not None and self.events_processed - start >= max_events:
                raise RuntimeError(f"event queue not idle after {max_events} events")
            self._pop_run()
        return self.events_processed - start


def _expect(obj: object, kind: type, where: str) -> Any:
    if not isinstance(obj, kind):
        want = "an object" if kind is dict else "a list"
        raise TopologyError(f"{where} must be {want}, got {obj!r}")
    return obj


@dataclass(frozen=True)
class LinkSpec:
    """Simulated link parameters.

    ``loss`` is a fraction of copies dropped (0.0001 = 0.01%).
    ``bandwidth_mbps`` is in multiples of 10^6 bits/s; 0 = unlimited.
    """

    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    loss: float = 0.0
    bandwidth_mbps: float = 0.0

    def __post_init__(self) -> None:
        for f in self.FIELDS:
            v = getattr(self, f)
            if not finite_number(v):
                raise TopologyError(f"link {f} must be a finite number, got {v!r}")
        if not (0 <= self.latency_ms <= MAX_S * 1000 and 0 <= self.jitter_ms <= MAX_S * 1000):
            raise TopologyError(f"latency/jitter must be >= 0 and at most {MAX_S * 1000:.4g} ms")
        if not 0.0 <= self.loss <= 1.0:
            raise TopologyError("loss must be a fraction in [0, 1]")
        if self.bandwidth_mbps < 0:
            raise TopologyError("bandwidth_mbps must be >= 0")

    FIELDS = ("latency_ms", "jitter_ms", "loss", "bandwidth_mbps")

    def merged(self, obj: dict) -> "LinkSpec":
        _expect(obj, dict, "link spec")
        unknown = set(obj) - set(self.FIELDS)
        if unknown:
            raise TopologyError(f"unknown link keys: {sorted(unknown)}")
        vals = {f: obj.get(f, getattr(self, f)) for f in self.FIELDS}
        return LinkSpec(**vals)


class LinkState:
    """A directed link instance: immutable spec plus FIFO backlog state."""

    __slots__ = ("name", "spec", "busy_until")

    def __init__(self, name: str, spec: LinkSpec):
        self.name = name
        self.spec = spec
        self.busy_until = 0

    def charge(self, nbytes: int, now: int) -> int:
        """Serialize nbytes starting no earlier than now; returns finish time."""
        start = now if now > self.busy_until else self.busy_until
        if self.spec.bandwidth_mbps > 0:
            end = start + int(round(nbytes * 8000.0 / self.spec.bandwidth_mbps))
        else:
            end = start
        self.busy_until = end
        return end


DEFAULT_LINKS: dict[str, LinkSpec] = {
    "intra_node": LinkSpec(latency_ms=0.1),
    "intra_layer": LinkSpec(latency_ms=1.0),
    "external_protocol": LinkSpec(latency_ms=1.0),
    "inter_layer": LinkSpec(latency_ms=0.1),
    "crossing": LinkSpec(latency_ms=10.0),
}


class _TopicCounters(dict):
    """``name{topic=...}`` counter cells by topic, bound on first use."""

    def __init__(self, metrics: MetricsRegistry, name: str):
        super().__init__()
        self.metrics = metrics
        self.name = name

    def __missing__(self, topic: str) -> CounterCell:
        cell = self[topic] = self.metrics.counter(self.name, {"topic": topic})
        return cell


class Network:
    """Binds one BrokerEndpoint per scope and routes publishes over links.

    ``links`` layout (all sections optional)::

        {"defaults":  {"intra_node": {...}, "crossing": {...}, ...},
         "scopes":    {"intra_layer:edge": {...}, ...},
         "crossings": [{"between": ["edge", "cloud"], "latency_ms": 50,
                        "jitter_ms": 10, "loss": 0.0001,
                        "bandwidth_mbps": 160}, ...]}

    Link fields not given fall back to the kind default; kinds are the
    scope kinds plus "crossing" for inter-layer hops.
    """

    def __init__(
        self,
        topology: Topology,
        clock: SimClock,
        rng: Random,
        metrics: MetricsRegistry | None = None,
        trace: Trace | None = None,
        links: dict | None = None,
    ):
        self.topology = topology
        self.clock = clock
        self.rng = rng
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock)
        self.trace = trace if trace is not None else Trace()
        self._offered = _TopicCounters(self.metrics, "flow.offered")
        self._delivered = _TopicCounters(self.metrics, "flow.delivered")
        self._build_links({} if links is None else links)
        self.endpoints: dict[str, BrokerEndpoint] = {
            key: BrokerEndpoint(scope, dispatch=self._dispatch)
            for key, scope in topology.scopes.items()
        }
        self._inter_peers: dict[str, list[str]] = {}
        layer_names = [l.name for l in topology.layers]
        for name in layer_names:
            self._inter_peers[name] = [n for n in layer_names if n != name]

    def _build_links(self, links: dict) -> None:
        unknown = set(_expect(links, dict, "links")) - {"defaults", "scopes", "crossings"}
        if unknown:
            raise TopologyError(f"unknown links sections: {sorted(unknown)}")
        defaults = dict(DEFAULT_LINKS)
        for kind, obj in _expect(links.get("defaults", {}), dict, "links.defaults").items():
            if kind not in defaults:
                raise TopologyError(f"unknown link kind {kind!r}")
            defaults[kind] = defaults[kind].merged(obj)

        self.local_links: dict[str, LinkState] = {}
        scope_overrides = _expect(links.get("scopes", {}), dict, "links.scopes")
        for key, scope in self.topology.scopes.items():
            spec = defaults[scope.kind.value]
            if key in scope_overrides:
                spec = spec.merged(scope_overrides[key])
            self.local_links[key] = LinkState(key, spec)
        stray = set(scope_overrides) - set(self.topology.scopes)
        if stray:
            raise TopologyError(f"link override for unknown scope: {sorted(stray)}")

        pair_specs: dict[frozenset[str], LinkSpec] = {
            frozenset(p): defaults["crossing"] for p in self.topology.layer_pairs()
        }
        for entry in _expect(links.get("crossings", []), list, "links.crossings"):
            entry = dict(_expect(entry, dict, "crossing entry"))
            between = entry.pop("between", None)
            if (not isinstance(between, list) or len(between) != 2
                    or not all(isinstance(n, str) for n in between)):
                raise TopologyError("crossing entry needs 'between': [layer_a, layer_b]")
            a, b = between
            self.topology.layer(a), self.topology.layer(b)
            key = frozenset((a, b))
            if key not in pair_specs:
                raise TopologyError(f"crossing {a!r}-{b!r} is not a distinct layer pair")
            pair_specs[key] = defaults["crossing"].merged(entry)
        self.crossings: dict[tuple[str, str], LinkState] = {}
        for pair, spec in pair_specs.items():
            a, b = sorted(pair, key=lambda n: self.topology.layer(n).depth)
            self.crossings[(a, b)] = LinkState(f"{a}->{b}", spec)
            self.crossings[(b, a)] = LinkState(f"{b}->{a}", spec)
        self._link_counters: dict[str, tuple[CounterCell, CounterCell]] = {
            link.name: (self.metrics.counter("link.bytes", {"link": link.name}),
                        self.metrics.counter("link.msgs", {"link": link.name}))
            for link in [*self.local_links.values(), *self.crossings.values()]
        }

    # -- endpoint access -------------------------------------------------

    def endpoint(self, scope: BrokerScope | str) -> BrokerEndpoint:
        key = scope.key if isinstance(scope, BrokerScope) else scope
        return self.endpoints[key]

    # -- transport ---------------------------------------------------------

    def _dispatch(self, endpoint: BrokerEndpoint, env: MessageEnvelope) -> int:
        scope = endpoint.scope
        now = self.clock.now
        total = 0

        targets = endpoint.snapshot(env)
        if targets:
            link = self.local_links[scope.key]
            ser_end = link.charge(env.payload_len, now)
            self._count_link(link, env)
            for h in targets:
                self._send_copy(endpoint, h, env, link, ser_end)
            total += len(targets)

        if scope.kind is ScopeKind.INTER_LAYER:
            for other in self._inter_peers[scope.layer]:
                peer = self.endpoints[f"{ScopeKind.INTER_LAYER.value}:{other}"]
                remote = peer.snapshot(env)
                if not remote:
                    continue
                xlink = self.crossings[(scope.layer, other)]
                xser_end = xlink.charge(env.payload_len, now)
                self._count_link(xlink, env)
                self.trace.record(
                    "xlink", now, frm=scope.layer, to=other, topic=env.topic,
                    origin=env.origin_node.key, seq=env.sequence,
                )
                for h in remote:
                    self._send_copy(peer, h, env, xlink, xser_end)
                total += len(remote)

        if total:
            self._offered[env.topic].inc(total)
        return total

    def _count_link(self, link: LinkState, env: MessageEnvelope) -> None:
        nbytes, msgs = self._link_counters[link.name]
        nbytes.inc(env.payload_len)
        msgs.inc()

    def _send_copy(
        self,
        endpoint: BrokerEndpoint,
        handle: SubscriberHandle,
        env: MessageEnvelope,
        link: LinkState,
        ser_end: int,
    ) -> None:
        spec = link.spec
        if spec.loss > 0.0 and self.rng.random() < spec.loss:
            self.metrics.inc("flow.drop.loss", {"topic": env.topic, "link": link.name})
            return
        if spec.jitter_ms > 0.0:
            delay_ms = self.rng.uniform(spec.latency_ms - spec.jitter_ms,
                                        spec.latency_ms + spec.jitter_ms)
            if delay_ms < 0.0:
                delay_ms = 0.0
        else:
            delay_ms = spec.latency_ms
        self.clock.schedule(ser_end + ns_from_ms(delay_ms), self._deliver, endpoint, handle, env)

    def _deliver(self, endpoint: BrokerEndpoint, handle: SubscriberHandle, env: MessageEnvelope) -> None:
        # Bridge callbacks account their own outcome (forward / dedupe /
        # limiter drop); every other arrival terminates here as delivered,
        # including arrivals at handles unsubscribed while in flight.
        if handle.kind != SUB_BRIDGE or not handle.active:
            self._delivered[env.topic].inc()
        if handle.active and not endpoint.invoke(handle, env):
            self.metrics.inc("broker.callback_error", {"scope": endpoint.scope.key})

    def endpoint_errors(self) -> list[tuple[str, str, str]]:
        out = []
        for key, ep in self.endpoints.items():
            for topic, exc in ep.errors:
                out.append((key, topic, repr(exc)))
        return out
