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

On a link without jitter every copy of one publish arrives at the same
time, so the copies that survive their loss draws travel as one event
that delivers them in target order; a jittered link schedules one event
per copy. Nothing can run between the copies of one event, as nothing
could between their consecutively scheduled events before, so outputs
are the same. ``SimClock.events_processed`` and
``run_until_idle(max_events)`` count these events, not copies.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Sequence

from .broker import SUB_BRIDGE, BrokerEndpoint, SubscriberHandle
from .monitor import CounterCell, MetricsRegistry
from .topology import BrokerScope, MessageEnvelope, ScopeKind, Topology, TopologyError
from .tracing import Trace, XlinkParts, xlink_parts

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

    Events cannot be cancelled: a recurring timer (`every`) ends when its
    callback returns None, or when `run_until_idle` clears ``repeating``.
    """

    def __init__(self, start: int = 0):
        self.now = start  # read-only outside this class
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self.events_processed = 0
        self.repeating = True

    def schedule(self, at: int, fn: Callable, *args: Any) -> None:
        """Schedule fn(*args) at virtual time ``at`` (clamped to now)."""
        if at < self.now:
            at = self.now
        heapq.heappush(self._heap, (at, next(self._seq), fn, args))

    def call_in(self, delay: int, fn: Callable, *args: Any) -> None:
        self.schedule(self.now + max(0, delay), fn, *args)

    def every(self, delay: int, fn: Callable[..., int | None], *args: Any) -> None:
        """Call fn(*args) after ``delay`` ns, then again after each delay
        it returns, until it returns None or the queue drains."""
        self.call_in(delay, self._repeat, fn, args)

    def _repeat(self, fn: Callable[..., int | None], args: tuple) -> None:
        if self.repeating:
            delay = fn(*args)
            # re-armed after fn's own events, so ties keep their order
            if delay is not None:
                self.call_in(delay, self._repeat, fn, args)

    def _pop_run(self) -> None:
        self.now, _, fn, args = heapq.heappop(self._heap)
        self.events_processed += 1
        fn(*args)

    def run_until(self, t: int) -> int:
        """Process every event with timestamp <= t; leaves now == t."""
        start = self.events_processed
        while self._heap and self._heap[0][0] <= t:
            self._pop_run()
        if t > self.now:
            self.now = t
        return self.events_processed - start

    def run_until_idle(self, max_events: int | None = None) -> int:
        """End every recurring timer, then drain the queue completely;
        one-shot events still run. Guards against runaway forwarding."""
        self.repeating = False
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
    """A directed link instance: immutable spec plus FIFO backlog state,
    its fixed delay and its ``link.bytes``/``link.msgs`` counters."""

    __slots__ = ("name", "spec", "busy_until", "delay_ns", "bytes_cell", "msgs_cell")

    def __init__(self, name: str, spec: LinkSpec, metrics: MetricsRegistry):
        self.name = name
        self.spec = spec
        self.busy_until = 0
        self.delay_ns = ns_from_ms(spec.latency_ms)
        self.bytes_cell = metrics.counter("link.bytes", {"link": name})
        self.msgs_cell = metrics.counter("link.msgs", {"link": name})

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
        # per layer: every other layer's bus endpoint, the crossing to it
        # and the fixed parts of that crossing's trace lines
        self._inter_peers: dict[str, list[tuple[BrokerEndpoint, LinkState, XlinkParts]]] = {
            a.name: [(self.endpoints[f"{ScopeKind.INTER_LAYER.value}:{b.name}"],
                      self.crossings[(a.name, b.name)], xlink_parts(a.name, b.name))
                     for b in topology.layers if b is not a]
            for a in topology.layers
        }

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
            self.local_links[key] = LinkState(key, spec, self.metrics)
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
            self.crossings[(a, b)] = LinkState(f"{a}->{b}", spec, self.metrics)
            self.crossings[(b, a)] = LinkState(f"{b}->{a}", spec, self.metrics)

    # -- endpoint access -------------------------------------------------

    def endpoint(self, scope: BrokerScope | str) -> BrokerEndpoint:
        key = scope.key if isinstance(scope, BrokerScope) else scope
        return self.endpoints[key]

    # -- transport ---------------------------------------------------------

    def _dispatch(self, endpoint: BrokerEndpoint, env: MessageEnvelope,
                  sender: str | None) -> int:
        # reads each endpoint's route as `BrokerEndpoint.snapshot` does,
        # copying it only when the sender owns some of its handles
        scope = endpoint.scope
        topic = env.topic
        now = self.clock.now
        total = 0

        route = endpoint.routes.get(topic)
        if route is not None:
            targets, owners = route
            if sender in owners:
                targets = [h for h in targets if h.owner != sender]
            if targets:
                self._send(endpoint, targets, env, self.local_links[scope.key], now)
                total += len(targets)

        if scope.kind is ScopeKind.INTER_LAYER:
            for peer, crossing, parts in self._inter_peers[scope.layer]:
                route = peer.routes.get(topic)
                if route is None:
                    continue
                remote, owners = route
                if sender in owners:
                    remote = [h for h in remote if h.owner != sender]
                    if not remote:
                        continue
                self.trace.xlink(parts, now, env.origin_node.key, env.sequence, topic)
                self._send(peer, remote, env, crossing, now)
                total += len(remote)

        if total:
            self._offered[topic].inc(total)
        return total

    def _send(
        self,
        endpoint: BrokerEndpoint,
        handles: Sequence[SubscriberHandle],
        env: MessageEnvelope,
        link: LinkState,
        now: int,
    ) -> None:
        """Charge one publish on link and schedule its copies' arrivals.

        Loss is drawn per copy in target order; on a jittered link each
        survivor then draws its delay and arrives as its own event, else
        the survivors share one event at the link's fixed delay.
        """
        ser_end = link.charge(env.payload_len, now)
        link.bytes_cell.inc(env.payload_len)
        link.msgs_cell.inc()
        spec = link.spec
        if spec.jitter_ms > 0.0:
            for h in handles:
                if spec.loss > 0.0 and self._lost(env, link):
                    continue
                delay_ms = self.rng.uniform(spec.latency_ms - spec.jitter_ms,
                                            spec.latency_ms + spec.jitter_ms)
                if delay_ms < 0.0:
                    delay_ms = 0.0
                self.clock.schedule(ser_end + ns_from_ms(delay_ms), self._deliver,
                                    endpoint, (h,), env)
            return
        if spec.loss > 0.0:
            handles = [h for h in handles if not self._lost(env, link)]
        if handles:
            self.clock.schedule(ser_end + link.delay_ns, self._deliver, endpoint, handles, env)

    def _lost(self, env: MessageEnvelope, link: LinkState) -> bool:
        if self.rng.random() < link.spec.loss:
            self.metrics.inc("flow.drop.loss", {"topic": env.topic, "link": link.name})
            return True
        return False

    def _deliver(self, endpoint: BrokerEndpoint, handles: Sequence[SubscriberHandle],
                 env: MessageEnvelope) -> None:
        # Bridge callbacks account their own outcome (forward / dedupe /
        # limiter drop); every other arrival terminates here as delivered,
        # including arrivals at handles unsubscribed while in flight, also
        # by an earlier copy's callback in this same event.
        delivered = self._delivered[env.topic]
        for handle in handles:
            if handle.kind != SUB_BRIDGE or not handle.active:
                delivered.inc()
            if handle.active and not endpoint.invoke(handle, env):
                self.metrics.inc("broker.callback_error", {"scope": endpoint.scope.key})

    def endpoint_errors(self) -> list[tuple[str, str, str]]:
        out = []
        for key, ep in self.endpoints.items():
            for topic, err in ep.errors:
                out.append((key, topic, err))
        return out
