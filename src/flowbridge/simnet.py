"""Deterministic discrete-event network simulation.

Virtual time is an integer nanosecond counter driven by SimClock. All
randomness (loss and jitter draws) comes from one seeded Random handed
to the Network, so a run is a pure function of (topology, seed,
workload): repeating it yields identical event traces.

Each link's parameters come resolved with the `Topology`, one
`topology.LinkSpec` per link name; the Network only gives each link its
backlog and counters. Link model, applied wherever a published envelope
leaves an endpoint:

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
from random import Random
from typing import Any, Callable, Sequence

from .broker import SUB_BRIDGE, BrokerEndpoint, SubscriberHandle
from .monitor import CounterCell, MetricsRegistry
from .topology import BrokerScope, LinkSpec, MessageEnvelope, ScopeKind, Topology
from .tracing import Trace, xlink_parts

MS = 1_000_000
SECOND = 1_000_000_000


def ns_from_ms(ms: float) -> int:
    return int(round(ms * MS))


def ns_from_s(s: float) -> int:
    return int(round(s * SECOND))


class SimClock:
    """Virtual-time event queue; ties resolve by scheduling order.

    Events cannot be cancelled: a recurring timer (`every`) ends when its
    callback returns None, or when `run_until_idle` clears ``repeating``.
    """

    def __init__(self):
        self.now = 0  # read-only outside this class
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

    def run_until(self, t: int) -> int:
        """Process every event with timestamp <= t; leaves now == t."""
        heap = self._heap
        start = self.events_processed
        while heap and heap[0][0] <= t:
            self.now, _, fn, args = heapq.heappop(heap)
            self.events_processed += 1  # before the call: an event that raises counts
            fn(*args)
        if t > self.now:
            self.now = t
        return self.events_processed - start

    def run_until_idle(self, max_events: int | None = None) -> int:
        """End every recurring timer, then drain the queue completely;
        one-shot events still run. Guards against runaway forwarding."""
        self.repeating = False
        heap = self._heap
        start = self.events_processed
        while heap:
            if max_events is not None and self.events_processed - start >= max_events:
                raise RuntimeError(f"event queue not idle after {max_events} events")
            self.now, _, fn, args = heapq.heappop(heap)
            self.events_processed += 1
            fn(*args)
        return self.events_processed - start


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
    """Binds one BrokerEndpoint per scope and routes publishes over the
    topology's links, one `LinkState` per name in ``topology.links``."""

    def __init__(
        self,
        topology: Topology,
        clock: SimClock,
        rng: Random,
        metrics: MetricsRegistry | None = None,
        trace: Trace | None = None,
    ):
        self.topology = topology
        self.clock = clock
        self.rng = rng
        self.metrics = metrics if metrics is not None else MetricsRegistry(clock)
        self.trace = trace if trace is not None else Trace()
        self._offered = _TopicCounters(self.metrics, "flow.offered")
        self._delivered = _TopicCounters(self.metrics, "flow.delivered")
        self.links: dict[str, LinkState] = {
            name: LinkState(name, spec, self.metrics) for name, spec in topology.links.items()}
        self.endpoints: dict[str, BrokerEndpoint] = {
            key: BrokerEndpoint(scope, dispatch=self._dispatch)
            for key, scope in topology.scopes.items()
        }
        # per endpoint, where its publishes go: first (itself, its own
        # link, None), then on a layer bus one (peer, crossing, the fixed
        # parts of the crossing's trace lines) per other layer's bus
        bus = ScopeKind.INTER_LAYER.value
        self._outbound: dict[BrokerEndpoint, tuple[tuple, ...]] = {}
        for key, ep in self.endpoints.items():
            a = ep.scope.layer
            peers = ()
            if ep.scope.kind is ScopeKind.INTER_LAYER:
                peers = tuple((self.endpoints[f"{bus}:{b.name}"], self.links[f"{a}->{b.name}"],
                               xlink_parts(a, b.name)) for b in topology.layers if b.name != a)
            self._outbound[ep] = ((ep, self.links[key], None), *peers)

    # -- endpoint access -------------------------------------------------

    def endpoint(self, scope: BrokerScope | str) -> BrokerEndpoint:
        key = scope.key if isinstance(scope, BrokerScope) else scope
        return self.endpoints[key]

    # -- transport ---------------------------------------------------------

    def _dispatch(self, endpoint: BrokerEndpoint, env: MessageEnvelope,
                  sender: str | None) -> int:
        # reads each endpoint's route as `BrokerEndpoint.snapshot` does,
        # copying it only when the sender owns some of its handles
        topic = env.topic
        now = self.clock.now
        total = 0
        for peer, link, parts in self._outbound[endpoint]:
            route = peer.routes.get(topic)
            if route is None:
                continue
            targets, owners = route
            if sender in owners:
                targets = [h for h in targets if h.owner != sender]
                if not targets:
                    continue
            if parts is not None:
                self.trace.xlink(parts, now, env.origin_node.key, env.sequence, topic)
            self._send(peer, targets, env, link, now)
            total += len(targets)

        if total:
            cell = self._offered[topic]
            cell.value += total
            cell.at = now
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
        cell = link.bytes_cell
        cell.value += env.payload_len
        cell.at = now
        cell = link.msgs_cell
        cell.value += 1
        cell.at = now
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
        now = self.clock.now
        for handle in handles:
            if handle.kind != SUB_BRIDGE or not handle.active:
                delivered.value += 1
                delivered.at = now
            if handle.active and not endpoint.invoke(handle, env):
                self.metrics.inc("broker.callback_error", {"scope": endpoint.scope.key})

    def endpoint_errors(self) -> list[tuple[str, str, str, int]]:
        """(scope, topic, error, count) per distinct callback error."""
        return [(key, topic, err, n) for key, ep in self.endpoints.items()
                for (topic, err), n in ep.errors.items()]
