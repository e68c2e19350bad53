"""Deterministic discrete-event network simulation.

Virtual time is an integer nanosecond counter driven by SimClock. Its
queue is keyed by time: a heap holds each distinct time that has
events once, and each time holds its events in a list, so events run in
time order and, within one time, in the order they were scheduled. All
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
  [-jitter_ms, +jitter_ms] (drawn only when jitter > 0, bit for bit as
  ``Random.uniform`` draws it), clamped at 0.

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
``run_until_idle(max_events)`` count these events, not copies: one per
scheduled call, however many share its time.
"""

from __future__ import annotations

import gc
import heapq
import math
from random import Random
from typing import Any, Callable, Sequence

from .broker import SUB_BRIDGE, BrokerEndpoint, SubscriberHandle
from .monitor import CounterCell, MetricsRegistry
from .topology import BrokerScope, LinkSpec, MessageEnvelope, ScopeKind, SequenceCounter, Topology
from .tracing import Trace, xlink_parts

MS = 1_000_000
SECOND = 1_000_000_000


def ns_from_ms(ms: float) -> int:
    return round(ms * MS)


def ns_from_s(s: float) -> int:
    return round(s * SECOND)


class SimClock:
    """Virtual-time event queue: a heap of the distinct times that have
    events, and per time a list of its events in scheduling order, so
    ties resolve by scheduling order.

    `run_until` and `run_until_idle` share one loop, `_run`, which runs
    a time's list in place with a ``for`` loop; its iterator also
    reaches the events appended meanwhile, so an event scheduled at
    ``now`` joins the tail of the time being run and runs in the same
    pass. The loop stops every ``RUN_CHUNK`` events, or at the limit of
    `run_until_idle` if that comes first, and cuts the run events from
    the list's head, so a time holds at most ``RUN_CHUNK`` of them. At
    the limit, an event still due raises before it runs or ``now``
    moves. A time leaves the queue only once it is run to the end, so
    an event that raises is cut and leaves the rest of its time queued.
    Each event run counts once in ``events_processed``, also one that
    raises; the count is added when the loop returns or raises. Events
    cannot be cancelled: a recurring timer (`every`) ends when its
    callback returns None, or when `run_until_idle` clears
    ``repeating``.

    The cyclic garbage collector is off while the loop runs events, and
    back in the caller's state when it returns or raises. A run makes
    no reference cycles, so the collector would only re-scan the live
    world; a cycle that a callback makes is collected after it returns.
    """

    RUN_CHUNK = 256  # run events a time's list holds at most

    def __init__(self):
        self.now = 0  # read-only outside this class
        self._times: list[int] = []  # heap of the keys of _queues
        self._queues: dict[int, list[tuple[Callable, tuple]]] = {}
        self.events_processed = 0
        self.repeating = True

    def schedule(self, at: int, fn: Callable, *args: Any) -> None:
        """Schedule fn(*args) at virtual time ``at`` (clamped to now)."""
        if at < self.now:
            at = self.now
        queue = self._queues.get(at)
        if queue is None:
            self._queues[at] = [(fn, args)]
            heapq.heappush(self._times, at)
        else:
            queue.append((fn, args))

    def call_in(self, delay: int, fn: Callable, *args: Any) -> None:
        self.schedule(self.now + delay, fn, *args)

    def every(self, delay: int, fn: Callable[..., int | None], *args: Any) -> None:
        """Call fn(*args) after ``delay`` ns, then again after each delay
        it returns, until it returns None or the queue drains."""
        self.call_in(delay, self._repeat, fn, args)

    def _repeat(self, fn: Callable[..., int | None], args: tuple) -> None:
        if self.repeating:
            delay = fn(*args)
            # re-armed after fn's own events, so ties keep their order
            if delay is not None:
                self.schedule(self.now + delay, self._repeat, fn, args)

    def run_until(self, t: int) -> int:
        """Process every event with timestamp <= t; leaves now == t."""
        n = self._run(t, math.inf)
        if t > self.now:
            self.now = t
        return n

    def run_until_idle(self, max_events: int | None = None) -> int:
        """End every recurring timer, then drain the queue completely;
        one-shot events still run. Guards against runaway forwarding:
        raises before running event ``max_events + 1``, leaving it and
        ``now`` as they were."""
        self.repeating = False
        return self._run(math.inf, math.inf if max_events is None else max_events)

    def _run(self, until: float, limit: float) -> int:
        """Run every event due by ``until``; raises before running event
        ``limit + 1``."""
        times, queues, chunk = self._times, self._queues, self.RUN_CHUNK
        n = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            while times and times[0] <= until:
                at = times[0]
                queue = queues[at]
                while True:
                    start = n
                    stop = n + chunk
                    if stop > limit:
                        stop = limit
                        if n >= limit and queue:
                            raise RuntimeError(f"event queue not idle after {limit} events")
                    self.now = at
                    try:
                        for fn, args in queue:
                            n += 1  # before the call: an event that raises counts
                            fn(*args)
                            if n >= stop:
                                break
                        else:
                            break  # run to the end of the list
                    except BaseException:
                        del queue[:n - start]
                        raise
                    del queue[:n - start]
                heapq.heappop(times)
                del queues[at]
        finally:
            self.events_processed += n
            if collecting:
                gc.enable()
        return n


class LinkState:
    """A directed link instance: immutable spec plus FIFO backlog state,
    its fixed delay, its jitter draw's bounds and its
    ``link.bytes``/``link.msgs`` counters."""

    __slots__ = ("name", "spec", "busy_until", "delay_ns", "lo", "span", "bytes_cell",
                 "msgs_cell")

    def __init__(self, name: str, spec: LinkSpec, metrics: MetricsRegistry):
        self.name = name
        self.spec = spec
        self.busy_until = 0
        self.delay_ns = ns_from_ms(spec.latency_ms)
        # a copy's delay is lo + span * random(), in ms, as
        # Random.uniform(latency - jitter, latency + jitter) computes it;
        # span is None on a link without jitter
        self.lo = spec.latency_ms - spec.jitter_ms
        self.span = (spec.latency_ms + spec.jitter_ms) - self.lo if spec.jitter_ms > 0.0 else None
        self.bytes_cell = metrics.counter("link.bytes", {"link": name})
        self.msgs_cell = metrics.counter("link.msgs", {"link": name})

    def charge(self, nbytes: int, now: int) -> int:
        """Serialize nbytes starting no earlier than now; returns finish time."""
        start = now if now > self.busy_until else self.busy_until
        if self.spec.bandwidth_mbps > 0:
            end = start + round(nbytes * 8000.0 / self.spec.bandwidth_mbps)
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
    topology's links, one `LinkState` per name in ``topology.links``.

    It is the shared context of every component of a world: the clock,
    the metrics registry, the trace and ``seqs``, each node's
    `SequenceCounter` by node name."""

    def __init__(
        self,
        topology: Topology,
        clock: SimClock,
        rng: Random,
        metrics: MetricsRegistry,
        trace: Trace,
    ):
        self.topology = topology
        self.clock = clock
        self.rng = rng
        self.metrics = metrics
        self.trace = trace
        self.seqs = {n.name: SequenceCounter() for n in topology.nodes}
        # the world's bridge installs and removals as they happen, appended
        # by every engine: (at, "install" or "remove", layer, topic, source, dest)
        self.bridge_events: list[tuple[int, str, str, str, str, str]] = []
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
                peers = tuple((self.endpoints[f"{bus}:{b}"], self.links[f"{a}->{b}"],
                               xlink_parts(a, b)) for b in topology.layers if b != a)
            self._outbound[ep] = ((ep, self.links[key], None), *peers)

    # -- endpoint access -------------------------------------------------

    def endpoint(self, scope: BrokerScope | str) -> BrokerEndpoint:
        key = scope.key if isinstance(scope, BrokerScope) else scope
        return self.endpoints[key]

    # -- transport ---------------------------------------------------------

    def _dispatch(self, endpoint: BrokerEndpoint, env: MessageEnvelope,
                  sender: str | None) -> int:
        """Send one publish over every link with targets for it.

        Each link is charged once for the publish. Loss is drawn per copy
        in target order; on a jittered link each survivor then draws its
        delay and arrives as its own event, else the survivors share one
        event at the link's fixed delay.
        """
        # reads each endpoint's route as `BrokerEndpoint.snapshot` does,
        # copying it only when the sender owns some of its handles
        topic = env.topic
        nbytes = env.payload_len
        clock = self.clock
        now = clock.now
        rng = self.rng
        deliver = self._deliver
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
            total += len(targets)
            ser_end = link.charge(nbytes, now)
            cell = link.bytes_cell
            cell.value += nbytes
            cell.at = now
            cell = link.msgs_cell
            cell.value += 1
            cell.at = now
            loss = link.spec.loss
            span = link.span
            if span is not None:
                lo = link.lo
                for h in targets:
                    if loss and rng.random() < loss:
                        self.metrics.inc("flow.drop.loss", {"topic": topic, "link": link.name})
                        continue
                    delay_ms = lo + span * rng.random()
                    if delay_ms < 0.0:
                        delay_ms = 0.0
                    clock.schedule(ser_end + round(delay_ms * MS), deliver, peer, (h,), env)
                continue
            if loss:
                kept = []
                for h in targets:
                    if rng.random() < loss:
                        self.metrics.inc("flow.drop.loss", {"topic": topic, "link": link.name})
                    else:
                        kept.append(h)
                if not kept:
                    continue
                targets = kept
            clock.schedule(ser_end + link.delay_ns, deliver, peer, targets, env)

        if total:
            cell = self._offered[topic]
            cell.value += total
            cell.at = now
        return total

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
            if handle.active:
                endpoint.invoke(handle, env)

    def endpoint_errors(self) -> list[tuple[str, str, str, int]]:
        """(scope, topic, error, count) per distinct callback error."""
        return [(key, topic, err, n) for key, ep in self.endpoints.items()
                for (topic, err), n in ep.errors.items()]
