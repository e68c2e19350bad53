"""Independent reference implementations used to check the real ones.

Deliberately written as plain step-by-step transcriptions of the
allocation and token-bucket equations, sharing no code with the package
so a bug cannot hide in both.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import OrderedDict
from typing import Any, Callable

from tracefile import events


def oracle_allocate(
    limit_mbps: float,
    publishers: list[tuple[str, float, int]],
    alpha: float = 1.02,
    beta: float = 0.95,
    min_rate_hz: float = 2.0,
    large_threshold: int = 65536,
) -> dict[str, float]:
    """Evaluate the bandwidth split for (topic, rate_hz, size) triples.

    Budget in bytes/s comes straight from the megabit limit.  Standard
    (small) publishers are served in descending declared demand, ties by
    topic; each gets the least of its advertised rate, what the budget
    still covers, and the per-publisher share cap.  Large publishers
    follow from the remainder and are finally lifted to the starvation
    floor.  Returns {topic: allocated_hz}.
    """
    budget = limit_mbps * 1024 * 1024 / 8.0

    small = []
    big = []
    for topic, rate_hz, size in publishers:
        eff_size = size if size >= 1 else 1
        demand = rate_hz * eff_size * alpha
        row = (topic, rate_hz, eff_size, demand)
        (big if eff_size >= large_threshold else small).append(row)

    small.sort(key=lambda row: (-row[3], row[0]))
    big.sort(key=lambda row: (-row[3], row[0]))

    remaining = budget
    out: dict[str, float] = {}
    for phase, rows in (("small", small), ("big", big)):
        for topic, rate_hz, eff_size, _ in rows:
            wanted = rate_hz if rate_hz > 0 else math.inf
            per_msg = eff_size * alpha
            granted = min(wanted, remaining / per_msg, beta * budget / per_msg)
            if granted < 0.0:
                granted = 0.0
            if phase == "big":
                floor = min(min_rate_hz, wanted)
                if granted < floor:
                    granted = floor
            remaining -= granted * per_msg
            out[topic] = granted
    return out


def oracle_bucket_replay(
    rate_hz: float,
    capacity: float,
    attempt_times_ns: list[int],
) -> list[bool]:
    """Replay acquire attempts against a continuously refilled bucket.

    Starts full.  Each attempt first accrues rate * elapsed tokens

    (clipped at capacity), then succeeds iff a whole token is present.
    """
    tokens = capacity
    last = 0
    grants = []
    for t in attempt_times_ns:
        if t > last:
            tokens = min(capacity, tokens + rate_hz * (t - last) / 1e9)
        last = t
        if tokens >= 1.0:
            tokens -= 1.0
            grants.append(True)
        else:
            grants.append(False)
    return grants


def oracle_single_large_rate(
    limit_mbps: float,
    size: int,
    rate_adv: float,
    alpha: float = 1.02,
    beta: float = 0.95,
) -> float:
    """Closed-form single large publisher: no competition, no floor hit."""
    budget = limit_mbps * 1024 * 1024 / 8.0
    return min(rate_adv, budget / (size * alpha), beta * budget / (size * alpha))


def oracle_bridges(
    table_keys: list[tuple[str, str, str, str]],
    scope_keys: set[str],
) -> set[tuple[str, str, str]]:
    """Whole-table bridge set of one flow engine, recomputed in full.

    ``table_keys`` are the engine's (direction, topic, origin, scope)
    rows and ``scope_keys`` the scopes it is attached to.  Every topic
    gets one (topic, source, dest) bridge from each scope that advertises
    it to each other scope that requests it.
    """
    advertised = set()
    requested = set()
    for direction, topic, _origin, scope in table_keys:
        if scope not in scope_keys:
            continue
        if direction == "advertise":
            advertised.add((topic, scope))
        elif direction == "request":
            requested.add((topic, scope))
        else:
            raise ValueError(f"unknown direction {direction!r}")
    bridges = set()
    for topic, source in advertised:
        for wanted, dest in requested:
            if wanted == topic and dest != source:
                bridges.add((topic, source, dest))
    return bridges


def oracle_bridge_rows(trace_path) -> list[dict]:
    """Bridge inventory over time, scanned from a written trace's install
    and remove events: the rows of ``bridges.csv``, as strings."""
    rows = []
    for rec in events(trace_path, "bridge_installed", "bridge_removed"):
        rows.append({
            "at_ms": f"{rec['at'] / 1e6:.6g}",
            "event": "install" if rec["ev"] == "bridge_installed" else "remove",
            "layer": rec["layer"],
            "topic": rec["topic"],
            "source": rec["source"],
            "dest": rec["dest"],
        })
    return rows


def oracle_ordered_sum(values):
    """Add left to right, rounding after every addition, one at a time."""
    total = 0
    for v in values:
        total += v
    return total


def oracle_limiter_regs(engine) -> dict[str, dict[str, tuple[float, int]]]:
    """Every traffic client's {topic: (rate, size)} registrations, rebuilt in full.

    Each of the engine's bridges into its inter_layer scope registers its
    topic with its client: the declared rates of the topic's advertisers at
    the bridge's source scope, added in table order, and their largest
    declared size. Bridges of one client and topic add up in sorted key
    order.
    """
    regs: dict[str, dict[str, tuple[float, int]]] = {}
    for key in sorted(engine.bridges):
        bridge = engine.bridges[key]
        if bridge.client is None:
            continue
        rate, size = 0, 0
        for (direction, topic, _origin, scope), entry in engine.table.entries.items():
            if direction == "advertise" and topic == bridge.topic and scope == bridge.source.key:
                rate += entry.declared_rate
                size = max(size, entry.declared_max_size)
        topics = regs.setdefault(bridge.client, {})
        r0, s0 = topics.get(bridge.topic, (0, 0))
        topics[bridge.topic] = (r0 + rate, max(s0, size))
    return regs


def oracle_scopes(entries: dict, direction: str, topic: str) -> set[str]:
    """Scopes holding a (direction, topic) declaration, by full table scan."""
    return {scope for d, t, _origin, scope in entries if d == direction and t == topic}


def oracle_advertisers_at(entries: dict, topic: str, scope_key: str) -> list:
    """A topic's advertise entries at one scope, in table order, by full scan."""
    return [e for (d, t, _origin, scope), e in entries.items()
            if d == "advertise" and t == topic and scope == scope_key]


def oracle_contributions(entries: dict, service: str) -> list:
    """(key, entry) pairs a service contributes to, in table order, by full scan."""
    return [(k, e) for k, e in entries.items() if service in e.contributors]


class OracleRingWindow:
    """The dedupe window as a ring of recently recorded sequences.

    Per (origin, topic) stream: the highest sequence recorded, plus an
    insertion-ordered ring of the last ``capacity`` distinct sequences
    recorded. A sequence is fresh when it is not in the ring and is newer
    than ``highest - capacity``. The ring forgets by insertion order, not
    by age, so it agrees with a sliding bitmap only while it forgets
    nothing: while no stream records more than ``capacity`` distinct
    sequences.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.streams: dict[tuple[str, str], tuple[list[int], OrderedDict]] = {}

    def _stream(self, origin: str, topic: str) -> tuple[list[int], OrderedDict]:
        return self.streams.setdefault((origin, topic), ([0], OrderedDict()))

    def record(self, origin: str, topic: str, seq: int) -> None:
        highest, ring = self._stream(origin, topic)
        highest[0] = max(highest[0], seq)
        if seq not in ring:
            ring[seq] = None
            while len(ring) > self.capacity:
                ring.popitem(last=False)

    def test_and_record(self, origin: str, topic: str, seq: int) -> bool:
        highest, ring = self._stream(origin, topic)
        if seq in ring or seq <= highest[0] - self.capacity:
            return False
        self.record(origin, topic, seq)
        return True


def oracle_sdk_delivers(window, origin: str, topic: str, seq: int) -> bool:
    """Whether the SDK's delivery wrapper delivers an arrival, decided as
    it was with two window calls on every delivery: a sequence that
    ``window`` has `seen` is a duplicate; any other is marked with
    `record` and delivered, also one older than the window, which
    `record` leaves unmarked."""
    if window.seen(origin, topic, seq):
        return False
    window.record(origin, topic, seq)
    return True


class OracleMarkWindow:
    """The dedupe window as a sliding mark bitmap (the package's window
    before it kept holes instead of marks).

    Each (origin node, topic) stream holds ``[highest, mask]``: bit *i*
    of the mask marks sequence ``highest - i``, and the mask keeps
    ``capacity`` bits. A sequence is fresh when it is not marked and not
    older than the window; anything older counts as a duplicate, keeping
    delivery at-most-once.
    """

    __slots__ = ("capacity", "_streams")

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._streams: dict[tuple[str, str], list[int]] = {}

    def seen(self, origin: str, topic: str, seq: int) -> bool:
        """True when this sequence is marked inside the window."""
        highest, mask = self._streams.get((origin, topic), (0, 0))
        back = highest - seq
        return 0 <= back < self.capacity and mask >> back & 1 == 1

    def test_and_record(self, origin: str, topic: str, seq: int) -> bool:
        """True (and marks it) when this sequence was not seen before."""
        key = (origin, topic)
        st = self._streams.get(key) or self._streams.setdefault(key, [0, 0])
        back = st[0] - seq
        if back < 0:  # newest yet: slide the window up to it
            st[0] = seq
            st[1] = (st[1] << min(-back, self.capacity) | 1) & ((1 << self.capacity) - 1)
            return True
        if back >= self.capacity or st[1] >> back & 1:
            return False  # seen, or too old to judge: drop rather than risk a dup
        st[1] |= 1 << back
        return True

    # marking a sequence observed elsewhere is the same step, answer unused
    record = test_and_record


class OracleSubscriptions:
    """The subscriptions of every endpoint as the broker kept them before
    routes: per (scope key, topic), a list of handles in subscription
    order, from which unsubscribing removes one.

    It is fed by a harness's own calls: `subscribe` and `unsubscribe`
    pass each call on to the endpoint and record what it did.
    """

    def __init__(self):
        self.subs: dict[tuple[str, str], list] = {}

    def subscribe(self, ep, topic, callback, kind="user", owner=None):
        handle = ep.subscribe(topic, callback, kind=kind, owner=owner)
        self.subs.setdefault((ep.scope.key, topic), []).append(handle)
        return handle

    def unsubscribe(self, ep, handle) -> bool:
        removed = ep.unsubscribe(handle)
        if removed:
            self.subs[(ep.scope.key, handle.topic)].remove(handle)
        return removed


def oracle_snapshot(subs: OracleSubscriptions, ep, env, sender) -> list:
    """The active handles of env.topic on ep that sender does not own,
    in subscription order, from the record."""
    return [h for h in subs.subs.get((ep.scope.key, env.topic), ())
            if h.active and (sender is None or h.owner != sender)]


def oracle_dispatch_per_copy(net, subs, endpoint, env, sender) -> int:
    """A network's transport with one delivery event per copy.

    Each targeted copy draws its loss, then its jitter, and is scheduled
    as its own event, in target order; the local link first, then each
    other layer's crossing; no copy goes to a handle that ``sender``
    owns. Targets come from `oracle_snapshot` over ``subs``, not from the
    endpoints' routes. Counters are updated through the registry by name.
    Install it on every endpoint with `install_per_copy_dispatch`.
    """
    now = net.clock.now
    scope = endpoint.scope
    total = 0
    hops = [(endpoint, net.links[scope.key], None)]
    if scope.kind.value == "inter_layer":
        hops += [(net.endpoints[f"inter_layer:{layer}"],
                  net.links[f"{scope.layer}->{layer}"], layer)
                 for layer in net.topology.layers if layer != scope.layer]
    for ep, link, to_layer in hops:
        targets = oracle_snapshot(subs, ep, env, sender)
        if not targets:
            continue
        ser_end = link.charge(env.payload_len, now)
        net.metrics.inc("link.bytes", {"link": link.name}, env.payload_len)
        net.metrics.inc("link.msgs", {"link": link.name})
        if to_layer is not None:
            net.trace.record("xlink", now, frm=scope.layer, to=to_layer, topic=env.topic,
                             origin=env.origin_node.key, seq=env.sequence)
        for handle in targets:
            _oracle_send_copy(net, ep, handle, env, link, ser_end)
        total += len(targets)
    if total:
        net.metrics.inc("flow.offered", {"topic": env.topic}, total)
    return total


def _oracle_send_copy(net, endpoint, handle, env, link, ser_end) -> None:
    spec = link.spec
    if spec.loss > 0.0 and net.rng.random() < spec.loss:
        net.metrics.inc("flow.drop.loss", {"topic": env.topic, "link": link.name})
        return
    delay_ms = spec.latency_ms
    if spec.jitter_ms > 0.0:
        delay_ms = max(0.0, net.rng.uniform(spec.latency_ms - spec.jitter_ms,
                                            spec.latency_ms + spec.jitter_ms))
    net.clock.schedule(ser_end + int(round(delay_ms * 1_000_000)),
                       _oracle_deliver, net, endpoint, handle, env)


def _oracle_deliver(net, endpoint, handle, env) -> None:
    if handle.kind != "bridge" or not handle.active:
        net.metrics.inc("flow.delivered", {"topic": env.topic})
    if handle.active:
        endpoint.invoke(handle, env)


def install_per_copy_dispatch(net, subs: OracleSubscriptions) -> None:
    """Route every publish on net through `oracle_dispatch_per_copy`,
    targeting the subscriptions recorded in ``subs``."""
    for ep in net.endpoints.values():
        ep._dispatch = lambda ep, env, sender: oracle_dispatch_per_copy(
            net, subs, ep, env, sender)


class OracleHeapClock:
    """The event clock as a heap of ``(at, seq, fn, args)`` entries,
    as `SimClock` was before its queue was keyed by time; ties resolve
    by scheduling order.

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


class OracleFlagTimer:
    """A recurring timer as written by hand before `SimClock.every`.

    Its tick does nothing once ``running`` is cleared. Otherwise it calls
    fn(*args), then re-arms itself with ``call_in`` for the delay fn
    returned; None ends the timer. `oracle_drain` clears the flag.
    """

    def __init__(self, clock, delay: int, fn, *args):
        self.clock = clock
        self.fn = fn
        self.args = args
        self.running = True
        clock.call_in(delay, self.tick)

    def tick(self) -> None:
        if not self.running:
            return
        delay = self.fn(*self.args)
        if delay is not None:
            self.clock.call_in(delay, self.tick)


def oracle_drain(clock, timers: list[OracleFlagTimer], max_events: int) -> int:
    """Clear every timer's flag, then empty the queue."""
    for timer in timers:
        timer.running = False
    return clock.run_until_idle(max_events)


def _oracle_labels(labels) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in (labels or {}).items()))


def _oracle_num(x) -> str:
    if isinstance(x, int) or (isinstance(x, float) and x.is_integer()):
        return str(int(x))
    return repr(x)


class _OracleCounterCell:
    def __init__(self, reg, key):
        self.reg = reg
        self.key = key
        self.entry = None

    def inc(self, value=1) -> None:
        now = self.reg.clock.now
        if self.entry is None:
            self.entry = self.reg.counters.get(self.key)
            if self.entry is None:
                self.entry = self.reg.counters[self.key] = [value, now]
                return
        self.entry[0] += value
        self.entry[1] = now


class _OracleGaugeCell:
    def __init__(self, reg, key):
        self.reg = reg
        self.key = key
        self.entry = None

    def observe(self, value) -> None:
        if self.entry is None:
            self.entry = self.reg.gauges.setdefault(self.key, [[], -1])
        self.entry[0].append(float(value))
        self.entry[1] = self.reg.clock.now


class OracleMetrics:
    """The metrics registry as it was before shared cells: every binder
    gets its own cell, and a cell makes or finds its entry at its first
    update, so entries exist only once updated and keep the order of
    their first update. Readers and export read the entries as they are.
    """

    def __init__(self, clock):
        self.clock = clock
        self.counters: dict[tuple, list] = {}  # key -> [value, at]
        self.gauges: dict[tuple, list] = {}  # key -> [[value, ...], last at]

    def counter(self, name, labels=None) -> _OracleCounterCell:
        return _OracleCounterCell(self, (name, _oracle_labels(labels)))

    def gauge(self, name, labels=None) -> _OracleGaugeCell:
        return _OracleGaugeCell(self, (name, _oracle_labels(labels)))

    def inc(self, name, labels=None, value=1) -> None:
        self.counter(name, labels).inc(value)

    def observe(self, name, labels=None, value=0.0) -> None:
        self.gauge(name, labels).observe(value)

    def totals(self, name, label) -> dict:
        out: dict = {}
        for (n, labels), (value, _) in self.counters.items():
            got = dict(labels)
            if n == name and label in got:
                out[got[label]] = out.get(got[label], 0) + value
        return out

    def gauge_sets(self, name) -> dict:
        """Per label set: (its values, its last time)."""
        return {labels: (list(values), at)
                for (n, labels), (values, at) in self.gauges.items() if n == name}

    def snapshot(self) -> list[tuple]:
        """(kind, name, labels, value, at) per entry, sorted."""
        points = [("counter", n, labels, v, at) for (n, labels), (v, at) in self.counters.items()]
        points += [("gauge", n, labels, vals[-1], at)
                   for (n, labels), (vals, at) in self.gauges.items()]
        return sorted(points, key=lambda p: p[:3])

    def export(self) -> bytes:
        """The metrics.txt line format."""
        def fmt(name, labels):
            inner = ",".join(f'{k}="{v}"' for k, v in labels)
            return name + ("{" + inner + "}" if labels else "")

        lines = ["# flowbridge metrics v1"]
        for (name, labels), (value, at) in sorted(self.counters.items()):
            lines.append(f"counter {fmt(name, labels)} {_oracle_num(value)} {at}")
        for (name, labels), (vals, at) in sorted(self.gauges.items()):
            total = 0
            for v in vals:  # left to right, rounding after each addition
                total += v
            lines.append(
                f"gauge {fmt(name, labels)} last={_oracle_num(vals[-1])} n={len(vals)}"
                f" mean={_oracle_num(total / len(vals))} min={_oracle_num(min(vals))}"
                f" max={_oracle_num(max(vals))} {at}")
        return ("\n".join(lines) + "\n").encode("utf-8")


def synthetic_corpus(nbytes: int = 1 << 20, seed: int = 1318) -> bytes:
    """Deterministic compressible test corpus: repeated random blocks
    with scattered byte mutations, the texture the codec is sized for."""
    rng = random.Random(seed)
    unit = rng.randbytes(256)
    data = bytearray((unit * (nbytes // len(unit) + 1))[:nbytes])
    for i in range(0, nbytes, 512):
        data[i] = rng.randrange(256)
    return bytes(data)
