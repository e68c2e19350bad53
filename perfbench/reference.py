"""A fixed pure-Python workload that gauges how fast the host runs right now.

The benchmark host's speed drifts: the same repetition of a workload
takes anywhere from 1x to 1.7x its fastest time, in states that last
from seconds to minutes (see README.md, "Normalised seconds"). A
`Meter` runs a small fixed chunk of interpreter work between short
slices of the simulation, so the chunks see the same host states as the
simulation they are interleaved with. A chunk has two parts, the two
kinds of work the simulator does:

* a heap-ordered event loop handing small dicts to objects, with dict
  counters, method calls and list appends (compute-bound);
* reads and writes at fixed random places of a 2 MiB integer array
  (bound by cache misses; an `array` holds no Python objects, so the
  garbage collector never scans it).

Dividing a host time by the mean chunk time and multiplying by
`CHUNK_S` gives the time the same work would have taken on a host where
one chunk takes `CHUNK_S` seconds. The chunk must stay fixed: changing
it changes every normalised time.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from array import array

CHUNK_S = 0.005  # the chunk time that normalised seconds are stated against
LOOP_EVENTS = 1000  # event-loop part of a chunk
TABLE_SLOTS = 1 << 18  # 8-byte slots: 2 MiB
TABLE_TOUCHES = 12_000  # random slots read and written per chunk


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class _Sink:
    __slots__ = ("name", "seen", "last")

    def __init__(self, name: str):
        self.name = name
        self.seen = 0
        self.last = None

    def deliver(self, msg: dict) -> None:
        self.seen += 1
        self.last = msg


def event_loop(events: int = LOOP_EVENTS) -> int:
    """Run a tiny fixed event loop; returns a checksum of what it delivered."""
    sinks = {f"t{i}": [_Sink(f"s{i}.{j}") for j in range(3)] for i in range(16)}
    topics = list(sinks)
    heap: list[tuple[int, int, str, int]] = []
    for seq in range(32):
        heapq.heappush(heap, (seq * 7 % 13, seq, topics[seq % 16], seq))
    counters: dict[str, int] = {}
    log: list[tuple[int, str]] = []
    seq = 32
    for _ in range(events):
        at, _, topic, n = heapq.heappop(heap)
        msg = {"topic": topic, "seq": n, "at": at, "size": 64 + n % 512}
        for sink in sinks[topic]:
            sink.deliver(msg)
        key = f"{topic}.delivered"
        counters[key] = counters.get(key, 0) + len(sinks[topic])
        if n % 8 == 0:
            log.append((at, topic))
        heapq.heappush(heap, (at + 1 + n % 11, seq, topics[(n * 5 + 3) % 16], n + 1))
        seq += 1
    return sum(counters.values()) + len(log)


def table_walk(table: array, places: array) -> int:
    """Read and rewrite `table` at each of `places`; returns a checksum."""
    total = 0
    for j in places:
        total += table[j]
        table[j] = total & 0xFFFF
    return total


class Meter:
    """Times reference chunks and keeps them out of the program's host time.

    `prog_ns()` is the monotonic clock with the meter's own time (its
    chunks and the one-off build of its table) taken out, so intervals
    read from it are the program's own host time.
    """

    def __init__(self) -> None:
        self.times_ns: list[int] = []
        self.spent_ns = 0
        self._table: array | None = None
        self._places: array | None = None

    def run(self, count: int = 1) -> None:
        if self._table is None:
            t0 = now_ns()
            rng = random.Random(5)
            self._table = array("q", range(TABLE_SLOTS))
            self._places = array("l", (rng.randrange(TABLE_SLOTS) for _ in range(TABLE_TOUCHES)))
            self.spent_ns += now_ns() - t0
        # The chunk frees every object it makes and makes no cycle, so with
        # the collector off it leaves the collector's counts as it found them
        # and cannot move the program's collections to another moment.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = now_ns()
                event_loop()
                table_walk(self._table, self._places)
                dt = now_ns() - t0
                self.times_ns.append(dt)
                self.spent_ns += dt
        finally:
            if collecting:
                gc.enable()

    def prog_ns(self) -> int:
        return now_ns() - self.spent_ns

    def summary(self) -> dict:
        t = self.times_ns
        return {"chunks": len(t), "mean_s": sum(t) / len(t) / 1e9 if t else None}
