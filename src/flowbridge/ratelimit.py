"""Two-tier hierarchical rate limiter for inter-layer traffic.

Tier one is a bandwidth allocator: the configured inter-layer budget

    B_avail = limit_mbps * 1024^2 / 8        [bytes/s]

is divided among the registered publishers of one client (a node or a
layer), given as ``{topic: (advertised rate, max size)}``; the result is
``{topic: allocated rate}`` and the budget left over. Publishers whose observed max payload is below
``large_threshold`` allocate first, in descending declared demand
D = rate * size * alpha (ties by topic name); each receives

    r_alloc = min(r_adv, B_rem / (s * alpha), beta * B_avail / (s * alpha))
    B_rem  -= r_alloc * s * alpha

Large publishers allocate from the remainder the same way, then get a
starvation floor of min(min_rate_hz, r_adv): a large topic is never
silenced outright, even if that overcommits the budget (the overshoot
is reported, not hidden).

Tier two is one token bucket per topic refilled at its allocated rate:

    T = min(capacity, T + rate * dt);  grant iff T >= 1, consuming 1.

Buckets start full, so a topic may open with a burst of ``capacity``
messages. A denied acquire means the frame is dropped, never queued.

A ``HierarchicalLimiter`` holds one client's registrations in
``records``, the same ``{topic: (rate, max size)}`` the allocator takes
and the only copy of them (the flow engine keeps none), and one bucket
per registered topic.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from .monitor import MetricsRegistry
from .topology import Record

BYTES_PER_MBIT = 1024 * 1024 / 8


class RateLimitConfig(Record):
    __slots__ = FIELDS = ("limit_mbps", "alpha", "beta", "min_rate_hz", "bucket_capacity",
                          "large_threshold", "compression_level")

    def __init__(self, limit_mbps: float = 160.0, alpha: float = 1.02, beta: float = 0.95,
                 min_rate_hz: float = 2.0, bucket_capacity: float = 2.0,
                 large_threshold: int = 65536, compression_level: int = 10) -> None:
        if limit_mbps <= 0:
            raise ValueError("limit_mbps must be > 0")
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1 (headroom multiplier)")
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if min_rate_hz <= 0:
            raise ValueError("min_rate_hz must be > 0")
        if bucket_capacity < 1:
            raise ValueError("bucket_capacity must be >= 1")
        if large_threshold <= 0:
            raise ValueError("large_threshold must be > 0")
        if not 0 <= compression_level <= 16:
            raise ValueError("compression_level must be in [0, 16]")
        self.limit_mbps = limit_mbps
        self.alpha = alpha
        self.beta = beta
        self.min_rate_hz = min_rate_hz
        self.bucket_capacity = bucket_capacity
        self.large_threshold = large_threshold
        self.compression_level = compression_level

    def to_obj(self) -> dict[str, Any]:
        return {f: getattr(self, f) for f in self.FIELDS}

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> "RateLimitConfig":
        base = cls().to_obj()
        unknown = set(obj) - set(base)
        if unknown:
            raise ValueError(f"unknown rate_limit keys: {sorted(unknown)}")
        base.update(obj)
        return cls(**base)


def allocate(cfg: RateLimitConfig,
             publishers: Mapping[str, tuple[float, int]]) -> tuple[dict[str, float], float]:
    """Run the two-phase allocation over one client's publishers,
    ``{topic: (advertised rate, max size)}``.

    A rate of 0 means unknown: unbounded demand, lowest priority. A size
    of 0 means unknown and counts as 1 byte. Returns ``({topic: allocated
    rate}, remaining bytes/s)``, the rates in allocation order; the
    remainder is negative when the large floor overcommits the budget.
    Deterministic: the result depends only on (cfg, publisher set),
    never on registration order.
    """
    b_avail = cfg.limit_mbps * BYTES_PER_MBIT
    b_rem = b_avail
    # standard before large, each in descending demand, ties by topic
    order = []
    for topic, (rate, size) in publishers.items():
        size = max(1, size)
        order.append((size >= cfg.large_threshold, -(rate * size * cfg.alpha), topic, rate, size))
    order.sort()
    rates: dict[str, float] = {}
    for large, _, topic, rate, size in order:
        s = size * cfg.alpha
        r_adv = rate if rate > 0 else math.inf
        r = min(r_adv, b_rem / s, cfg.beta * b_avail / s)
        r = max(r, 0.0)
        if large:
            floor = min(cfg.min_rate_hz, r_adv)
            if r < floor:
                r = floor
        b_rem -= r * s
        rates[topic] = r
    return rates, b_rem


class TokenBucket:
    """Continuous-refill token bucket in virtual time (ns)."""

    __slots__ = ("rate", "capacity", "tokens", "updated_at")

    def __init__(self, rate: float, capacity: float, now: int = 0):
        if rate < 0 or capacity < 1:
            raise ValueError("rate must be >= 0 and capacity >= 1")
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self.updated_at = now

    def _refill(self, now: int) -> None:
        if now > self.updated_at:
            self.tokens = min(self.capacity, self.tokens + self.rate * (now - self.updated_at) / 1e9)
        self.updated_at = now

    def try_acquire(self, now: int) -> bool:
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def set_rate(self, rate: float, now: int) -> None:
        """Change the refill rate, settling accrual first; tokens persist."""
        self._refill(now)
        self.rate = rate


class HierarchicalLimiter:
    """Allocator plus per-topic buckets for one client (node or layer).

    ``records`` maps each registered topic to its ``(rate, max size)``;
    it is the only copy of the client's registrations, and only
    registered topics are admitted. The engine keeps no copy of its own:
    it re-syncs a topic when the table's ``(rate, size)`` differs from
    the record. A record's max size can exceed the declared size, since
    live payloads grow it. Registration changes
    and size observations trigger a reallocation; buckets of retained
    topics keep their token balance across reallocations, new topics
    start with a full bucket.
    """

    def __init__(self, cfg: RateLimitConfig, clock, client: str, registry: MetricsRegistry):
        self.cfg = cfg
        self.clock = clock
        self.client = client
        self.registry = registry
        self.records: dict[str, tuple[float, int]] = {}
        self.buckets: dict[str, TokenBucket] = {}  # by topic, exactly those of records

    # -- registration ----------------------------------------------------

    def sync_publishers(self, topic: str, reg: tuple[float, int] | None) -> bool:
        """Register or update one topic's ``(rate, size)``, or unregister it
        when ``reg`` is None.

        The rate is replaced; the observed max size only grows while the
        topic stays registered. Returns True when a reallocation happened.
        """
        rec = self.records.get(topic)
        if reg is None:
            if rec is None:
                return False
            del self.records[topic]
            del self.buckets[topic]
        elif rec is None:
            self.records[topic] = reg
        else:
            rate, size = reg
            if rate == rec[0] and size <= rec[1]:
                return False
            self.records[topic] = (rate, max(rec[1], size))
        self._reallocate()
        return True

    def observe_size(self, topic: str, size: int) -> bool:
        """Grow a registered topic's max size from a live payload; True if
        reallocated."""
        rate, max_size = self.records[topic]
        if size > max_size:
            self.records[topic] = (rate, size)
            self._reallocate()
            return True
        return False

    def reconfigure(self, cfg: RateLimitConfig) -> None:
        if cfg != self.cfg:
            self.cfg = cfg
            self._reallocate()

    # -- admission ---------------------------------------------------------

    def try_acquire(self, topic: str) -> bool:
        granted = self.buckets[topic].try_acquire(self.clock.now)
        if not granted:
            self.registry.inc("ratelimit.denied", {"client": self.client, "topic": topic})
        return granted

    def _reallocate(self) -> None:
        now = self.clock.now
        rates, remaining = allocate(self.cfg, self.records)
        for topic, rate in rates.items():
            bucket = self.buckets.get(topic)
            if bucket is None:
                self.buckets[topic] = TokenBucket(rate, self.cfg.bucket_capacity, now)
            else:
                bucket.set_rate(rate, now)
        self.registry.inc("ratelimit.realloc", {"client": self.client})
        for topic, rate in rates.items():
            self.registry.observe("ratelimit.alloc_hz", {"client": self.client, "topic": topic}, rate)
        overcommit = max(0.0, -remaining)
        self.registry.observe("ratelimit.overcommit_bytes", {"client": self.client}, overcommit)
