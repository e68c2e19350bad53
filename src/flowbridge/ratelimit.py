"""Two-tier hierarchical rate limiter for inter-layer traffic.

Tier one is a bandwidth allocator: the configured inter-layer budget

    B_avail = limit_mbps * 1024^2 / 8        [bytes/s]

is divided among the registered publishers of one client (a node or a
layer). Publishers whose observed max payload is below
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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Mapping

from .monitor import MetricsRegistry

BYTES_PER_MBIT = 1024 * 1024 / 8


@dataclass(frozen=True)
class RateLimitConfig:
    limit_mbps: float = 160.0
    alpha: float = 1.02
    beta: float = 0.95
    min_rate_hz: float = 2.0
    bucket_capacity: float = 2.0
    large_threshold: int = 65536
    compression_level: int = 10

    def __post_init__(self) -> None:
        if self.limit_mbps <= 0:
            raise ValueError("limit_mbps must be > 0")
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1 (headroom multiplier)")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.min_rate_hz <= 0:
            raise ValueError("min_rate_hz must be > 0")
        if self.bucket_capacity < 1:
            raise ValueError("bucket_capacity must be >= 1")
        if self.large_threshold <= 0:
            raise ValueError("large_threshold must be > 0")
        if not 0 <= self.compression_level <= 16:
            raise ValueError("compression_level must be in [0, 16]")

    def to_obj(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: Mapping[str, Any]) -> "RateLimitConfig":
        base = cls().to_obj()
        unknown = set(obj) - set(base)
        if unknown:
            raise ValueError(f"unknown rate_limit keys: {sorted(unknown)}")
        base.update(obj)
        return cls(**base)


def available_bandwidth(cfg: RateLimitConfig) -> float:
    """Inter-layer budget in bytes/s."""
    return cfg.limit_mbps * BYTES_PER_MBIT


@dataclass
class PublisherRecord:
    """One registered publisher: declared rate plus running max size.

    ``advertised_rate`` 0 means unknown (unbounded demand, lowest
    priority); ``max_size`` 0 means unknown (counted as 1 byte until
    ``observe_size`` raises it).
    """

    topic: str
    advertised_rate: float = 0.0
    max_size: int = 0

    def __post_init__(self) -> None:
        if not self.topic:
            raise ValueError("empty topic")
        if self.advertised_rate < 0 or self.max_size < 0:
            raise ValueError("advertised_rate/max_size must be >= 0")


@dataclass(frozen=True)
class PublisherAllocation:
    topic: str
    allocated_rate: float
    demand: float  # declared bytes/s including headroom: r_adv * s * alpha
    large: bool
    floored: bool = False


@dataclass(frozen=True)
class AllocationResult:
    allocations: dict[str, PublisherAllocation]
    available: float
    remaining: float  # bytes/s left after all grants; negative = overcommitted


def allocate(cfg: RateLimitConfig, publishers: Iterable[PublisherRecord]) -> AllocationResult:
    """Run the two-phase allocation over one client's publishers.

    Deterministic: the result depends only on (cfg, publisher set),
    never on registration order.
    """
    pubs = list(publishers)
    seen: set[str] = set()
    for p in pubs:
        if p.topic in seen:
            raise ValueError(f"duplicate publisher topic {p.topic!r}")
        seen.add(p.topic)

    b_avail = available_bandwidth(cfg)
    b_rem = b_avail
    allocations: dict[str, PublisherAllocation] = {}

    def size_of(p: PublisherRecord) -> int:
        return max(1, p.max_size)

    def demand_of(p: PublisherRecord) -> float:
        return p.advertised_rate * size_of(p) * cfg.alpha

    standard = [p for p in pubs if size_of(p) < cfg.large_threshold]
    large = [p for p in pubs if size_of(p) >= cfg.large_threshold]

    for group, is_large in ((standard, False), (large, True)):
        group.sort(key=lambda p: (-demand_of(p), p.topic))
        for p in group:
            s = size_of(p) * cfg.alpha
            r_adv = p.advertised_rate if p.advertised_rate > 0 else math.inf
            r = min(r_adv, b_rem / s, cfg.beta * b_avail / s)
            r = max(r, 0.0)
            floored = False
            if is_large:
                floor = min(cfg.min_rate_hz, r_adv)
                if r < floor:
                    r = floor
                    floored = True
            b_rem -= r * s
            allocations[p.topic] = PublisherAllocation(
                topic=p.topic,
                allocated_rate=r,
                demand=demand_of(p),
                large=is_large,
                floored=floored,
            )
    return AllocationResult(allocations, b_avail, b_rem)


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

    ``records`` is the only per-client copy of the registrations, and
    only registered topics are admitted. The engine keeps the declared
    ``(rate, size)`` per topic; a record's ``max_size`` can exceed the
    declared size, since live payloads grow it. Registration changes
    and size observations trigger a reallocation; buckets of retained
    topics keep their token balance across reallocations, new topics
    start with a full bucket.
    """

    def __init__(self, cfg: RateLimitConfig, clock, client: str, registry: MetricsRegistry):
        self.cfg = cfg
        self.clock = clock
        self.client = client
        self.registry = registry
        self.records: dict[str, PublisherRecord] = {}
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
            self.records[topic] = PublisherRecord(topic, *reg)
        else:
            rate, size = reg
            if rate == rec.advertised_rate and size <= rec.max_size:
                return False
            rec.advertised_rate = rate
            rec.max_size = max(rec.max_size, size)
        self._reallocate()
        return True

    def observe_size(self, topic: str, size: int) -> bool:
        """Grow a registered topic's max size from a live payload; True if
        reallocated."""
        rec = self.records[topic]
        if size > rec.max_size:
            rec.max_size = size
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
        result = allocate(self.cfg, self.records.values())
        for topic, alloc in result.allocations.items():
            bucket = self.buckets.get(topic)
            if bucket is None:
                self.buckets[topic] = TokenBucket(alloc.allocated_rate, self.cfg.bucket_capacity, now)
            else:
                bucket.set_rate(alloc.allocated_rate, now)
        self.registry.inc("ratelimit.realloc", {"client": self.client})
        for topic, alloc in result.allocations.items():
            self.registry.observe("ratelimit.alloc_hz", {"client": self.client, "topic": topic},
                                  alloc.allocated_rate)
        overcommit = max(0.0, -result.remaining)
        self.registry.observe("ratelimit.overcommit_bytes", {"client": self.client}, overcommit)
