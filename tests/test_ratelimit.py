"""Unit tests for the two-tier rate limiter against an independent oracle."""

import math

import pytest

from flowbridge.ratelimit import (
    BYTES_PER_MBIT,
    HierarchicalLimiter,
    RateLimitConfig,
    TokenBucket,
    allocate,
)
from flowbridge.configstore import ConfigError, resolve_layer_config
from flowbridge.monitor import MetricsRegistry
from flowbridge.simnet import SECOND, SimClock

from oracles import oracle_allocate, oracle_bucket_replay, oracle_single_large_rate


def regs(pubs):
    return {t: (r, s) for t, r, s in pubs}


def assert_rates_match(rates: dict[str, float], expect: dict[str, float]):
    # the same float operations in the same order: equal values, equal order
    assert list(rates.items()) == list(expect.items())


# -- config ---------------------------------------------------------------


def test_config_defaults():
    cfg = RateLimitConfig()
    assert cfg.limit_mbps == 160.0
    assert cfg.alpha == 1.02
    assert cfg.beta == 0.95
    assert cfg.min_rate_hz == 2.0
    assert cfg.bucket_capacity == 2.0
    assert cfg.large_threshold == 65536
    assert cfg.compression_level == 10


def rate_limit(**fields):
    """The `RateLimitConfig` a layer config document with ``fields`` reads as."""
    return RateLimitConfig(**resolve_layer_config({"rate_limit": fields})["rate_limit"])


def test_config_validation():
    # each bound itself is accepted
    cfg = rate_limit(limit_mbps=5e-324, alpha=1.0, beta=1.0, bucket_capacity=1.0,
                     large_threshold=1, compression_level=0)
    assert (cfg.alpha, cfg.beta, cfg.compression_level) == (1.0, 1.0, 0)
    assert rate_limit(compression_level=16).compression_level == 16


# the values the constructor once refused, now refused by the document reader
@pytest.mark.parametrize("fields", [
    {"limit_mbps": 0}, {"alpha": 0.9}, {"beta": 0}, {"bucket_capacity": 0.5},
    {"compression_level": 17}, {"burst": 3},
], ids=["limit-0", "alpha-below-1", "beta-0", "capacity-below-1", "level-17", "unknown-key"])
def test_config_document_rejects(fields):
    with pytest.raises(ConfigError, match=rf"rate_limit(\.{next(iter(fields))} must|: unknown)"):
        rate_limit(**fields)


def test_config_obj_round_trip():
    cfg = RateLimitConfig(limit_mbps=80.0, compression_level=3)
    assert rate_limit(limit_mbps=80.0, compression_level=3) == cfg
    assert rate_limit(limit_mbps=40.0).alpha == 1.02
    assert rate_limit() == RateLimitConfig()


# -- allocator vs oracle ----------------------------------------------------


def test_single_small_publisher_gets_full_rate():
    cfg = RateLimitConfig()
    rates, remaining = allocate(cfg, regs([("scan", 30.0, 1024)]))
    assert_rates_match(rates, oracle_allocate(160.0, [("scan", 30.0, 1024)]))
    assert 1024 < cfg.large_threshold
    assert rates["scan"] == 30.0
    assert remaining > 0


def test_single_large_publisher_beta_cap():
    # one 1 MB talker with unbounded demand: rate = beta * budget / (size * alpha)
    cfg = RateLimitConfig()
    rates, remaining = allocate(cfg, regs([("image", 0.0, 1_000_000)]))
    want = oracle_single_large_rate(160.0, 1_000_000, math.inf)
    assert 1_000_000 >= cfg.large_threshold
    assert rates["image"] == pytest.approx(want, rel=1e-12)
    assert rates["image"] == pytest.approx(19.532298, abs=1e-6)
    assert remaining > 0  # above its floor: nothing overcommitted


def test_large_single_rate_matches_known_value():
    # the headline single-large admission rate under the 160 Mbit/s default
    want = 0.95 * (160 * 1024 * 1024 / 8) / (1_000_000 * 1.02)
    assert oracle_single_large_rate(160.0, 1_000_000, math.inf) == pytest.approx(want)
    assert abs(want - 19.5318) <= 1e-3


def test_standard_phase_before_large_phase():
    pubs = [("image", 10.0, 100_000), ("scan", 10.0, 1000)]
    rates, _ = allocate(RateLimitConfig(limit_mbps=8.0), regs(pubs))
    assert_rates_match(rates, oracle_allocate(8.0, pubs))
    # the small topic got its full rate; the large one ate what remained
    assert list(rates) == ["scan", "image"]
    assert rates["scan"] == 10.0
    assert rates["image"] < 10.0


def test_priority_is_descending_demand_then_topic():
    # equal demand ties break by topic name, independent of input order
    pubs = [("b", 10.0, 1000), ("a", 10.0, 1000), ("c", 20.0, 500)]
    rates1, _ = allocate(RateLimitConfig(limit_mbps=0.1), regs(pubs))
    rates2, _ = allocate(RateLimitConfig(limit_mbps=0.1), regs(reversed(pubs)))
    want = oracle_allocate(0.1, pubs)
    assert_rates_match(rates1, want)
    assert_rates_match(rates2, want)
    # all three demand 10200 B/s of a 13107.2 B/s budget: a, then b, then c
    assert list(rates1) == ["a", "b", "c"]
    assert rates1["a"] > rates1["b"] > rates1["c"]


def test_unknown_rate_sorts_last_and_takes_remainder():
    pubs = [("known", 5.0, 1000), ("mystery", 0.0, 1000)]
    for order in (pubs, pubs[::-1]):
        rates, _ = allocate(RateLimitConfig(limit_mbps=0.1), regs(order))
        assert_rates_match(rates, oracle_allocate(0.1, pubs))
        assert list(rates) == ["known", "mystery"]  # allocated last
        assert rates["known"] == 5.0


def test_zero_size_counts_as_one_byte():
    rates, remaining = allocate(RateLimitConfig(), regs([("tiny", 100.0, 0)]))
    assert_rates_match(rates, oracle_allocate(160.0, [("tiny", 100.0, 0)]))
    assert rates["tiny"] == 100.0
    assert remaining == 160 * BYTES_PER_MBIT - 100.0 * 1 * 1.02


def test_large_floor_grants_minimum_rate():
    # a saturating small publisher leaves nothing; large still gets the floor
    pubs = [("hog", 0.0, 1000), ("image", 30.0, 1_000_000)]
    cfg = RateLimitConfig(limit_mbps=8.0)
    rates, remaining = allocate(cfg, regs(pubs))
    assert_rates_match(rates, oracle_allocate(8.0, pubs))
    assert 1_000_000 >= cfg.large_threshold
    assert rates["image"] == cfg.min_rate_hz == 2.0
    assert remaining < 0  # the floor overcommitted and said so


def test_a_publisher_of_exactly_the_large_threshold_is_large():
    cfg = RateLimitConfig(limit_mbps=8.0)
    pubs = [("hog", 0.0, 1000), ("frame", 30.0, cfg.large_threshold)]
    rates, _ = allocate(cfg, regs(pubs))
    assert_rates_match(rates, oracle_allocate(8.0, pubs))
    # allocated after the standard phase, and lifted to the large floor
    assert list(rates) == ["hog", "frame"]
    assert rates["frame"] == cfg.min_rate_hz


def test_floor_never_exceeds_advertised_rate():
    pubs = [("hog", 0.0, 1000), ("image", 0.5, 1_000_000)]
    rates, remaining = allocate(RateLimitConfig(limit_mbps=8.0), regs(pubs))
    assert rates["image"] == 0.5
    assert remaining < 0  # lifted to its floor, which overcommitted


def test_available_bandwidth_unit():
    # the budget is limit_mbps in binary megabits, counted in bytes/s
    assert BYTES_PER_MBIT == 131072.0
    _, remaining = allocate(RateLimitConfig(limit_mbps=160.0), {})
    assert remaining == 160 * 1024 * 1024 / 8
    _, remaining = allocate(RateLimitConfig(limit_mbps=8.0), {})
    assert remaining == 8 * BYTES_PER_MBIT


def test_empty_allocation():
    # nothing registered allocates nothing and leaves the whole budget
    assert allocate(RateLimitConfig(), {}) == ({}, 160 * BYTES_PER_MBIT)


def test_oracle_agreement_on_mixed_workload():
    pubs = [
        ("encoder_odom", 49.71, 720),
        ("imu", 49.17, 320),
        ("/tf", 24.65, 560),
        ("scan", 4.56, 73728),
        ("camera/image", 30.0, 1_000_000),
        ("pose", 1.09, 360),
        ("mystery", 0.0, 4096),
    ]
    for mbps in (0.5, 2.0, 8.0, 40.0, 160.0, 1000.0):
        rates, _ = allocate(RateLimitConfig(limit_mbps=mbps), regs(pubs))
        assert_rates_match(rates, oracle_allocate(mbps, pubs))


# -- token bucket ------------------------------------------------------------


def test_bucket_starts_full():
    b = TokenBucket(rate=1.0, capacity=2.0)
    assert b.try_acquire(0)
    assert b.try_acquire(0)
    assert not b.try_acquire(0)


def test_bucket_refills_at_rate():
    b = TokenBucket(rate=10.0, capacity=2.0)
    b.try_acquire(0), b.try_acquire(0)
    assert not b.try_acquire(0)
    # 10 Hz: one token back after 100 ms
    assert not b.try_acquire(99 * 10**6)
    assert b.try_acquire(100 * 10**6)


def test_bucket_capacity_caps_accrual():
    b = TokenBucket(rate=100.0, capacity=2.0)
    # after a long idle stretch only capacity tokens are available
    grants = sum(b.try_acquire(10 * SECOND) for _ in range(10))
    assert grants == 2


def test_bucket_zero_rate_never_refills():
    b = TokenBucket(rate=0.0, capacity=2.0)
    assert b.try_acquire(0) and b.try_acquire(0)
    assert not b.try_acquire(100 * SECOND)


def test_bucket_set_rate_settles_accrual():
    b = TokenBucket(rate=10.0, capacity=5.0)
    for _ in range(5):
        assert b.try_acquire(0)
    # 100 ms at 10 Hz accrues 1 token, then refill stops
    b.set_rate(0.0, 100 * 10**6)
    assert b.try_acquire(100 * 10**6)
    assert not b.try_acquire(200 * SECOND)


def test_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate=-1.0, capacity=2.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, capacity=0.0)


def test_bucket_replay_matches_oracle():
    times = [0, 0, 0, 50, 100, 120, 200, 500, 501, 502, 10_000]
    times_ns = [t * 10**6 for t in times]
    b = TokenBucket(rate=10.0, capacity=2.0)
    got = [b.try_acquire(t) for t in times_ns]
    assert got == oracle_bucket_replay(10.0, 2.0, times_ns)


def test_uniform_stream_grant_rate_converges():
    # 30 Hz offered against a 19.532298 Hz allocation for 10 s
    rate = oracle_single_large_rate(160.0, 1_000_000, math.inf)
    b = TokenBucket(rate=rate, capacity=2.0)
    period = SECOND // 30
    grants = sum(b.try_acquire(i * period) for i in range(300))
    # capacity burst of 2 plus ~19.53/s x 10 s
    assert grants == pytest.approx(2 + rate * (299 * period) / SECOND, abs=2)


# -- hierarchical limiter ------------------------------------------------------


def make_limiter(cfg=None):
    clock = SimClock()
    lim = HierarchicalLimiter(cfg or RateLimitConfig(), clock, "node:robot-1",
                              MetricsRegistry(clock))
    return lim, clock


def test_limiter_register_and_acquire():
    lim, clock = make_limiter()
    lim.sync_publishers("scan", (30.0, 1024))
    assert lim.buckets["scan"].rate == 30.0
    assert lim.try_acquire("scan")


def test_limiter_admits_only_registered_topics():
    lim, _ = make_limiter()
    with pytest.raises(KeyError):
        lim.try_acquire("surprise")
    with pytest.raises(KeyError):
        lim.observe_size("surprise", 100)
    assert lim.records == {} and lim.buckets == {}


def test_limiter_denial_after_burst():
    lim, clock = make_limiter(RateLimitConfig(limit_mbps=8.0))
    lim.sync_publishers("image", (0.0, 1_000_000))  # floored to 2 Hz
    assert lim.try_acquire("image")
    assert lim.try_acquire("image")
    assert not lim.try_acquire("image")  # bucket empty, frame dropped


def test_limiter_sync_publishers_reconciles():
    lim, _ = make_limiter()
    assert lim.sync_publishers("a", (5.0, 100))
    assert lim.sync_publishers("b", (1.0, 50))
    assert set(lim.records) == {"a", "b"}
    assert set(lim.buckets) == {"a", "b"}
    # no-op sync reports no change
    assert not lim.sync_publishers("a", (5.0, 100))
    assert not lim.sync_publishers("b", (1.0, 50))
    # a new rate is a change
    assert lim.sync_publishers("b", (2.0, 50))
    assert lim.records["b"] == (2.0, 50)
    # removal drops both record and bucket
    assert lim.sync_publishers("b", None)
    assert set(lim.records) == {"a"}
    assert set(lim.buckets) == {"a"}
    # removing what is not registered is no change
    assert not lim.sync_publishers("b", None)


def test_limiter_max_size_never_shrinks():
    lim, _ = make_limiter()
    lim.sync_publishers("a", (5.0, 1000))
    assert not lim.sync_publishers("a", (5.0, 10))
    assert lim.records["a"] == (5.0, 1000)


def test_limiter_observe_size_grows_and_reallocates():
    lim, _ = make_limiter(RateLimitConfig(limit_mbps=8.0))
    lim.sync_publishers("image", (30.0, 1000))
    assert lim.buckets["image"].rate == 30.0
    assert lim.observe_size("image", 1_000_000)
    assert lim.records["image"] == (30.0, 1_000_000)
    assert 1_000_000 >= lim.cfg.large_threshold
    assert lim.buckets["image"].rate == oracle_allocate(8.0, [("image", 30.0, 1_000_000)])["image"]
    assert not lim.observe_size("image", 500)  # smaller: no change


def test_limiter_tokens_persist_across_reallocation():
    lim, _ = make_limiter()
    lim.sync_publishers("a", (10.0, 100))
    assert lim.try_acquire("a") and lim.try_acquire("a")
    # registering another topic reallocates but must not refill a's bucket
    assert lim.sync_publishers("b", (10.0, 100))
    assert not lim.try_acquire("a")
    assert lim.try_acquire("b")


def test_limiter_reconfigure_changes_rates():
    lim, _ = make_limiter()
    lim.sync_publishers("image", (0.0, 1_000_000))
    r160 = lim.buckets["image"].rate
    lim.reconfigure(RateLimitConfig(limit_mbps=80.0))
    r80 = lim.buckets["image"].rate
    assert r80 == pytest.approx(r160 / 2)
    assert r80 == pytest.approx(oracle_single_large_rate(80.0, 1_000_000, math.inf), rel=1e-12)


def test_limiter_registration_order_is_irrelevant():
    pubs = {"a": (5.0, 100), "b": (9.0, 2000), "c": (0.0, 70000)}
    lim1, _ = make_limiter()
    lim2, _ = make_limiter()
    for lim, order in ((lim1, "abc"), (lim2, "cba")):
        for t in order:  # one topic at a time, each sync a reallocation
            assert lim.sync_publishers(t, pubs[t])
    assert {t: b.rate for t, b in lim1.buckets.items()} == {
        t: b.rate for t, b in lim2.buckets.items()}
