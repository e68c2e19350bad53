"""Unit tests for the payload codec."""

import pytest

from flowbridge.codec import (
    LEVEL_MAX,
    LEVEL_MIN,
    CodecError,
    compress,
    decompress,
)
from oracles import synthetic_corpus


def test_round_trip_every_level():
    payload = synthetic_corpus(64 * 1024)
    for level in range(LEVEL_MIN, LEVEL_MAX + 1):
        blob, orig_len = compress(payload, level)
        assert orig_len == len(payload)
        assert decompress(blob) == payload


def test_round_trip_edge_payloads():
    for payload in (b"", b"\x00", bytes(range(256)) * 100):
        blob, _ = compress(payload, 10)
        assert decompress(blob) == payload


def test_level_zero_stores():
    payload = synthetic_corpus(4096)
    blob, _ = compress(payload, 0)
    # stored blocks carry only framing overhead
    assert len(blob) >= len(payload)
    assert len(blob) < len(payload) + 64
    assert decompress(blob) == payload


def test_higher_levels_do_not_inflate():
    payload = synthetic_corpus(128 * 1024)
    size1 = len(compress(payload, 1)[0])
    size16 = len(compress(payload, 16)[0])
    assert size16 <= size1 < len(payload)


def test_default_level_saves_substantially():
    payload = synthetic_corpus()
    blob, _ = compress(payload, 10)
    assert len(blob) <= 0.6 * len(payload)


def test_level_validation():
    for bad in (-1, 17, 1.5, "6", None):
        with pytest.raises(CodecError):
            compress(b"x", bad)


def test_corrupt_blob_rejected():
    blob, _ = compress(b"hello world", 10)
    with pytest.raises(CodecError):
        decompress(blob[:-2] + b"zz")
    with pytest.raises(CodecError):
        decompress(b"not a blob")


def test_corpus_is_deterministic():
    assert synthetic_corpus(1024) == synthetic_corpus(1024)
    assert synthetic_corpus(1024) != synthetic_corpus(1024, seed=99)
    assert len(synthetic_corpus(12345)) == 12345


def test_incompressible_data_costs_little():
    import random

    payload = random.Random(0).randbytes(64 * 1024)
    blob, _ = compress(payload, 10)
    assert len(blob) < len(payload) * 1.01
    assert decompress(blob) == payload
