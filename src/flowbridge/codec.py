"""Lossless payload codec used at inter-layer bridges.

Levels follow the 0..16 convention of fast block codecs (0 = store,
16 = max effort), mapped onto zlib's 0..9 internally. The compressed
blob is self-describing: decompress needs no level argument.
"""

from __future__ import annotations

import zlib

LEVEL_MIN = 0
LEVEL_MAX = 16

# level 0 stores; 1..16 spread over zlib 1..9 (default 10 -> zlib 6)
_ZLIB_LEVEL = (0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 6, 7, 7, 8, 8, 9)


class CodecError(ValueError):
    pass


def compress(payload: bytes, level: int) -> tuple[bytes, int]:
    """Compress payload; returns (blob, uncompressed length)."""
    if not isinstance(level, int) or not LEVEL_MIN <= level <= LEVEL_MAX:
        raise CodecError(f"level must be an int in [{LEVEL_MIN}, {LEVEL_MAX}], got {level!r}")
    return zlib.compress(payload, _ZLIB_LEVEL[level]), len(payload)


def decompress(blob: bytes) -> bytes:
    try:
        return zlib.decompress(blob)
    except zlib.error as exc:
        raise CodecError(f"corrupt compressed payload: {exc}") from None

