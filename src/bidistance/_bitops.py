"""Vectorized helpers for words as uint64 arrays or 0/1 bit matrices."""

from __future__ import annotations

from typing import Sequence

import numpy as np

def popcount(a: np.ndarray) -> np.ndarray:
    """Per-element bit count of a uint64 array, as int64."""
    return np.bitwise_count(np.asarray(a, dtype=np.uint64)).astype(np.int64)


def bit_matrix(words: Sequence[int], n: int) -> np.ndarray:
    """(M, n) uint8 0/1 matrix of bitmask ints of any length n; column k
    holds bit k of each word."""
    size = (n + 7) // 8
    buf = b"".join(w.to_bytes(size, "little") for w in words)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(words), size)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def span_words(rows: Sequence[int], n: int) -> np.ndarray:
    """All 2^k XOR combinations of the given rows, as a uint64 array; n <= 64."""
    if n > 64:
        raise ValueError(f"packed arrays support lengths up to 64, got {n}")
    out = np.zeros(1, dtype=np.uint64)
    for r in rows:
        out = np.concatenate([out, out ^ np.uint64(r)])
    return out
