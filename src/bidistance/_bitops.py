"""Vectorized helpers for words as uint64 arrays or 0/1 bit matrices."""

from __future__ import annotations

from typing import Sequence

import numpy as np

_POP16 = None


def _pop16() -> np.ndarray:
    """16-bit popcount table, built on first use (64 KiB)."""
    global _POP16
    if _POP16 is None:
        vals = np.arange(1 << 16, dtype=np.uint32)
        table = np.zeros(1 << 16, dtype=np.uint8)
        for i in range(16):
            table += ((vals >> i) & 1).astype(np.uint8)
        _POP16 = table
    return _POP16


def popcount(a: np.ndarray) -> np.ndarray:
    """Per-element bit count of a uint64 array, as int64."""
    a = np.asarray(a, dtype=np.uint64)
    t = _pop16()
    m = np.uint64(0xFFFF)
    out = t[a & m].astype(np.int64)
    out += t[(a >> np.uint64(16)) & m]
    out += t[(a >> np.uint64(32)) & m]
    out += t[a >> np.uint64(48)]
    return out


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
