"""Vectorized helpers for words packed into unsigned 64-bit lanes."""

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


def pack_lanes(words: Sequence[int], n: int) -> np.ndarray:
    """Pack bitmask ints of any length n into an (M, ceil(n/64)) uint64
    array; lane k holds bits 64k to 64k + 63."""
    size = 8 * ((n + 63) // 64)
    buf = b"".join(w.to_bytes(size, "little") for w in words)
    return np.frombuffer(buf, dtype="<u8").reshape(len(words), -1)


def span_words(rows: Sequence[int], n: int) -> np.ndarray:
    """All 2^k XOR combinations of the given rows, as a uint64 array; n <= 64."""
    if n > 64:
        raise ValueError(f"packed arrays support lengths up to 64, got {n}")
    out = np.zeros(1, dtype=np.uint64)
    for r in rows:
        out = np.concatenate([out, out ^ np.uint64(r)])
    return out
