"""Vectorized helpers for words as packed rows or 0/1 bit matrices.  A packed
row holds a length-n word in ceil(n/64) little-endian uint64 lanes,
coordinate i on bit i % 64 of lane i // 64."""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

import numpy as np


def popcount(a: np.ndarray) -> np.ndarray:
    """Per-element bit count of a uint64 array, as int64."""
    return np.bitwise_count(np.asarray(a, dtype=np.uint64)).astype(np.int64)


def packed_rows(words: Sequence[int], n: int) -> np.ndarray:
    """(M, ceil(n/64)) packed rows of bitmask ints of length n."""
    size = 8 * -(-n // 64)
    buf = b"".join(map(int.to_bytes, words, repeat(size), repeat("little")))
    return np.frombuffer(buf, dtype="<u8").reshape(len(words), size // 8)


def row_ints(packed: np.ndarray) -> list[int]:
    """The bitmask int of each packed row."""
    out = packed[:, -1].tolist()
    for j in range(packed.shape[1] - 2, -1, -1):
        out = [hi << 64 | lo for hi, lo in zip(out, packed[:, j].tolist())]
    return out


def bit_matrix(words: Sequence[int], n: int) -> np.ndarray:
    """(M, n) uint8 0/1 matrix of bitmask ints of any length n; column k
    holds bit k of each word."""
    return np.unpackbits(packed_rows(words, n).view(np.uint8), axis=1, count=n,
                         bitorder="little")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Packed rows of a 0/1 bit matrix; the inverse of bit_matrix."""
    m, n = bits.shape
    padded = np.zeros((m, 64 * -(-n // 64)), dtype=np.uint8)
    padded[:, :n] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def span_words(rows: Sequence[int], n: int) -> np.ndarray:
    """All 2^k XOR combinations of the given rows as packed rows; row i
    combines the rows on the set bits of i."""
    out = np.zeros((1, -(-n // 64)), dtype="<u8")
    for r in packed_rows(rows, n):
        out = np.concatenate([out, out ^ r])
    return out


def row_reduce(packed: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_2 of packed rows: (the nonzero rows,
    their pivot columns).  One numpy pass per column swaps up the first row
    at or below the rank with a one there and XORs it into every other row
    with a one; ascending pivots make the result canonical for the span."""
    work = np.array(packed, dtype="<u8")
    pivots: list[int] = []
    for col in range(n):
        rank = len(pivots)
        if rank == len(work):
            break
        holds = (work[:, col >> 6] & np.uint64(1 << (col & 63))) != 0
        first = rank + int(holds[rank:].argmax())
        if not holds[first]:
            continue
        work[[rank, first]] = work[[first, rank]]
        holds[first], holds[rank] = holds[rank], False
        work ^= work[rank] * holds[:, None]
        pivots.append(col)
    return work[:len(pivots)], pivots
