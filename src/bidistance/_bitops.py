"""Vectorized helpers for words as packed rows or 0/1 bit matrices.  A packed
row holds a length-n word in ceil(n/64) little-endian uint64 lanes,
coordinate i on bit i % 64 of lane i // 64."""

from __future__ import annotations

from itertools import combinations_with_replacement, repeat
from typing import Iterator, Sequence

import numpy as np

#: cells in one numpy block of every kernel; small blocks keep the peak memory low
BLOCK_CELLS = 1 << 14
#: lengths below which AndCounts counts exactly
MAX_LENGTH = 1 << 24


class CapExceeded(RuntimeError):
    """An exhaustive enumeration would exceed the configured size cap."""


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
    return unpack_rows(packed_rows(words, n), n)


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """(M, n) uint8 0/1 matrix of packed rows of length n."""
    return np.unpackbits(packed.view(np.uint8), axis=1, count=n, bitorder="little")


class AndCounts:
    """int32 c = wt(x & y) of 0/1 rows x against the M rows y of a fixed
    (M, n) 0/1 matrix ``bits``, from one float32 product.  Every term is 0 or
    1 and every partial sum an integer at most n, so float32 is exact for
    n < MAX_LENGTH in any BLAS summation order; ``of_words`` refuses a longer
    n before the bit matrix exists.  A block of ``rows`` rows, or a tile,
    holds at most BLOCK_CELLS cells."""

    def __init__(self, bits: np.ndarray):
        self.bits = bits
        self.weights = bits.sum(axis=1, dtype=np.int32)
        self.columns = np.ascontiguousarray(bits.T, dtype=np.float32)
        self.rows = max(1, BLOCK_CELLS // len(bits))

    @classmethod
    def of_words(cls, words, n: int) -> "AndCounts":
        """Counts against the bitmask ints ``words``, or a ``Code``'s kept packed rows."""
        if n >= MAX_LENGTH:
            raise CapExceeded(f"exact bit products need n < {MAX_LENGTH}, got {n}")
        return cls(unpack_rows(words.packed() if hasattr(words, "packed")
                               else packed_rows(words, n), n))

    def word_major(self, rows: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
        """int32 c of each word, or of the words in ``cols``, against each 0/1 row:
        (words, len(rows)), one row per word, from one contiguous product."""
        return (self.columns[:, cols].T @ rows.astype(np.float32).T).astype(np.int32)

    def upper_tiles(self) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """(rows, cols, c) over square BLOCK_CELLS tiles at and above the diagonal
        of the words against themselves, c the (rows, cols) view of a word-major
        tile (c is symmetric); at large M a row block holds a few rows yet rereads
        all M words, and a tile does not."""
        side = int(BLOCK_CELLS ** 0.5)
        for start, col in combinations_with_replacement(range(0, len(self.bits), side), 2):
            rows, cols = slice(start, start + side), slice(col, col + side)
            yield rows, cols, self.word_major(self.bits[rows], cols).T


def matrix_ints(bits: np.ndarray) -> list[int]:
    """The bitmask int of each row of a 0/1 bit matrix; the inverse of bit_matrix."""
    return [int.from_bytes(row, "little") for row in np.packbits(bits, 1, bitorder="little")]


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
