"""Seedable random streams.

All randomness in the package flows through counter-based Philox4x64-10
generators keyed by ``(seed, stream)``.  Stream k of a batch job is fully
determined by the user seed and the sample index, so a batch can be
drawn in any order, or all at once, and still match the one-at-a-time
output byte for byte.  ``uniforms`` evaluates the first draws of many
streams as whole arrays (Salmon et al. 2011, "Parallel random numbers:
as easy as 1, 2, 3").
"""

from __future__ import annotations

import numpy as np

from .errors import SamplingError

_MASK64 = (1 << 64) - 1
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Philox4x64 round multipliers and Weyl key increments (Random123).
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_CHUNK_WORDS = 1 << 14   # counter words per buffer in uniforms


def _check_int(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {type(value).__name__}")
    return int(value) & _MASK64


def _check_count(value, what: str) -> int:
    """A count as an int: TypeError unless it is an integer, SamplingError
    when it is negative."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise SamplingError(f"{what} must be nonnegative, got {value}")
    return int(value)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for substream ``index`` of ``seed``."""
    key = np.array([_check_int(seed, "seed"), _check_int(index, "stream index")],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: int, x: np.ndarray, hi: np.ndarray | None, lo: np.ndarray | None,
             t0: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> None:
    """High and low 64-bit words of the 128-bit products m * x (Hacker's
    Delight's mulhu), written to hi and lo; a word whose buffer is None is
    not made.  t0..t2 are scratch of x's shape."""
    if hi is not None:
        m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
        np.bitwise_and(x, _LO32, out=t0)          # x0
        np.right_shift(x, _32, out=t1)            # x1
        np.multiply(t0, m0, out=t2)
        t2 >>= _32
        np.multiply(t1, m0, out=hi)
        hi += t2                                  # u = x1 m0 + (x0 m0 >> 32)
        np.multiply(t0, m1, out=t0)
        t0 += np.bitwise_and(hi, _LO32, out=t2)   # v = x0 m1 + (u & LO)
        np.right_shift(hi, _32, out=t2)
        np.multiply(t1, m1, out=hi)
        hi += t2
        hi += np.right_shift(t0, _32, out=t0)     # x1 m1 + (u >> 32) + (v >> 32)
    if lo is not None:
        np.multiply(x, np.uint64(m), out=lo)


def uniforms(seed: int, indices, d: int) -> np.ndarray:
    """Row r is ``stream(seed, indices[r]).random(d)``, for all rows at once;
    indices are integers, and negative ones wrap mod 2^64 as in ``stream``.

    Evaluates Philox4x64-10 on counter blocks 1..ceil(d/4) under the key
    (seed, index) of every row, and maps each word x to (x >> 11) * 2^-53,
    as numpy's Generator.random does.  Rounds 0 and 1 are folded, so only
    round 1's M1 product runs over rows.  Rounds 2..9 make only the words
    a draw reads: for d <= 2 that leaves out round 9's M0 product, round
    8's M1 high word and the low words of round 7's M1 and round 8's M0
    (and for d = 1 the low word of round 9's M1).  The round key
    index + r W1 is held for every block and stepped in place, so no xor
    broadcasts a column over the blocks.  Rows go through in chunks of
    about _CHUNK_WORDS counter words, in preallocated buffers, and each
    draw is written straight into an item-major (d, len(indices)) array:
    the result is its transpose, a view whose columns are contiguous.
    """
    seed = _check_int(seed, "seed")
    d = _check_count(d, "draws per row")
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise TypeError(f"stream indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.uint64).reshape(-1)
    blocks = -(-d // 4)
    out = np.empty((d, len(idx)))
    rows = max(1, min(len(idx), _CHUNK_WORDS // max(1, blocks)))
    buf = np.empty((12, blocks * rows), dtype=np.uint64)    # 11 state and scratch arrays, the key
    # keep[r - 2]: the words of round r's output that a draw reads, by way of
    # later rounds.  Output words 0..3 of a round read its input words
    # (1, 2), (2,), (0, 3) and (0,): e.g. word 0 is hi(M1 x2) ^ x1 ^ k0.
    keep = [set(range(4 if blocks > 1 else d))]
    for _ in range(2, 9):
        keep.insert(0, {x for w in keep[0] for x in ((1, 2), (2,), (0, 3), (0,))[w]})
    # Round 0 leaves (seed, 0, hi(M0 b) ^ index, lo(M0 b)) for block b; round 1
    # leaves (hi(M1 c2) ^ k0, lo(M1 c2), hi(M0 seed) ^ lo(M0 b) ^ k1, lo(M0 seed)).
    block_hi, block_lo = np.array([divmod(_M0 * b, 1 << 64) for b in range(1, blocks + 1)],
                                  dtype=np.uint64).reshape(blocks, 2, 1).transpose(1, 0, 2)
    seed_hi, seed_lo = divmod(_M0 * seed, 1 << 64)
    block_lo ^= np.uint64(seed_hi)
    for lo in range(0, len(idx), rows):
        hi = min(len(idx), lo + rows)
        # Contiguous (blocks, rows) arrays: numpy runs strided 2-d ones several times slower.
        c0, c1, c2, c3, h0, l0, h1, l1, t0, t1, t2, k1 = buf[:, :blocks * (hi - lo)].reshape(
            12, blocks, hi - lo)
        ix = idx[lo:hi]
        np.bitwise_xor(ix, block_hi, out=c2)
        _mulhilo(_M1, c2, c0, c1, t0, t1, t2)
        c0 ^= np.uint64(seed + _W0 & _MASK64)
        np.bitwise_xor(np.add(ix, np.uint64(_W1), out=k1), block_lo, out=c2)
        c3.fill(seed_lo)
        for r, made in enumerate(keep, start=2):
            if made & {0, 1}:
                _mulhilo(_M1, c2, h1 if 0 in made else None, l1 if 1 in made else None,
                         t0, t1, t2)
            if 0 in made:
                h1 ^= c1
                h1 ^= np.uint64(seed + r * _W0 & _MASK64)
            if made & {2, 3}:
                _mulhilo(_M0, c0, h0 if 2 in made else None, l0 if 3 in made else None,
                         t0, t1, t2)
            # Word 2 is made in every round but, for d <= 2, the last: the key steps each round.
            if 2 in made:
                h0 ^= c3
                h0 ^= np.add(k1, np.uint64(_W1), out=k1)     # index + r W1, in every block
            # The new state is (h1, l1, h0, l0); the old one's buffers take the next products.
            c0, c1, c2, c3, h0, l0, h1, l1 = h1, l1, h0, l0, c0, c1, c2, c3
        words = (c0, c1, c2, c3)[:d]
        for word in words:
            word >>= np.uint64(11)
        for j in range(d):
            np.multiply(words[j % 4][j // 4], 2.0 ** -53, out=out[j, lo:hi])
    return out.T
