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

_MASK64 = (1 << 64) - 1
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Philox4x64 round multipliers and Weyl key increments (Random123).
_M0, _M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_CHUNK_WORDS = 1 << 14   # counter words per buffer in uniforms


def _check_int(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {type(value).__name__}")
    return int(value) & _MASK64


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for substream ``index`` of ``seed``."""
    key = np.array([_check_int(seed, "seed"), _check_int(index, "stream index")],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: np.uint64, x: np.ndarray, hi: np.ndarray, lo: np.ndarray,
             t0: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> None:
    """High and low 64-bit words of the 128-bit products m * x, written to
    hi and lo; t0..t2 are scratch buffers of x's shape."""
    m0, m1 = m & _LO32, m >> _32
    np.bitwise_and(x, _LO32, out=t0)          # x0
    np.right_shift(x, _32, out=t1)            # x1
    np.multiply(t1, m0, out=t2)               # p01 = m0 x1
    np.multiply(t1, m1, out=hi)               # m1 x1
    np.multiply(t0, m1, out=t1)               # p10 = m1 x0
    np.multiply(t0, m0, out=t0)
    t0 >>= _32                                # mid = (m0 x0 >> 32) + low halves of p01, p10
    t0 += np.bitwise_and(t2, _LO32, out=lo)
    t0 += np.bitwise_and(t1, _LO32, out=lo)
    hi += np.right_shift(t2, _32, out=t2)
    hi += np.right_shift(t1, _32, out=t1)
    hi += np.right_shift(t0, _32, out=t0)
    np.multiply(x, m, out=lo)


def uniforms(seed: int, indices, d: int) -> np.ndarray:
    """Row r is ``stream(seed, indices[r]).random(d)``, for all rows at once.

    Evaluates Philox4x64-10 on counter blocks 1..ceil(d/4) under the key
    (seed, index) of every row, and maps each word x to (x >> 11) * 2^-53,
    as numpy's Generator.random does.  Rows go through in chunks of about
    _CHUNK_WORDS counter words, in preallocated buffers.
    """
    seed = _check_int(seed, "seed")
    idx = np.asarray(indices).astype(np.uint64).reshape(-1, 1)
    blocks = -(-int(d) // 4)
    out = np.empty((len(idx), int(d)))
    rows = max(1, _CHUNK_WORDS // max(1, blocks))
    buf = np.empty((11, min(rows, len(idx)), blocks), dtype=np.uint64)
    words = np.empty((min(rows, len(idx)), blocks, 4), dtype=np.uint64)
    counter = np.arange(1, blocks + 1, dtype=np.uint64)
    for lo in range(0, len(idx), rows):
        hi = min(len(idx), lo + rows)
        c0, c1, c2, c3, h0, l0, h1, l1, t0, t1, t2 = buf[:, :hi - lo]
        c0[:] = counter
        c1[:] = c2[:] = c3[:] = 0
        for r in range(10):
            k0, k1 = np.uint64(seed + r * _W0 & _MASK64), idx[lo:hi] + np.uint64(r * _W1 & _MASK64)
            _mulhilo(_M0, c0, h0, l0, t0, t1, t2)
            _mulhilo(_M1, c2, h1, l1, t0, t1, t2)
            h1 ^= c1
            h1 ^= k0
            h0 ^= c3
            h0 ^= k1
            # The new state is (h1, l1, h0, l0); the old one's buffers take the next products.
            c0, c1, c2, c3, h0, l0, h1, l1 = h1, l1, h0, l0, c0, c1, c2, c3
        w = words[:hi - lo]
        w[..., 0], w[..., 1], w[..., 2], w[..., 3] = c0, c1, c2, c3
        w >>= np.uint64(11)
        np.multiply(w.reshape(hi - lo, 4 * blocks)[:, :d], 2.0 ** -53, out=out[lo:hi])
    return out
