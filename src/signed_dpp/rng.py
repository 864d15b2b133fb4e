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


def _check_int(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {type(value).__name__}")
    return int(value) & _MASK64


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the Philox generator for substream ``index`` of ``seed``."""
    key = np.array([_check_int(seed, "seed"), _check_int(index, "stream index")],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x."""
    m0, m1, x0, x1 = m & _LO32, m >> _32, x & _LO32, x >> _32
    p01, p10 = m0 * x1, m1 * x0
    mid = (m0 * x0 >> _32) + (p01 & _LO32) + (p10 & _LO32)
    return m1 * x1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32), m * x


def uniforms(seed: int, indices, d: int) -> np.ndarray:
    """Row r is ``stream(seed, indices[r]).random(d)``, for all rows at once.

    Evaluates Philox4x64-10 on counter blocks 1..ceil(d/4) under the key
    (seed, index) of every row, and maps each word x to (x >> 11) * 2^-53,
    as numpy's Generator.random does.
    """
    seed = _check_int(seed, "seed")
    idx = np.asarray(indices).astype(np.uint64).reshape(-1, 1)
    blocks = -(-int(d) // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros((len(idx), blocks), dtype=np.uint64)
    for r in range(10):
        k0, k1 = np.uint64(seed + r * _W0 & _MASK64), idx + np.uint64(r * _W1 & _MASK64)
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(idx), 4 * blocks)[:, :d]
    return (words >> np.uint64(11)) * 2.0 ** -53
