"""Reference checks, computed apart from the program under test.

Each check takes plain numpy arrays and dicts, so it reads the program's
outputs only through their documented formats.  Subsets are sorted
tuples of 1-based indices, as in the program's minor lists.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

CONJUGATION_TOL = 1e-9
MINOR_RTOL = 1e-10
MINOR_ATOL = 1e-14
Z = 6.0   # per-minor false-alarm rate below 2e-9


def subsets(n: int, max_order: int) -> list[tuple[int, ...]]:
    """Nonempty subsets of {1..n} with at most ``max_order`` items."""
    return [tuple(i + 1 for i in c)
            for r in range(1, max_order + 1)
            for c in itertools.combinations(range(n), r)]


def principal_minors(mat: np.ndarray, subs: list[tuple[int, ...]]) -> dict:
    """det(K_J) for each J, by numpy.linalg.det on stacks of one order."""
    out = {}
    by_order: dict[int, list[tuple[int, ...]]] = {}
    for s in subs:
        by_order.setdefault(len(s), []).append(s)
    for r, group in by_order.items():
        idx = np.array(group) - 1
        stack = mat[idx[:, :, None], idx[:, None, :]]
        out.update(zip(group, np.linalg.det(stack).tolist()))
    return out


def minor_errors(minors: dict, truth: dict) -> list[tuple[int, ...]]:
    """Subsets whose listed minor differs from the truth, or is missing."""
    bad = []
    for s, want in truth.items():
        got = minors.get(s)
        if got is None or abs(got - want) > MINOR_ATOL + MINOR_RTOL * abs(want):
            bad.append(s)
    return bad


def conjugation_distance(h: np.ndarray, k: np.ndarray) -> float:
    """min over ±1 diagonals D and over {K, K^T} of max |H - D K D|.

    D is fitted from the first row (every entry of a dense kernel is
    nonzero), so a single flipped entry elsewhere cannot be absorbed.
    """
    best = math.inf
    for ref in (k, k.T):
        d = np.sign(h[0] / ref[0])
        d[0] = 1.0
        best = min(best, float(np.max(np.abs(h - d[:, None] * ref * d[None, :]))))
    return best


def sign_bits(mat: np.ndarray, pairs) -> int:
    """Upper-triangle sign pattern over ``pairs`` (bit t set: negative)."""
    return sum(1 << t for t, (i, j) in enumerate(pairs) if mat[i - 1, j - 1] < 0)


def in_span(vec: int, basis) -> bool:
    """Whether ``vec`` is a GF(2) combination of the bit vectors ``basis``."""
    pivots: dict[int, int] = {}
    for row in basis:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    while vec:
        top = vec.bit_length() - 1
        if top not in pivots:
            return False
        vec ^= pivots[top]
    return True


def truth_in_coset(k: np.ndarray, particular: int, basis, pairs) -> bool:
    """The true sign pattern (or its transpose's) lies in particular + span."""
    return any(in_span(sign_bits(ref, pairs) ^ particular, basis) for ref in (k, k.T))


def z_violations(estimates: dict, truth: dict, count: int, z: float = Z) -> list:
    """Subsets whose frequency lies outside the binomial z-bound of the truth.

    The bound is z sqrt(p (1 - p) / count) plus one count of slack for
    the discreteness of a frequency.
    """
    bad = []
    for s, p in truth.items():
        half = z * math.sqrt(max(p * (1.0 - p), 0.0) / count) + 1.0 / count
        if abs(estimates[s] - p) > half:
            bad.append(s)
    return bad


def frequencies(masks: np.ndarray, subs: list[tuple[int, ...]]) -> dict:
    """Fraction of sample bitmasks that contain each subset."""
    out = {}
    for s in subs:
        m = np.uint64(sum(1 << (i - 1) for i in s))
        out[s] = float(np.count_nonzero((masks & m) == m)) / len(masks)
    return out


def max_deviation(h: np.ndarray, truth: dict) -> float:
    """Largest |det H_J - det K_J| over the subsets of ``truth``."""
    got = principal_minors(h, list(truth))
    return max(abs(got[s] - v) for s, v in truth.items())
