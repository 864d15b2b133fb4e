"""Seeded input laws for the benchmark workloads.

Every kernel here is built by the benchmark with numpy alone, so the
program under test sees only finished matrices.  A workload seed and a
tag pick an independent numpy stream, so the same seed always gives the
same inputs and the workloads never share draws.
"""

from __future__ import annotations

import itertools

import numpy as np

GENERICITY_RTOL = 1e-9   # the solver's own genericity threshold
ADMISSIBILITY_TOL = -1e-12

_TAGS = {"pma-exact": 1, "learn": 2, "cli-sequential": 3}


def stream(workload: str, seed: int, index: int) -> np.random.Generator:
    """Independent numpy stream for input ``index`` of a workload run."""
    return np.random.default_rng(np.random.SeedSequence([seed, _TAGS[workload], index]))


def four_cycle_products(mags: np.ndarray) -> np.ndarray:
    """(C(n,4), 3) magnitude products of the three 4-cycles of each 4-set."""
    quads = np.array(list(itertools.combinations(range(mags.shape[0]), 4)))
    if quads.size == 0:
        return np.zeros((0, 3))
    i, j, k, l = quads.T
    return np.stack([mags[i, j] * mags[j, k] * mags[k, l] * mags[l, i],
                     mags[i, j] * mags[j, l] * mags[l, k] * mags[k, i],
                     mags[i, k] * mags[k, j] * mags[j, l] * mags[l, i]], axis=1)


def is_generic(mags: np.ndarray, rtol: float = GENERICITY_RTOL) -> bool:
    """No nonzero {-1,0,1}-combination of a 4-set's cycle products vanishes."""
    prods = four_cycle_products(mags)
    combos = np.array([c for c in itertools.product((-1, 0, 1), repeat=3) if any(c)])
    sums = np.abs(prods @ combos.T)
    return bool(np.all(sums > rtol * prods.max(axis=1, keepdims=True)))


def is_admissible(mat: np.ndarray) -> bool:
    """(-1)^|J| det(K - 1_J) >= 0 for every subset J (exhaustive)."""
    n = mat.shape[0]
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)) & 1
    stack = np.broadcast_to(mat, (len(masks), n, n)).copy()
    stack[:, np.arange(n), np.arange(n)] -= bits
    signed = np.where(bits.sum(axis=1) % 2 == 0, 1.0, -1.0) * np.linalg.det(stack)
    return bool(signed.min() >= ADMISSIBILITY_TOL)


def _signed_dense(diag: np.ndarray, mags: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Dense matrix with uniform entry signs and uniform relating signs."""
    n = len(diag)
    iu = np.triu_indices(n, 1)
    signs = gen.choice((-1.0, 1.0), size=len(iu[0]))
    eps = gen.choice((-1.0, 1.0), size=len(iu[0]))
    mat = np.diag(diag)
    mat[iu] = signs * mags
    mat[iu[1], iu[0]] = eps * signs * mags
    return mat


def generator_law(n: int, lam: float, gen: np.random.Generator) -> np.ndarray:
    """The documented law of ``generate_admissible``: diagonal U[lam, 1-lam],
    magnitudes 0.9 lam/(n-1) U[0.2, 1], uniform signs and relating signs.
    Gershgorin makes every draw admissible; draws are redrawn until the
    magnitudes are generic at the solver's threshold."""
    mu = 0.9 * lam / (n - 1)
    while True:
        diag = gen.uniform(lam, 1.0 - lam, size=n)
        mags = mu * gen.uniform(0.2, 1.0, size=n * (n - 1) // 2)
        mat = _signed_dense(diag, mags, gen)
        if is_generic(np.abs(mat)):
            return mat


def learn_law(n: int, gen: np.random.Generator) -> np.ndarray:
    """Diagonal U[0.45, 0.55], magnitudes U[0.14, 0.18], uniform signs.

    Redrawn only until admissible and generic: never on whether the
    triangles alone pin the signs, so 4-cycle information lost to noise
    shows in the solution dimension.
    """
    while True:
        diag = gen.uniform(0.45, 0.55, size=n)
        mags = gen.uniform(0.14, 0.18, size=n * (n - 1) // 2)
        mat = _signed_dense(diag, mags, gen)
        if is_generic(np.abs(mat)) and is_admissible(mat):
            return mat
