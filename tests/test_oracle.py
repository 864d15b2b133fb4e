"""An exhaustive oracle for the paper's theorem at N <= 6: the minors of
orders up to 4 pin a dense signed kernel down to the same set of sign
patterns that all 2^N - 1 principal minors allow.

The oracle shares no code with ``pma``.  It keeps the diagonal, the
off-diagonal magnitudes and the relating signs of K, tries every
upper-triangle sign pattern (2^C(N, 2), so 32,768 at N = 6), and keeps
the patterns whose kernels match every principal minor of K within 1e-9.
"""

import itertools
import warnings

import numpy as np
import pytest

from helpers import antisymmetric, partly_spanned, random_signed
from signed_dpp import kernel, moments, pma
from signed_dpp.errors import AmbiguousSignWarning


def matching_patterns(k):
    """The set of sign patterns whose kernels have every principal minor
    of k, and the (2^C(N, 2), N, N) stack of those kernels.  Pattern p
    makes the upper entry of pair t (lexicographic order) negative when
    bit t of p is set, as ``GF2Solution`` members do."""
    n = k.n
    iu, ju = np.triu_indices(n, 1)
    patterns = np.arange(1 << len(iu))
    negative = (patterns[:, None] >> np.arange(len(iu))) & 1 == 1
    upper = np.where(negative, -1.0, 1.0) * np.abs(k.mat[iu, ju])
    eps = np.where(k.mat[iu, ju] * k.mat[ju, iu] > 0, 1.0, -1.0)
    mats = np.broadcast_to(np.diag(np.diag(k.mat)), (len(patterns), n, n)).copy()
    mats[:, iu, ju] = upper
    mats[:, ju, iu] = eps * upper
    keep = np.ones(len(patterns), dtype=bool)
    for t in range(1, n + 1):
        for j in map(list, itertools.combinations(range(n), t)):
            want = np.linalg.det(k.mat[np.ix_(j, j)])
            keep &= np.abs(np.linalg.det(mats[:, j][:, :, j]) - want) <= 1e-9
    return set(np.flatnonzero(keep).tolist()), mats


def pattern_of(mat):
    iu, ju = np.triu_indices(len(mat), 1)
    return sum(1 << t for t in np.flatnonzero(mat[iu, ju] < 0).tolist())


CASES = [
    ("gershgorin", kernel.generate_admissible(4, 0.3, 1)),
    ("gershgorin", kernel.generate_admissible(5, 0.3, 2)),
    ("gershgorin", kernel.generate_admissible(6, 0.3, 3)),
    ("random_signed", random_signed(5, 4)),
    ("random_signed", random_signed(6, 5)),
    ("antisymmetric", antisymmetric(4, 6)),
    ("antisymmetric", antisymmetric(6, 7)),
]


@pytest.mark.parametrize("law, k", CASES, ids=[f"{law}-{k.n}" for law, k in CASES])
def test_solution_set_is_every_matching_sign_pattern(law, k):
    brute, mats = matching_patterns(k)
    assert pattern_of(k.mat) in brute
    with warnings.catch_warnings():
        warnings.simplefilter("error", AmbiguousSignWarning)   # no decision is skipped
        sol = pma.solve_pma(moments.exact_minors(k, 4))
    assert set(sol.solution.members()) == brute
    described = pma.describe_solution_set(sol)
    assert sorted(pattern_of(m.mat) for m in described) == sorted(brute)
    for m in described:
        assert np.max(np.abs(m.mat - mats[pattern_of(m.mat)])) <= 1e-12


def test_skipped_four_set_keeps_every_matching_sign_pattern():
    # equal magnitudes inside (1, 2, 3, 4) tie its cycle patterns, so the
    # 4-set is skipped and the coset may be larger than the oracle's set
    inner = {p: 0.1 for p in itertools.combinations(range(1, 5), 2)}
    inner[(1, 2)] = -0.1
    k = partly_spanned(inner)
    brute, _ = matching_patterns(k)
    with pytest.warns(AmbiguousSignWarning, match=r"\(1, 2, 3, 4\)"):
        sol = pma.solve_pma(moments.exact_minors(k, 4))
    members = set(sol.solution.members())
    assert pattern_of(k.mat) in brute
    assert brute <= members
    assert {pattern_of(m.mat) for m in pma.describe_solution_set(sol)} == members
