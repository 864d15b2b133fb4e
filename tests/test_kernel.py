import json
import math

import numpy as np
import pytest

from helpers import lex_combinations, random_signed, signed_matrix
from signed_dpp import kernel, numerics
from signed_dpp.errors import (
    CapabilityError,
    ConditioningError,
    DimensionError,
    FormatError,
    GenerationError,
    InadmissibleKernelError,
    SignedClassError,
    SingularMatrixError,
)


def masses_by_subset(k):
    """pmf over all subsets keyed by 1-based tuples (enumeration oracle)."""
    table = kernel.enumerate_pmf(k)
    return {kernel.mask_to_subset(m): table[m] for m in range(1 << k.n)}


# ---------------------------------------------------------------------------
# subsets

def test_principal_minors_batched_matches_scalar():
    k = random_signed(7, 8)
    subsets = [(), (3,), (1, 2), (2, 5, 7), (1, 2, 3, 4, 5, 6, 7), (4, 6), (1, 3, 5, 7)]
    got = {}
    for t in {len(j) for j in subsets}:   # one (m, t) index array per order
        rows = [j for j in subsets if len(j) == t]
        got.update(zip(rows, kernel.principal_minors(k.mat, np.array(rows, dtype=int).reshape(len(rows), t))))
    assert [got[j] for j in subsets] == [kernel.principal_minor(k, j) for j in subsets]
    assert kernel.principal_minors(k.mat, np.zeros((0, 2), dtype=int)).shape == (0,)
    with pytest.raises(DimensionError):
        kernel.principal_minors(k.mat, [(1, 8)])
    with pytest.raises(DimensionError):
        kernel.principal_minors(k.mat, [1, 2])


def test_principal_minors_do_not_depend_on_the_chunk_size(monkeypatch):
    k = random_signed(9, 3)
    subsets = lex_combinations(9, 4) + 1
    want = kernel.principal_minors(k.mat, subsets)
    for chunk in (1, 7, 100):
        monkeypatch.setattr(numerics, "DET_CHUNK", chunk)
        assert kernel.principal_minors(k.mat, subsets).tobytes() == want.tobytes()
    assert want.tolist() == [kernel.principal_minor(k, j) for j in subsets.tolist()]


# ---------------------------------------------------------------------------
# principal minors and pmf

def test_minor_empty_subset_is_one():
    k = random_signed(4, 1)
    assert kernel.principal_minor(k, ()) == 1.0


def test_minor_singleton_is_diagonal():
    k = random_signed(4, 2)
    for i in range(1, 5):
        assert kernel.principal_minor(k, (i,)) == k.entry(i, i)


def test_minor_attractive_pair_formula():
    # order-2 closed form with eps = -1: K_ii K_jj + K_ij^2
    k = signed_matrix([0.5, 0.5], {(1, 2): 0.2}, {(1, 2): -1})
    assert kernel.principal_minor(k, (1, 2)) == pytest.approx(0.29, abs=1e-15)


def test_minor_out_of_range():
    with pytest.raises(DimensionError):
        kernel.principal_minor(random_signed(3, 3), (4,))


def test_pmf_independent_bernoulli():
    k = kernel.SignedKernel(np.diag([0.5, 0.5]))
    assert kernel.pmf(k, (1,)) == pytest.approx(0.25, abs=1e-15)


def test_pmf_identity_full_set():
    k = kernel.SignedKernel(np.eye(4))
    assert kernel.pmf(k, (1, 2, 3, 4)) == pytest.approx(1.0, abs=1e-15)


def test_pmf_sums_to_one_random_admissible():
    for seed in range(5):
        k = kernel.generate_admissible(6, 0.3, seed)
        assert kernel.enumerate_pmf(k).sum() == pytest.approx(1.0, abs=1e-10)


def test_pmf_negative_mass_raises():
    k = kernel.SignedKernel(np.diag([1.5]))
    with pytest.raises(InadmissibleKernelError):
        kernel.pmf(k, ())


def test_pmf_is_the_enumerated_table_bit_for_bit():
    # one routine computes both, so every mass is the same float
    kernels = [kernel.generate_admissible(n, 0.3, n) for n in range(1, 9)]
    kernels += [random_signed(5, 3), kernel.SignedKernel(np.diag([1.0, 0.0, 0.5]))]
    for k in kernels:
        table = kernel.enumerate_pmf(k)
        got = np.array([kernel.pmf(k, kernel.mask_to_subset(m)) for m in range(1 << k.n)])
        assert got.tobytes() == table.tobytes()


def test_enumerate_pmf_capped():
    with pytest.raises(CapabilityError):
        kernel.enumerate_pmf(kernel.SignedKernel(np.eye(17) * 0.5))


# ---------------------------------------------------------------------------
# admissibility and generation

def test_admissible_diagonal_probabilities():
    assert kernel.is_admissible(kernel.SignedKernel(np.diag([0.0, 0.3, 1.0])))


def test_admissible_rejects_bad_diagonal():
    assert not kernel.is_admissible(kernel.SignedKernel(np.diag([1.5])))


def test_admissible_perturbed_diagonal_construction():
    # diagonal in [lam, 1-lam] plus off-diagonal scaled below lam/(N-1)
    k = kernel.generate_admissible(6, 0.3, 123)
    assert kernel.is_admissible(k)
    mu = 0.9 * 0.3 / 5
    off = k.mat[~np.eye(6, dtype=bool)]
    assert np.max(np.abs(off)) <= mu + 1e-15


def test_admissibility_and_enumeration_share_the_round_off_floor():
    # masses -2.5e-10 and -1.5e-9: the first is round-off, the second is not
    for excess, ok in ((5e-10, True), (3e-9, False)):
        k = kernel.SignedKernel(np.diag([1 + excess, 0.5]))
        assert kernel.is_admissible(k) == ok
        if ok:
            assert kernel.enumerate_pmf(k).min() == 0.0
        else:
            with pytest.raises(InadmissibleKernelError):
                kernel.enumerate_pmf(k)


def test_admissibility_cap():
    with pytest.raises(CapabilityError):
        kernel.is_admissible(kernel.SignedKernel(np.eye(21) * 0.5))


def test_generate_magnitude_symmetry_exact():
    k = kernel.generate_admissible(7, 0.25, 9)
    assert k.in_signed_class
    assert np.array_equal(np.abs(k.mat), np.abs(k.mat.T))


def test_generate_deterministic():
    a = kernel.generate_admissible(5, 0.4, 3)
    b = kernel.generate_admissible(5, 0.4, 3)
    assert np.array_equal(a.mat, b.mat)


def test_generate_rejects_bad_lambda():
    with pytest.raises(GenerationError):
        kernel.generate_admissible(4, 0.6, 1)


# ---------------------------------------------------------------------------
# transforms

def test_k_to_l_diagonal():
    l = kernel.k_to_l(kernel.SignedKernel(np.diag([0.5, 0.5])))
    assert np.allclose(l.mat, np.eye(2), atol=1e-14)


def test_k_to_l_identity_singular():
    with pytest.raises(SingularMatrixError):
        kernel.k_to_l(kernel.SignedKernel(np.eye(3)))


def test_l_to_k_inverse_pair():
    k = kernel.l_to_k(kernel.SignedKernel(np.diag([1.0, 1.0])))
    assert np.allclose(k.mat, np.diag([0.5, 0.5]), atol=1e-14)
    z = kernel.l_to_k(kernel.SignedKernel(np.zeros((3, 3))))
    assert np.array_equal(z.mat, np.zeros((3, 3)))


def test_k_l_round_trip():
    for seed in range(5):
        k = kernel.generate_admissible(5, 0.3, seed)
        back = kernel.l_to_k(kernel.k_to_l(k))
        assert np.max(np.abs(back.mat - k.mat)) <= 1e-9


def test_l_ensemble_mass_formula():
    # P[Y = J] = det(L_J) / det(I + L), against the enumeration table
    k = kernel.generate_admissible(5, 0.3, 8)
    l = kernel.k_to_l(k)
    norm = np.linalg.det(np.eye(5) + l.mat)
    masses = masses_by_subset(k)
    for j, p in masses.items():
        want = kernel.principal_minor(l, j) / norm
        assert p == pytest.approx(want, abs=1e-10)


def test_complement_kernel():
    k = kernel.SignedKernel(np.eye(3))
    assert np.array_equal(kernel.complement_kernel(k).mat, np.zeros((3, 3)))
    r = random_signed(5, 4)
    twice = kernel.complement_kernel(kernel.complement_kernel(r))
    # negation of off-diagonals is exact; the diagonal re-rounds 1-(1-d)
    off = ~np.eye(5, dtype=bool)
    assert np.array_equal(twice.mat[off], r.mat[off])
    assert np.max(np.abs(np.diag(twice.mat) - np.diag(r.mat))) <= 1e-15


def test_complement_reverses_masses():
    k = kernel.generate_admissible(6, 0.3, 15)
    comp = kernel.complement_kernel(k)
    masses = masses_by_subset(k)
    comp_masses = masses_by_subset(comp)
    for j, p in masses.items():
        jbar = tuple(i for i in range(1, 7) if i not in j)
        assert comp_masses[jbar] == pytest.approx(p, abs=1e-10)


def test_marginal_kernel_full_set_and_diagonal():
    k = random_signed(4, 6)
    assert np.array_equal(kernel.marginal_kernel(k, (1, 2, 3, 4)).mat, k.mat)
    d = kernel.SignedKernel(np.diag([0.2, 0.7]))
    assert np.array_equal(kernel.marginal_kernel(d, (1,)).mat, [[0.2]])
    with pytest.raises(DimensionError):
        kernel.marginal_kernel(k, ())


def test_marginal_kernel_matches_summed_distribution():
    k = kernel.generate_admissible(6, 0.3, 21)
    s = (2, 4, 5)
    masses = masses_by_subset(k)
    marg = kernel.marginal_kernel(k, s)
    marg_masses = masses_by_subset(marg)
    for t_mask in range(8):
        t = tuple(s[i] for i in range(3) if (t_mask >> i) & 1)
        total = sum(p for j, p in masses.items()
                    if tuple(v for v in j if v in s) == t)
        relabeled = tuple(i + 1 for i in range(3) if (t_mask >> i) & 1)
        assert marg_masses[relabeled] == pytest.approx(total, abs=1e-10)


def test_conditional_kernel_diagonal_independence():
    d = kernel.SignedKernel(np.diag([0.4, 0.6, 0.9]))
    cond = kernel.conditional_kernel(d, (1,))
    assert np.allclose(cond.mat, np.diag([0.6, 0.9]), atol=1e-14)


def test_conditional_kernel_empty_set_identity():
    k = random_signed(4, 7)
    assert kernel.conditional_kernel(k, ()) is k


def test_conditional_kernel_bayes_oracle():
    k = kernel.generate_admissible(6, 0.3, 33)
    s = (1, 4)
    cond = kernel.conditional_kernel(k, s)
    comp = tuple(i for i in range(1, 7) if i not in s)
    p_s = kernel.principal_minor(k, s)
    for m in range(1 << len(comp)):
        j = tuple(comp[i] for i in range(len(comp)) if (m >> i) & 1)
        want = kernel.principal_minor(k, tuple(sorted(s + j))) / p_s
        got = kernel.principal_minor(
            cond, tuple(i + 1 for i in range(len(comp)) if (m >> i) & 1))
        assert got == pytest.approx(want, abs=1e-9)


def test_conditional_kernel_zero_probability():
    k = kernel.SignedKernel(np.diag([0.0, 0.5]))
    with pytest.raises(ConditioningError):
        kernel.conditional_kernel(k, (1,))


# ---------------------------------------------------------------------------
# size distribution

def test_size_polynomial_identity_kernel():
    coeffs = kernel.size_polynomial(kernel.SignedKernel(np.eye(4)))
    assert np.allclose(coeffs, [0, 0, 0, 0, 1.0], atol=1e-12)


def test_size_polynomial_product_form():
    p1, p2 = 0.3, 0.8
    coeffs = kernel.size_polynomial(kernel.SignedKernel(np.diag([p1, p2])))
    want = [(1 - p1) * (1 - p2), p1 * (1 - p2) + p2 * (1 - p1), p1 * p2]
    assert np.allclose(coeffs, want, atol=1e-12)


def test_size_polynomial_attractive_pair():
    # det(I - K + zK) for the 2x2 attractive pair expands to
    # 0.25 (1+z)^2 + 0.09 (z-1)^2
    k = signed_matrix([0.5, 0.5], {(1, 2): 0.3}, {(1, 2): -1})
    coeffs = kernel.size_polynomial(k)
    assert np.allclose(coeffs, [0.34, 0.32, 0.34], atol=1e-12)


def test_size_polynomial_matches_mass_sums():
    for n, seed in [(6, 0), (8, 1), (10, 2)]:
        k = kernel.generate_admissible(n, 0.3, seed)
        coeffs = kernel.size_polynomial(k)
        table = kernel.enumerate_pmf(k)
        sizes = np.zeros(n + 1)
        for m in range(1 << n):
            sizes[bin(m).count("1")] += table[m]
        assert np.max(np.abs(coeffs - sizes)) <= 1e-9


def test_size_polynomial_matches_the_eigenvalue_product():
    # det(I + (z - 1) K) = prod_i (1 - l_i + l_i z) over the eigenvalues
    # l_i of K; the coefficients are probabilities, so none is negative
    for n in (8, 16, 24, 32):
        k = kernel.generate_admissible(n, 0.3, 7)
        want = np.array([1.0 + 0j])
        for lam in np.linalg.eigvals(k.mat):
            want = np.convolve(want, [1 - lam, lam])
        coeffs = kernel.size_polynomial(k)
        assert coeffs.shape == (n + 1,)
        assert np.max(np.abs(coeffs - want.real)) <= 1e-12, n
        assert coeffs.min() >= -1e-12 and abs(coeffs.sum() - 1.0) <= 1e-12


def test_size_polynomial_complement_reversal():
    k = kernel.generate_admissible(7, 0.3, 5)
    comp = kernel.complement_kernel(k)
    a = kernel.size_polynomial(k)
    b = kernel.size_polynomial(comp)
    assert np.max(np.abs(b - a[::-1])) <= 1e-9


def test_size_variance_identities():
    assert kernel.size_variance(kernel.SignedKernel(np.eye(3))) == pytest.approx(0.0, abs=1e-14)
    assert kernel.size_variance(kernel.SignedKernel(np.diag([0.5, 0.5]))) == pytest.approx(0.5)
    for seed in range(4):
        k = kernel.generate_admissible(6, 0.3, seed)
        coeffs = kernel.size_polynomial(k)
        mean = sum(i * c for i, c in enumerate(coeffs))
        second = sum(i * i * c for i, c in enumerate(coeffs))
        assert kernel.size_variance(k) == pytest.approx(second - mean**2, abs=1e-9)


def test_size_variance_attractive_pair_exceeds_symmetric():
    # attraction (eps = -1) adds +K_ij^2 to the variance instead of removing it
    att = signed_matrix([0.5, 0.5], {(1, 2): 0.3}, {(1, 2): -1})
    rep = signed_matrix([0.5, 0.5], {(1, 2): 0.3}, {(1, 2): +1})
    assert kernel.size_variance(att) == pytest.approx(0.68)
    assert kernel.size_variance(rep) == pytest.approx(0.32)


def test_is_constant_size():
    assert kernel.is_constant_size(kernel.SignedKernel(np.eye(5))) == 5
    assert kernel.is_constant_size(kernel.SignedKernel(np.zeros((3, 3)))) == 0
    assert kernel.is_constant_size(kernel.SignedKernel(np.diag([0.5]))) is None
    proj = np.zeros((5, 5))
    proj[1, 1] = proj[3, 3] = 1.0
    assert kernel.is_constant_size(kernel.SignedKernel(proj)) == 2


def test_pair_covariance():
    k = signed_matrix([0.5, 0.5, 0.5],
                      {(1, 2): 0.2, (1, 3): 0.0, (2, 3): 0.1},
                      {(1, 2): -1, (1, 3): 1, (2, 3): 1})
    assert kernel.pair_covariance(k, 1, 2) == pytest.approx(0.04)
    assert kernel.pair_covariance(k, 1, 3) == 0.0
    assert kernel.pair_covariance(k, 2, 3) == pytest.approx(-0.01)
    with pytest.raises(DimensionError):
        kernel.pair_covariance(k, 2, 2)


# ---------------------------------------------------------------------------
# invariants

def test_inclusion_identity():
    k = kernel.generate_admissible(6, 0.3, 50)
    masses = masses_by_subset(k)
    for s_mask in range(1 << 6):
        s = kernel.mask_to_subset(s_mask)
        total = sum(p for j, p in masses.items() if set(s) <= set(j))
        assert total == pytest.approx(kernel.principal_minor(k, s), abs=1e-9)


def test_transpose_preserves_minors():
    k = random_signed(6, 11)
    kt = kernel.SignedKernel(k.mat.T.copy())
    for m in range(1, 1 << 6):
        j = kernel.mask_to_subset(m)
        assert kernel.principal_minor(kt, j) == pytest.approx(
            kernel.principal_minor(k, j), abs=1e-12)


def test_diagonal_conjugation_preserves_minors():
    k = random_signed(5, 12)
    for bits in range(1 << 5):
        d = np.diag([1.0 if (bits >> i) & 1 else -1.0 for i in range(5)])
        kd = kernel.SignedKernel(d @ k.mat @ d)
        for m in range(1, 1 << 5):
            j = kernel.mask_to_subset(m)
            assert kernel.principal_minor(kd, j) == pytest.approx(
                kernel.principal_minor(k, j), abs=1e-12)
        if bits > 3:
            break


# ---------------------------------------------------------------------------
# signed-class bookkeeping and JSON

def test_epsilon_accessor():
    k = signed_matrix([0.5, 0.5], {(1, 2): 0.3}, {(1, 2): -1})
    assert k.epsilon(1, 2) == -1
    assert k.epsilon(2, 1) == -1


def test_epsilon_undefined_on_zero_entry():
    k = kernel.SignedKernel(np.diag([0.5, 0.5]))
    with pytest.raises(SignedClassError):
        k.epsilon(1, 2)


def test_transform_output_leaves_signed_class():
    # the L-form of a genuinely signed kernel has asymmetric magnitudes
    k = kernel.generate_admissible(4, 0.3, 2)
    l = kernel.k_to_l(k)
    assert not l.in_signed_class
    with pytest.raises(SignedClassError):
        l.require_signed()


def test_kernel_json_round_trip_full_precision():
    k = kernel.generate_admissible(5, 0.3, 19)
    back = kernel.kernel_from_json(kernel.kernel_to_json(k))
    assert np.array_equal(back.mat, k.mat)


def test_kernel_json_rejects_malformed():
    with pytest.raises(FormatError):
        kernel.kernel_from_json("not json")
    with pytest.raises(FormatError):
        kernel.kernel_from_json(json.dumps({"n": 2, "rows": [[1.0, 0.0]]}))
    with pytest.raises(FormatError):
        kernel.kernel_from_json(json.dumps({"rows": []}))


@pytest.mark.parametrize("entry", [True, "0.5", " 5e-1 ", [0.5], {"v": 0.5}])
def test_kernel_json_rejects_entries_that_are_not_numbers(entry):
    text = json.dumps({"n": 2, "rows": [[0.5, 0.1], [0.1, entry]]})
    with pytest.raises(FormatError, match=r"entry \(2,2\) is not a number"):
        kernel.kernel_from_json(text)


def test_kernel_json_rejects_null_and_huge_entries():
    # null reads as NaN; an integer beyond the float range overflows
    for entry in ("null", "1" + "0" * 400):
        with pytest.raises(FormatError, match="bad matrix entries"):
            kernel.kernel_from_json('{"n": 1, "rows": [[%s]]}' % entry)


def test_kernel_file_round_trip(tmp_path):
    k = kernel.generate_admissible(4, 0.3, 55)
    path = str(tmp_path / "k.json")
    kernel.write_kernel(path, k)
    assert np.array_equal(kernel.read_kernel(path).mat, k.mat)


def test_mat_is_read_only():
    k = random_signed(3, 1)
    with pytest.raises(ValueError):
        k.mat[0, 0] = 2.0


def _masks(rows):
    return (np.uint64(1) << rows.astype(np.uint64)).sum(axis=1, dtype=np.uint64)


def test_colex_rank_is_bitmask_order():
    # the rank is a bijection onto 0..C(n, t)-1 that orders like the mask
    cases = [(n, t) for n in range(1, 11) for t in range(1, n + 1)] + [(64, t) for t in range(1, 5)]
    for n, t in cases:
        rows = lex_combinations(n, t)
        ranks = kernel.colex_rank(rows, n)
        by_rank = np.empty_like(rows)
        by_rank[ranks] = rows
        assert np.array_equal(np.sort(ranks), np.arange(math.comb(n, t))), (n, t)
        assert np.all(np.diff(_masks(by_rank)) > 0), (n, t)
        assert np.array_equal(kernel.colex_unrank(np.arange(len(rows)), n, t), by_rank), (n, t)


def test_colex_table_lists_the_subsets_by_rank():
    cases = ([(n, t) for n in (0, 1, 2, 5, 9) for t in range(0, n + 2)] + [(64, 4)]
             + [(256, t) for t in (0, 1, 2, 255, 256, 257)] + [(300, 2), (300, 300)])
    for n, t in cases:
        table = kernel.colex_table(n, t)
        assert table.shape == (math.comb(n, t), t), (n, t)
        assert table.dtype == (np.uint8 if n <= 255 else np.uint16), (n, t)
        assert not table.flags.writeable
        assert np.array_equal(table, kernel.colex_unrank(np.arange(len(table)), n, t) + 1), (n, t)
        assert np.array_equal(kernel.colex_rank(table - 1, n), np.arange(len(table))), (n, t)
    with pytest.raises(ValueError):
        kernel.colex_table(9, 2)[0, 0] = 3
