import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signed_dpp import gf2
from signed_dpp.errors import DimensionError


def test_sign_bit_dictionary():
    assert gf2.sign_to_bit(1) == 0
    assert gf2.sign_to_bit(-1) == 1
    assert gf2.bit_to_sign(0) == 1
    assert gf2.bit_to_sign(1) == -1
    with pytest.raises(DimensionError):
        gf2.sign_to_bit(0)


def test_sign_products_become_bit_sums():
    for a, b in itertools.product((-1, 1), repeat=2):
        assert gf2.sign_to_bit(a * b) == gf2.sign_to_bit(a) ^ gf2.sign_to_bit(b)


def test_solve_two_equations():
    system = gf2.GF2System(2)
    system.add_row([0, 1], 1)
    system.add_row([1], 1)
    sol = gf2.gf2_solve(system)
    assert gf2.bits_of(sol.particular, 2) == (0, 1)
    assert sol.nullity == 0
    assert sol.rank == 2


def test_solve_inconsistent():
    system = gf2.GF2System(1)
    system.add_row([0], 0)
    system.add_row([0], 1)
    assert gf2.gf2_solve(system) is None


def test_empty_rows_are_fine():
    system = gf2.GF2System(3)
    system.add_row([], 0)
    sol = gf2.gf2_solve(system)
    assert sol is not None and sol.nullity == 3


def test_add_row_validates():
    system = gf2.GF2System(2)
    with pytest.raises(DimensionError):
        system.add_row([2], 0)
    with pytest.raises(DimensionError):
        system.add_row([0], 2)


def _planted_system(rng, m, n_rows):
    planted = int(rng.integers(0, 1 << m)) if m < 63 else int(
        rng.integers(0, 1 << 62)) | (int(rng.integers(0, 4)) << 62)
    system = gf2.GF2System(m)
    for _ in range(n_rows):
        mask = int(rng.integers(0, 1 << m)) if m < 63 else int(
            rng.integers(0, 1 << 62)) | (int(rng.integers(0, 4)) << 62)
        rhs = bin(mask & planted).count("1") % 2
        system.rows.append((mask, rhs))
    return planted, system


def test_planted_solutions_recovered():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 65))
        planted, system = _planted_system(rng, m, int(rng.integers(1, 2 * m + 2)))
        sol = gf2.gf2_solve(system)
        assert sol is not None
        assert system.satisfied_by(sol.particular)
        assert sol.contains(planted)
        assert sol.rank + sol.nullity == m


def test_null_basis_vectors_solve_homogeneous():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        _, system = _planted_system(rng, m, int(rng.integers(1, m)))
        sol = gf2.gf2_solve(system)
        homogeneous = gf2.GF2System(m, [(mask, 0) for mask, _ in system.rows])
        for vec in sol.null_basis:
            assert homogeneous.satisfied_by(vec)


def test_null_basis_independent():
    # echelon structure: each basis vector has a lone 1 in its free column
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = int(rng.integers(2, 30))
        _, system = _planted_system(rng, m, int(rng.integers(1, m + 5)))
        sol = gf2.gf2_solve(system)
        for t, vec in enumerate(sol.null_basis):
            for f in sol.free_cols:
                bit = (vec >> f) & 1
                assert bit == (1 if f == sol.free_cols[t] else 0)


def _brute_force_consistent(system):
    for assignment in range(1 << system.n_vars):
        if system.satisfied_by(assignment):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_consistency_agrees_with_enumeration(data):
    m = data.draw(st.integers(1, 10))
    n_rows = data.draw(st.integers(1, 14))
    rows = [(data.draw(st.integers(0, (1 << m) - 1)), data.draw(st.integers(0, 1)))
            for _ in range(n_rows)]
    system = gf2.GF2System(m, rows)
    sol = gf2.gf2_solve(system)
    assert (sol is not None) == _brute_force_consistent(system)
    if sol is not None:
        assert system.satisfied_by(sol.particular)
        assert sol.rank + sol.nullity == m


def test_sign_space_round_trip():
    # solve the product system prod(x_e, e in C) = b_C through bits and
    # check the returned signs satisfy the original equations
    rng = np.random.default_rng(17)
    m = 12
    truth = [1 if rng.random() < 0.5 else -1 for _ in range(m)]
    supports = [sorted(rng.choice(m, size=rng.integers(1, 5), replace=False))
                for _ in range(20)]
    system = gf2.GF2System(m)
    for sup in supports:
        b = 1
        for e in sup:
            b *= truth[e]
        system.add_row(sup, gf2.sign_to_bit(b))
    sol = gf2.gf2_solve(system)
    signs = [gf2.bit_to_sign((sol.particular >> i) & 1) for i in range(m)]
    for sup in supports:
        prod_solution = prod_truth = 1
        for e in sup:
            prod_solution *= signs[e]
            prod_truth *= truth[e]
        assert prod_solution == prod_truth


def test_members_enumerates_coset():
    system = gf2.GF2System(3)
    system.add_row([0, 1], 1)
    sol = gf2.gf2_solve(system)
    members = set(sol.members())
    assert len(members) == 1 << sol.nullity
    for vec in members:
        assert system.satisfied_by(vec)
        assert sol.contains(vec)
    assert not sol.contains(0b000)  # x0 = x1 = 0 violates x0 xor x1 = 1


def test_spanning_rows_form_a_basis():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n_vars = int(rng.integers(1, 80))
        groups = []
        for width in (3, 4):
            count = int(rng.integers(0, 3 * n_vars))
            width = min(width, n_vars)
            groups.append(np.array([rng.choice(n_vars, size=width, replace=False)
                                    for _ in range(count)], dtype=int).reshape(count, width))

        def system_of(rows):
            system = gf2.GF2System(n_vars)
            for g, idx in enumerate(rows):
                for t in idx:
                    system.add_row(groups[g][t], 0)
            return system

        keep = gf2.spanning_rows(groups, n_vars)
        everything = gf2.gf2_solve(system_of([range(len(g)) for g in groups]))
        kept = gf2.gf2_solve(system_of(keep))
        assert sum(len(idx) for idx in keep) == kept.rank == everything.rank
        assert kept.null_basis == everything.null_basis


def test_parities_match_row_checks():
    rng = np.random.default_rng(29)
    supports = np.array([rng.choice(30, size=4, replace=False) for _ in range(50)])
    x = rng.integers(0, 2, 30).astype(bool)
    bits = sum(1 << t for t in range(30) if x[t])
    for row, parity in zip(supports, gf2.parities(supports, x)):
        system = gf2.GF2System(30)
        system.add_row(row, int(parity))
        assert system.satisfied_by(bits)


def _reference_solve(system):
    """The former Python-int elimination: rows keyed by lowest set bit,
    then back-substitution from the highest pivot down."""
    m = system.n_vars
    pivots = {}
    for mask, rhs in system.rows:
        mask &= (1 << m) - 1
        while mask:
            col = (mask & -mask).bit_length() - 1
            if col not in pivots:
                pivots[col] = (mask, rhs)
                break
            mask ^= pivots[col][0]
            rhs ^= pivots[col][1]
        else:
            if rhs:
                return None
    pivot_bits = sum(1 << col for col in pivots)
    for col in sorted(pivots, reverse=True):
        mask, rhs = pivots[col]
        above = mask & pivot_bits & ~(1 << col)
        while above:
            low = above & -above
            mask ^= pivots[low.bit_length() - 1][0]
            rhs ^= pivots[low.bit_length() - 1][1]
            above ^= low
        pivots[col] = (mask, rhs)
    particular = sum(1 << col for col, (_, rhs) in pivots.items() if rhs)
    free = [c for c in range(m) if c not in pivots]
    basis = tuple((1 << f) ^ sum(1 << col for col, (mask, _) in pivots.items() if (mask >> f) & 1)
                  for f in free)
    return particular, basis, tuple(free), len(pivots)


def test_packed_solve_matches_the_int_elimination():
    rng = np.random.default_rng(31)
    inconsistent = 0
    for trial in range(300):
        m = int(rng.integers(1, 140))
        planted = int.from_bytes(rng.bytes(18), "little") & ((1 << m) - 1)
        system = gf2.GF2System(m)
        for _ in range(int(rng.integers(0, 2 * m + 2))):
            mask = int.from_bytes(rng.bytes(18), "little") & ((1 << m) - 1)
            if rng.random() < 0.5:   # sparse rows leave a null space
                mask &= int.from_bytes(rng.bytes(18), "little")
            rhs = bin(mask & planted).count("1") % 2
            if trial % 4 == 0 and rng.random() < 0.2:
                rhs ^= 1
            system.rows.append((mask, rhs))
        want, sol = _reference_solve(system), gf2.gf2_solve(system)
        if want is None:
            assert sol is None, trial
            inconsistent += 1
        else:
            assert (sol.particular, sol.null_basis, sol.free_cols, sol.rank) == want, trial
            assert sol.n_vars == m
    assert inconsistent > 10


def test_solve_groups_reads_the_solution_of_the_kept_rows():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n_vars = int(rng.integers(1, 80))
        planted = rng.integers(0, 2, n_vars).astype(bool)
        groups, rhs = [], []
        for width in (3, 4):
            count = int(rng.integers(0, 3 * n_vars))
            width = min(width, n_vars)
            groups.append(np.array([rng.choice(n_vars, size=width, replace=False)
                                    for _ in range(count)], dtype=int).reshape(count, width))
            rhs.append(gf2.parities(groups[-1], planted))
        system = gf2.GF2System(n_vars)
        for g, idx in enumerate(gf2.spanning_rows(groups, n_vars)):
            for t in idx:
                system.add_row(groups[g][t], int(rhs[g][t]))
        assert gf2.solve_groups(groups, rhs, n_vars) == gf2.gf2_solve(system)
        assert gf2.solve_groups(groups, rhs, n_vars).contains(
            sum(1 << i for i in range(n_vars) if planted[i]))
