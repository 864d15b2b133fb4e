import inspect
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (antisymmetric, identity_forms, lex_combinations, mask_groups, satisfies, solve_groups,
                     walk_rows)
from signed_dpp import gf2, kernel, pma
from signed_dpp.errors import DimensionError
from signed_dpp.moments import exact_minors


def _solve(rows, m):
    return solve_groups(*mask_groups(rows, m), m)


def test_solve_two_equations():
    sol = solve_groups([np.array([[0, 1]]), np.array([[1]])], [[1], [1]], 2)
    assert gf2.bits_of(sol.particular, 2) == (0, 1)
    assert sol.nullity == 0
    assert sol.rank == 2


def test_bits_of_matches_the_bit_loop():
    # masks wider than 64 bits, bits past n_vars ignored, n_vars not a
    # multiple of 8
    rng = np.random.default_rng(3)
    for n_vars in (0, 1, 7, 65, 130, 8127):
        for mask in (0, (1 << n_vars) - 1, int.from_bytes(rng.bytes(n_vars // 8 + 2), "little")):
            bits = gf2.bits_of(mask, n_vars)
            assert bits == tuple((mask >> i) & 1 for i in range(n_vars))
            assert all(type(b) is int for b in bits)


def test_solve_inconsistent():
    assert solve_groups([np.array([[0], [0]])], [[0, 1]], 1) is None


def test_empty_rows_are_fine():
    empty = np.zeros((2, 0), dtype=int)
    sol = solve_groups([empty], [[0, 0]], 3)
    assert sol is not None and sol.nullity == 3
    assert solve_groups([empty], [[0, 1]], 3) is None
    assert solve_groups([], [], 3).nullity == 3


def test_add_row_validates():
    bad = [
        ([[2]], [0]),           # index past n_vars - 1
        ([[-1]], [0]),          # negative index: no wrap to n_vars - 1
        ([[0, 0, 1]], [1]),     # repeated index within a row
        ([[0]], [2]),           # rhs not a bit
        ([[0], [1]], [1]),      # rhs length differs from the row count
        ([0, 1], [1, 0]),       # not an (m, w) array
        ([[0.0]], [0]),         # not integer indices
    ]
    for supports, rhs in bad:
        with pytest.raises(DimensionError):
            solve_groups([np.array(supports)], [np.array(rhs)], 2)
    with pytest.raises(DimensionError):
        solve_groups([np.array([[0]])], [], 2)


def _planted_system(rng, m, n_rows):
    planted = int(rng.integers(0, 1 << m)) if m < 63 else int(
        rng.integers(0, 1 << 62)) | (int(rng.integers(0, 4)) << 62)
    rows = []
    for _ in range(n_rows):
        mask = int(rng.integers(0, 1 << m)) if m < 63 else int(
            rng.integers(0, 1 << 62)) | (int(rng.integers(0, 4)) << 62)
        rhs = bin(mask & planted).count("1") % 2
        rows.append((mask, rhs))
    return planted, rows


def test_planted_solutions_recovered():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 65))
        planted, rows = _planted_system(rng, m, int(rng.integers(1, 2 * m + 2)))
        sol = _solve(rows, m)
        assert sol is not None
        assert satisfies(rows, sol.particular)
        assert sol.contains(planted)
        assert sol.rank + sol.nullity == m


def test_null_basis_vectors_solve_homogeneous():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(2, 40))
        _, rows = _planted_system(rng, m, int(rng.integers(1, m)))
        sol = _solve(rows, m)
        homogeneous = [(mask, 0) for mask, _ in rows]
        for vec in sol.null_basis:
            assert satisfies(homogeneous, vec)


def test_null_basis_independent():
    # echelon structure: each basis vector has a lone 1 in its free column
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = int(rng.integers(2, 30))
        _, rows = _planted_system(rng, m, int(rng.integers(1, m + 5)))
        sol = _solve(rows, m)
        for t, vec in enumerate(sol.null_basis):
            for f in sol.free_cols:
                bit = (vec >> f) & 1
                assert bit == (1 if f == sol.free_cols[t] else 0)


def _brute_force_consistent(rows, m):
    return any(satisfies(rows, assignment) for assignment in range(1 << m))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_consistency_agrees_with_enumeration(data):
    m = data.draw(st.integers(1, 10))
    n_rows = data.draw(st.integers(1, 14))
    rows = [(data.draw(st.integers(0, (1 << m) - 1)), data.draw(st.integers(0, 1)))
            for _ in range(n_rows)]
    sol = _solve(rows, m)
    assert (sol is not None) == _brute_force_consistent(rows, m)
    if sol is not None:
        assert satisfies(rows, sol.particular)
        assert sol.rank + sol.nullity == m


def test_sign_space_round_trip():
    # solve the product system prod(x_e, e in C) = b_C with bit 1 for the
    # sign -1 and check the returned signs satisfy the original equations
    rng = np.random.default_rng(17)
    m = 12
    truth = [1 if rng.random() < 0.5 else -1 for _ in range(m)]
    supports = [sorted(rng.choice(m, size=rng.integers(1, 5), replace=False))
                for _ in range(20)]
    rows = []
    for sup in supports:
        b = 1
        for e in sup:
            b *= truth[e]
        rows.append((sum(1 << int(e) for e in sup), int(b == -1)))
    sol = _solve(rows, m)
    signs = [1 - 2 * ((sol.particular >> i) & 1) for i in range(m)]
    for sup in supports:
        prod_solution = prod_truth = 1
        for e in sup:
            prod_solution *= signs[e]
            prod_truth *= truth[e]
        assert prod_solution == prod_truth


def test_members_enumerates_coset():
    rows = [(0b011, 1)]
    sol = _solve(rows, 3)
    members = set(sol.members())
    assert len(members) == 1 << sol.nullity
    for vec in members:
        assert satisfies(rows, vec)
        assert sol.contains(vec)
    assert not sol.contains(0b000)  # x0 = x1 = 0 violates x0 xor x1 = 1


def _index_groups(rng, n_vars):
    """Groups of width-3 and width-4 rows of distinct variable indices."""
    groups = []
    for width in (3, 4):
        count = int(rng.integers(0, 3 * n_vars))
        width = min(width, n_vars)
        groups.append(np.array([rng.choice(n_vars, size=width, replace=False)
                                for _ in range(count)], dtype=int).reshape(count, width))
    return groups


def _as_masks(groups, rhs):
    return [(sum(1 << int(i) for i in row), int(b))
            for g, bits in zip(groups, rhs) for row, b in zip(g, bits)]


def test_spanning_rows_form_a_basis():
    # the span filter keeps a basis: the rank and null space of the
    # whole system
    rng = np.random.default_rng(23)
    for _ in range(40):
        n_vars = int(rng.integers(1, 80))
        groups = _index_groups(rng, n_vars)
        zeros = [np.zeros(len(g), dtype=bool) for g in groups]
        _, basis, _, rank = _reference_solve(_as_masks(groups, zeros), n_vars)
        sol = solve_groups(groups, zeros, n_vars)
        assert (sol.null_basis, sol.rank) == (basis, rank)


def test_parities_match_row_checks():
    rng = np.random.default_rng(29)
    supports = np.array([rng.choice(30, size=4, replace=False) for _ in range(50)])
    x = rng.integers(0, 2, 30).astype(bool)
    bits = sum(1 << t for t in range(30) if x[t])
    for row, parity in zip(supports, gf2.parities(supports, x)):
        assert satisfies([(sum(1 << int(i) for i in row), int(parity))], bits)


def _reference_solve(rows, m):
    """The former Python-int elimination: rows keyed by lowest set bit,
    then back-substitution from the highest pivot down."""
    pivots = {}
    for mask, rhs in rows:
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


def _random_rows(rng, m, corrupt):
    """Up to 2m + 2 int rows consistent with a planted solution, a fifth
    of them with the rhs flipped when ``corrupt``."""
    planted = int.from_bytes(rng.bytes(18), "little") & ((1 << m) - 1)
    rows = []
    for _ in range(int(rng.integers(0, 2 * m + 2))):
        mask = int.from_bytes(rng.bytes(18), "little") & ((1 << m) - 1)
        if rng.random() < 0.5:   # sparse rows leave a null space
            mask &= int.from_bytes(rng.bytes(18), "little")
        rhs = bin(mask & planted).count("1") % 2
        if corrupt and rng.random() < 0.2:
            rhs ^= 1
        rows.append((mask, rhs))
    return rows


def _matches_reference(rows, m):
    want, sol = _reference_solve(rows, m), _solve(rows, m)
    if want is None:
        assert sol is None
        return False
    assert (sol.particular, sol.null_basis, sol.free_cols, sol.rank) == want
    assert sol.n_vars == m
    return True


def test_packed_solve_matches_the_int_elimination():
    rng = np.random.default_rng(31)
    inconsistent = 0
    for trial in range(300):
        m = int(rng.integers(1, 140))
        inconsistent += not _matches_reference(_random_rows(rng, m, trial % 4 == 0), m)
    assert inconsistent > 10


def test_narrow_groups_are_solved_as_one_system():
    # the rows of 24 one-row groups over 40 variables give the reduced row
    # echelon form of the whole system
    rng = np.random.default_rng(43)
    groups = [rng.choice(40, size=(1, 3), replace=False) for _ in range(24)]
    rhs = [rng.integers(0, 2, 1) for _ in groups]
    sol = solve_groups(groups, rhs, 40)
    assert (sol.particular, sol.null_basis, sol.free_cols, sol.rank) == \
        _reference_solve(_as_masks(groups, rhs), 40)


def _sparse_rows(rng, m, count, corrupt):
    """``count`` int rows of at most 5 of m variables, consistent with a
    planted solution unless ``corrupt`` flips one right-hand side."""
    planted = int.from_bytes(rng.bytes(m // 8 + 1), "little") & ((1 << m) - 1)
    rows = []
    for _ in range(count):
        mask = sum(1 << int(i) for i in rng.choice(m, size=int(rng.integers(1, 6)), replace=False))
        rows.append((mask, bin(mask & planted).count("1") % 2))
    if corrupt:
        t = int(rng.integers(count))
        rows[t] = (rows[t][0], rows[t][1] ^ 1)
    return rows


@pytest.mark.parametrize("m, count", [(100, 30), (300, 120)])
def test_forms_wider_than_one_word_match_the_int_elimination(m, count):
    # nullity above 64, then above 128: the parameters take two, then
    # three words, and a pivot clears its parameter from every word
    rng = np.random.default_rng(m)
    for trial in range(6):
        rows = _sparse_rows(rng, m, count, False)
        assert _matches_reference(rows, m)
        assert _solve(rows, m).nullity >= m - count


def test_wide_forest_forms_match_the_dense_elimination():
    # a twentieth of the triangles at n = 40 leave over 128 parameters,
    # which the forest's forms hold in more than two words, and over 128
    # null vectors; a repeated triangle with the other right-hand side
    # contradicts its copy
    rng = np.random.default_rng(83)
    n = 40
    for flip in (False, True):
        tri = lex_combinations(n, 3)
        tri = tri[rng.random(len(tri)) < 0.05]
        tri = np.concatenate([tri, tri[:int(flip)]])
        supports = kernel.pair_index(n, tri[:, [0, 1, 0]], tri[:, [1, 2, 2]])
        rhs = gf2.parities(supports, rng.integers(0, 2, n * (n - 1) // 2).astype(bool))
        rhs[len(rhs) - int(flip):] ^= True
        basis = gf2.SpanBasis._of_cycles(n, _triangle_rows(tri), rhs)
        want = solve_groups([supports], [rhs], n * (n - 1) // 2)
        assert basis.solution() == want
        assert (want is None) == flip
        assert len(basis._params) > 128 and basis.nullity > 128


def _reduction_xors(basis):
    """``basis.solution()`` and how many XORs it made, counted by a line
    tracer on its lines with an XOR."""
    lines, first = inspect.getsourcelines(gf2.SpanBasis.solution)
    xors = {first + t for t, line in enumerate(lines) if "^" in line.split("#")[0]}
    steps = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in xors:
            steps.append(1)
        return local

    code, previous = gf2.SpanBasis.solution.__code__, sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        return basis.solution(), len(steps)
    finally:
        sys.settrace(previous)


def test_a_solve_that_decides_nothing_runs_no_pivot_step():
    # with no rows each parameter's int is one variable's bit, which no
    # other holds, so each is a null vector as it is and the solve makes
    # no XOR; the forest of generate_admissible(32, 0.3, 7) leaves 43
    # parameters, which the rows off it cut to 32, and the solve of those
    # takes 32 XORs to set the highest bits apart, 26 to clear them from
    # the other null vectors and 13 to clear them from the constants
    bases = [gf2.SpanBasis(n_vars) for n_vars in (0, 1, 63, 64, 65, 130)]
    bases += [gf2.SpanBasis._of_cycles(n, np.zeros((0, 4), dtype=int), []) for n in (1, 2, 12, 17)]
    for basis in bases:
        sol, steps = _reduction_xors(basis)
        assert (sol.particular, sol.null_basis, sol.free_cols, sol.rank) == \
            _reference_solve([], basis.n_vars)
        assert steps == 0 and sol.nullity == basis.n_vars
    n = 32
    minors = exact_minors(kernel.generate_admissible(n, 0.3, 7), 3)
    skel = pma.recover_skeleton(minors)
    tri = lex_combinations(n, 3)
    pi3 = pma.traveling_sums(minors, skel, tri)
    i, j, k = tri.T
    used = skel.epsilon[i, j] * skel.epsilon[j, k] * skel.epsilon[i, k] == 1
    supports, rhs = walk_rows(skel, tri[used], ~(pi3[used] > 0))
    basis = gf2.SpanBasis._of_cycles(n, _triangle_rows(tri[used]), rhs)
    sol, steps = _reduction_xors(basis)
    assert sol == solve_groups([supports], [rhs], n * (n - 1) // 2)
    assert (len(basis._params), sol.nullity, steps) == (43, n, 32 + 26 + 13)


def test_inconsistent_rows_leave_no_solution():
    # a flipped right-hand side among sparse rows over one to three words
    # of parameters, with a contradicting copy of a row where the flip
    # alone leaves the rows consistent, and with repeated rows
    rng = np.random.default_rng(89)
    for m in (5, 64, 65, 150):
        for count in (m // 4 + 1, 2 * m):
            rows = _sparse_rows(rng, m, count, True)
            if _reference_solve(rows, m) is not None:      # the flipped row was free
                rows.append((rows[0][0], rows[0][1] ^ 1))
            assert not _matches_reference(rows, m)
            assert not _matches_reference(rows + rows[:3], m)


def test_repeated_rows_are_checked_and_near_repeats_kept():
    # rows that agree on their first 64 variables but not beyond are two
    # rows; a repeat with the other right-hand side contradicts its copy
    near = [(1 | 1 << 70, 1), (1 | 1 << 71, 0), (1 | 1 << 129, 1), (2 | 1 << 129, 0)]
    for rows in (near, near + near[:3], near + [(1 | 1 << 70, 0)]):
        assert _matches_reference(rows, 130) == (rows[-1] != (1 | 1 << 70, 0))
    sol = solve_groups([np.array([[0, 70], [0, 70], [0, 71], [0, 71]])], [np.array([1, 1, 0, 0])], 130)
    assert sol.nullity == 128


def test_rows_keep_every_nonzero_row_and_repeats_solve_as_one():
    # a few distinct rows, each copied many times, some copies with the
    # other right-hand side; over the identity basis a row is its own words
    rng = np.random.default_rng(53)
    n_vars = 130
    eye = identity_forms(n_vars)
    pool = np.array([rng.choice(n_vars, size=4, replace=False) for _ in range(6)])
    for trial in range(20):
        pick = rng.integers(0, len(pool), 300)
        supports, bits = pool[pick], (pick + (rng.random(300) < 0.02 * (trial % 2))) % 2 == 1
        rows = gf2._rows(eye, supports, bits)
        assert len(rows) == 300 and rows[:, -1].tolist() == bits.tolist()
        keys = list(zip(pick.tolist(), bits.tolist()))
        first = [t for t, key in enumerate(keys) if key not in keys[:t]]
        want = solve_groups([supports[first]], [bits[first]], n_vars)
        assert solve_groups([supports], [bits], n_vars) == want
        assert (want is None) == (trial % 2 == 1 and len(first) > len(set(pick.tolist())))


def test_solve_groups_reads_the_solution_of_the_kept_rows():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n_vars = int(rng.integers(1, 80))
        planted = rng.integers(0, 2, n_vars).astype(bool)
        groups = _index_groups(rng, n_vars)
        rhs = [gf2.parities(g, planted) for g in groups]
        sol = solve_groups(groups, rhs, n_vars)
        particular, basis, free, rank = _reference_solve(_as_masks(groups, rhs), n_vars)
        assert sol == gf2.GF2Solution(n_vars, particular, basis, free, rank)
        assert sol.contains(sum(1 << i for i in range(n_vars) if planted[i]))


def test_span_basis_in_any_split_matches_the_int_elimination():
    # rows split into random groups give the solution of the whole
    # system, consistent or not
    rng = np.random.default_rng(47)
    inconsistent = 0
    for trial in range(60):
        m = int(rng.integers(1, 150))
        rows = _random_rows(rng, m, trial % 3 == 0)
        groups, rhs = mask_groups(rows, m)
        supports = [row for g in groups for row in g]
        bits = [b for r in rhs for b in r]
        split, split_rhs = [], []
        cuts = np.sort(rng.integers(0, len(supports) + 1, size=3))
        for lo, hi in zip([0, *cuts], [*cuts, len(supports)]):
            for width in {len(row) for row in supports[lo:hi]}:
                sel = [t for t in range(lo, hi) if len(supports[t]) == width]
                split.append(np.array([supports[t] for t in sel]).reshape(len(sel), width))
                split_rhs.append(np.array([bits[t] for t in sel], dtype=bool))
        want, sol = _reference_solve(rows, m), solve_groups(split, split_rhs, m)
        if want is None:
            assert sol is None
            inconsistent += 1
        else:
            assert (sol.particular, sol.null_basis, sol.free_cols, sol.rank) == want
    assert inconsistent > 5


def _triangle_rows(triangles):
    """(m, 3) triangles i < j < k as ``_of_cycles`` rows (i, j, k, -1)."""
    triangles = np.asarray(triangles)
    return np.column_stack([triangles, np.full(len(triangles), -1)]).astype(int)


def _planted_cycles(rng, n, density, corrupt, fours=0):
    """A random subset of the triangles of n vertices and ``fours`` random
    4-cycles, as ``_of_cycles`` rows (p, q, v, r) in random order, with
    their supports as ``solve_groups`` groups (triangles, then 4-cycles)
    and right-hand sides planted from a random sign pattern; ``corrupt``
    flips one of them."""
    triangles = lex_combinations(n, 3)
    triangles = triangles[rng.random(len(triangles)) < density]
    quad = lex_combinations(n, 4)
    quad = quad[rng.integers(len(quad), size=fours if len(quad) else 0)]
    r = rng.integers(3, size=len(quad))        # the vertex opposite the top one
    p, q = quad[np.arange(len(quad))[:, None], np.array([[1, 2], [0, 2], [0, 1]])[r]].T
    r, v = quad[np.arange(len(quad)), r], quad[:, 3]
    rows = np.concatenate([_triangle_rows(triangles), np.column_stack([p, q, v, r])])
    groups = [kernel.pair_index(n, triangles[:, [0, 1, 0]], triangles[:, [1, 2, 2]]),
              kernel.pair_index(n, np.column_stack([p, q, np.minimum(p, r), np.minimum(q, r)]),
                                np.column_stack([v, v, np.maximum(p, r), np.maximum(q, r)]))]
    planted = rng.integers(0, 2, n * (n - 1) // 2).astype(bool)
    rhs = [gf2.parities(g, planted) for g in groups]
    bits = np.concatenate(rhs)
    if corrupt and len(bits):
        bits[rng.integers(len(bits))] ^= True
    rhs = [bits[:len(triangles)], bits[len(triangles):]]
    order = rng.permutation(len(rows))
    return rows[order], bits[order], groups, rhs


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 48])
def test_triangle_forest_matches_the_dense_elimination(n):
    # sparse sets leave the vertex graphs disconnected; a flipped rhs makes
    # the rows inconsistent unless the row is outside the span of the rest;
    # at n = 33 and 48 the parameters of the sparse sets take two words.
    # The same triangles plus random 4-cycles, which tie two pairs at their
    # top vertex through two earlier pairs, go through the same forest.
    rng = np.random.default_rng(60 + n)
    n_vars = n * (n - 1) // 2
    inconsistent = 0
    for trial in range(40 if n < 33 else 8):     # the dense reference is slow past n = 32
        density = (0.02, 0.1, 0.3, 1.0)[trial % 4]
        for fours in (0, int(rng.integers(0, n_vars + 1))):
            rows, bits, groups, rhs = _planted_cycles(rng, n, density, trial % 3 == 0, fours)
            basis = gf2.SpanBasis._of_cycles(n, rows, bits)
            want = solve_groups(groups, rhs, n_vars)
            assert basis.solution() == want
            assert basis.nullity > 64 or density > 0.02 or n < 33 or fours
            inconsistent += want is None
    assert inconsistent > 0 or n < 4


def test_triangle_forest_matches_the_dense_elimination_on_the_generator_law():
    # half the triangles of generate_admissible(32, 0.3, 7) are positive
    n = 32
    minors = exact_minors(kernel.generate_admissible(n, 0.3, 7), 3)
    skel = pma.recover_skeleton(minors)
    tri = lex_combinations(n, 3)
    pi3 = pma.traveling_sums(minors, skel, tri)
    i, j, k = tri.T
    used = skel.epsilon[i, j] * skel.epsilon[j, k] * skel.epsilon[i, k] == 1
    supports, rhs = walk_rows(skel, tri[used], ~(pi3[used] > 0))
    want = solve_groups([supports], [rhs], n * (n - 1) // 2)
    assert want is not None and want.nullity == n
    assert gf2.SpanBasis._of_cycles(n, _triangle_rows(tri[used]), rhs).solution() == want
    rhs[len(rhs) // 2] ^= True
    assert gf2.SpanBasis._of_cycles(n, _triangle_rows(tri[used]), rhs).solution() is None


def _forest_check(monkeypatch, n, triangles, rhs):
    """The forest's solution, checked against the dense elimination, and
    how many rows it handed to ``_impose``."""
    imposed = []
    impose = gf2.SpanBasis._impose
    monkeypatch.setattr(gf2.SpanBasis, "_impose",
                        lambda self, work: imposed.append(len(work)) or impose(self, work))
    triangles = np.array(triangles)
    supports = kernel.pair_index(n, triangles[:, [0, 1, 0]], triangles[:, [1, 2, 2]])
    got = gf2.SpanBasis._of_cycles(n, _triangle_rows(triangles), rhs).solution()
    forest = sum(imposed)
    assert got == solve_groups([supports], [rhs], n * (n - 1) // 2)
    return got, forest


def test_triangle_forest_hangs_a_node_off_a_larger_neighbour(monkeypatch):
    # At k = 4, nodes 1 and 2 reach node 0 only through node 3, which hangs
    # off 0: both hang off 3, so every row is a tree row.
    for rhs in itertools.product([False, True], repeat=3):
        got, imposed = _forest_check(monkeypatch, 5, [[0, 3, 4], [1, 3, 4], [2, 3, 4]], list(rhs))
        assert got.nullity == 10 - 3 and imposed == 0
    # At k = 4, node 1's smallest larger neighbour 2 hangs off 1 through
    # the row (1, 2, 4), so 1 stays a root.  The rows at k = 2 and 3 tie
    # the pairs (1, 2), (1, 3) and (2, 3) to each other, so the one row
    # left, (2, 3, 4), reduces to a bare constant: it is imposed exactly
    # when it contradicts the rest.
    rows = [[1, 2, 4], [1, 3, 4], [2, 3, 4], [0, 1, 3], [0, 1, 2], [0, 2, 3]]
    outcomes = set()
    for rhs in itertools.product([False, True], repeat=len(rows)):
        got, imposed = _forest_check(monkeypatch, 5, rows, list(rhs))
        outcomes.add(got is None)
        assert imposed == (got is None)
    assert outcomes == {False, True}


@pytest.mark.parametrize("n", [4, 9, 24, 40])
def test_triangle_forest_takes_a_path_at_every_vertex(monkeypatch, n):
    # rows (j, j + 1, k): at k the nodes form the path 0 - 1 - ... - k - 1,
    # so pair (j, k) waits for (j - 1, k) and (j - 1, j), and the number of
    # dependency levels grows with n
    rng = np.random.default_rng(n)
    triangles = [[j, j + 1, k] for k in range(2, n) for j in range(k - 1)]
    for trial in range(4):
        rhs = rng.integers(0, 2, len(triangles)).astype(bool)
        got, imposed = _forest_check(monkeypatch, n, triangles, rhs)
        assert got is not None and imposed == 0
        assert got.nullity == n * (n - 1) // 2 - len(triangles)


def test_triangle_forest_takes_repeated_rows_and_checks_its_input():
    rng = np.random.default_rng(71)
    rows, bits, groups, rhs = _planted_cycles(rng, 9, 0.5, False, 20)
    twice = np.concatenate([rows, rows[:5]])
    assert gf2.SpanBasis._of_cycles(9, twice, np.concatenate([bits, bits[:5]])).solution() == \
        solve_groups(groups, rhs, 36)
    assert gf2.SpanBasis._of_cycles(9, twice, np.concatenate([bits, ~bits[:5]])).solution() is None
    for bad in ([[0, 2, 1, -1]], [[0, 1, 4, -1]], [[0, 1, 3, 1]], [[-1, 1, 3, 2]], [[0, 1, 2, 3]],
                [[0, 1, 3]], [[0, 1]]):
        with pytest.raises(DimensionError):
            gf2.SpanBasis._of_cycles(4, bad, [0])
    for bad, rhs in (([[0, 1, 3, -1]], [2]), ([[0, 1, 3, -1]], [0, 1]), ([[0.0, 1, 3, -1]], [0])):
        with pytest.raises(DimensionError):
            gf2.SpanBasis._of_cycles(4, bad, rhs)


def test_four_cycle_forest_matches_the_dense_elimination_on_the_all_negative_law():
    # no hub triangle is positive, so the 4-cycle rows of the hub joins
    # alone leave the N vertex switches
    n = 48
    minors = exact_minors(antisymmetric(n, 1), 4)
    skel = pma.recover_skeleton(minors)
    neg = skel.epsilon * skel.epsilon[0] * skel.epsilon[:, :1] < 0
    assert neg[1:, 1:].sum() == (n - 1) * (n - 2)
    rows, rhs = pma._hub_basis(minors, skel, neg, 0.0)
    assert (rows[:, 3] >= 0).all() and len({tuple(r) for r in rows.tolist()}) == len(rows)
    p, q, v, r = rows.T
    supports = kernel.pair_index(n, np.column_stack([p, q, np.minimum(p, r), np.minimum(q, r)]),
                                 np.column_stack([v, v, np.maximum(p, r), np.maximum(q, r)]))
    want = solve_groups([supports], [rhs], n * (n - 1) // 2)
    assert want is not None and want.nullity == n
    assert gf2.SpanBasis._of_cycles(n, rows, rhs).solution() == want
