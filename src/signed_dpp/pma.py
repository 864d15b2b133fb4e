"""Dense principal minor assignment: rebuild a signed kernel from its
principal minors of orders 1..4 and describe every solution.

The reconstruction runs as whole-array stages over every pair, triangle
and 4-set at once; the public stage functions are one-item calls into
the same batched code.

1. Skeleton.  Orders 1 and 2, read in bulk, give the diagonal, the
   off-diagonal magnitudes and the relating signs, via
   det(K_ij) = K_ii K_jj - eps_ij K_ij^2.
2. Traveling sums.  Orders 3 and 4 give pi(S) for every triangle and
   every 4-set as arrays, by subtracting from the prescribed minor every
   permutation class that does not involve a full-length cycle (those
   classes only need quantities already known).
3. Sign decisions.  Each positive triangle fixes the sign of one
   oriented entry product.  Each 4-set's traveling sum is matched
   against the at most 8 +-1 patterns of its positive 4-cycles, all
   4-sets at once.  This per-4-set separation test is the only
   genericity rule: a 4-set whose best two patterns lie within the
   tolerance is skipped with a warning, which enlarges the solution
   set instead of guessing.
4. The GF(2) system.  Each decision is one XOR row over the
   upper-triangle entry signs, held as an index array of its 3 or 4
   variables.  Rows already in the span of earlier rows (zero parity
   against the current null space) are filtered out, so ``gf2_solve``
   only sees rows that raise the rank.  Its particular solution is then
   checked against every row in one vectorised parity test; a violated
   row means the minors are inconsistent.  The reduced row echelon form
   of a row space is unique, so the particular solution and the
   null-space basis are those of the full system.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import gf2, graph
from .errors import (
    AmbiguousSignWarning,
    CapabilityError,
    DimensionError,
    GenericityError,
    InconsistentMinorsError,
    NotDenseError,
)
from .kernel import (
    SignedKernel,
    index_combinations,
    normalize_subset,
    principal_minors,
)
from .moments import MinorList

DENSITY_TOL = 1e-8
SIGN_TOL = 1e-12
# Sign-decision tolerances adapt to the scale of the quantity being
# matched: effective tol = max(sign_tol, SIGN_RTOL * scale).
SIGN_RTOL = 1e-6
SOLUTION_SET_CAP = 12

# Positions (into a sorted 4-set) of the four triangles of a 4-set, and
# of the vertex each one leaves out.
_FACES = np.array(list(itertools.combinations(range(4), 3)))
_FACE_REST = (3, 2, 1, 0)
# The three Hamiltonian cycles of a sorted 4-set (i, j, k, l), in the
# order of their sorted edge tuples: i-j-l-k, i-j-k-l, i-k-j-l.  Each is
# walked from i toward its smaller neighbor (the row orientation).
_CYCLE_ORDERS = ((0, 1, 3, 2), (0, 1, 2, 3), (0, 2, 1, 3))
_CYCLE_ARCS = tuple(tuple((o[t], o[(t + 1) % 4]) for t in range(4)) for o in _CYCLE_ORDERS)
_CYCLE_EDGES = tuple(tuple(sorted(tuple(sorted(arc)) for arc in arcs)) for arcs in _CYCLE_ARCS)
# Arcs that run against the upper triangle (w > u) read sign(K_wu) as
# eps_uw sign(K_uw), so their relating signs enter the right-hand side.
_CYCLE_LOWER = tuple(tuple((b, a) for a, b in arcs if a > b) for arcs in _CYCLE_ARCS)


@dataclass(frozen=True)
class Skeleton:
    """Diagonal, off-diagonal magnitudes, and relating signs of a dense
    signed matrix, as recovered from minors of orders 1 and 2."""

    n: int
    diagonal: np.ndarray   # (n,)
    magnitude: np.ndarray  # (n, n) symmetric, zero diagonal
    epsilon: np.ndarray    # (n, n) symmetric entries in {-1,+1}, zero diagonal

    def mag(self, i: int, j: int) -> float:
        return float(self.magnitude[i - 1, j - 1])

    def eps(self, i: int, j: int) -> int:
        return int(self.epsilon[i - 1, j - 1])

    def diag(self, i: int) -> float:
        return float(self.diagonal[i - 1])


@dataclass(frozen=True)
class PMASolution:
    """One reconstructed kernel plus the generators of all sign choices.

    ``free_switches`` are bitmasks over ``pairs``: XORing any subset of
    them into the base sign pattern yields another matrix with the same
    principal minors.
    """

    kernel: SignedKernel
    free_switches: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]

    @property
    def null_dimension(self) -> int:
        return len(self.free_switches)

    def sign_pattern(self) -> int:
        """Bitmask of the base kernel's upper-triangle signs (1 = negative)."""
        bits = 0
        for t, (i, j) in enumerate(self.pairs):
            if self.kernel.entry(i, j) < 0:
                bits |= 1 << t
        return bits


def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(1, n + 1), 2))


def _subset(row: np.ndarray) -> tuple[int, ...]:
    """1-based index tuple of a 0-based index row."""
    return tuple(int(x) + 1 for x in row)


def _pair_index(n: int) -> np.ndarray:
    """(n, n) variable index of each unordered pair, in ``_pairs`` order."""
    index = np.full((n, n), -1, dtype=np.intp)
    iu, ju = np.triu_indices(n, 1)
    index[iu, ju] = index[ju, iu] = np.arange(len(iu))
    return index


# ---------------------------------------------------------------------------
# stage 1: skeleton

def recover_skeleton(minors: MinorList, density_tol: float = DENSITY_TOL) -> Skeleton:
    """Diagonal, magnitudes and relating signs from orders 1 and 2."""
    n = minors.n
    diagonal = minors.get_many(np.arange(1, n + 1)[:, None])
    iu, ju = np.triu_indices(n, 1)
    gap = diagonal[iu] * diagonal[ju] - minors.get_many(np.stack([iu, ju], axis=1) + 1)
    flat = np.flatnonzero(np.abs(gap) <= density_tol)
    if flat.size:
        t = flat[0]
        raise NotDenseError(
            f"pair ({iu[t] + 1},{ju[t] + 1}): a_i a_j - a_ij = {gap[t]:.3e} is below the "
            f"density tolerance {density_tol:.0e}; entry is numerically zero")
    magnitude = np.zeros((n, n))
    epsilon = np.zeros((n, n), dtype=int)
    epsilon[iu, ju] = epsilon[ju, iu] = np.where(gap > 0, 1, -1)
    magnitude[iu, ju] = magnitude[ju, iu] = np.sqrt(np.abs(gap))
    return Skeleton(n, diagonal, magnitude, epsilon)


# ---------------------------------------------------------------------------
# stage 2: traveling sums from minors

def _pair_terms(skel: Skeleton) -> np.ndarray:
    """(n, n) matrix of eps_ab |K_ab|^2, the 2-cycle factors.

    The squares use Python's float power (the C library's pow) rather
    than numpy's x*x: the two differ in the last bit for some inputs,
    and reconstructions are kept bit-identical across releases.
    """
    iu, ju = np.triu_indices(skel.n, 1)
    squares = np.array([m ** 2 for m in skel.magnitude[iu, ju].tolist()])
    out = np.zeros((skel.n, skel.n))
    out[iu, ju] = out[ju, iu] = skel.epsilon[iu, ju] * squares
    return out


def _pi3(minors: MinorList, skel: Skeleton, pt: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """pi of each row of an (m, 3) array of sorted 0-based triangles."""
    d = skel.diagonal
    i, j, k = tri.T
    fixed = d[i] * d[j] * d[k] - d[i] * pt[j, k] - d[j] * pt[i, k] - d[k] * pt[i, j]
    return minors.get_many(tri + 1) - fixed


def _pi4(minors: MinorList, skel: Skeleton, pt: np.ndarray, quad: np.ndarray,
         face_pi3: np.ndarray) -> np.ndarray:
    """pi of each row of an (m, 4) array of sorted 0-based 4-sets, given
    the (m, 4) traveling sums of their ``_FACES`` triangles."""
    d = skel.diagonal
    v = quad.T
    fixed = d[v[0]] * d[v[1]] * d[v[2]] * d[v[3]]
    for a, b in itertools.combinations(range(4), 2):
        c, e = (x for x in range(4) if x not in (a, b))
        fixed = fixed - pt[v[a], v[b]] * d[v[c]] * d[v[e]]
    fixed = fixed + (pt[v[0], v[1]] * pt[v[2], v[3]]
                     + pt[v[0], v[2]] * pt[v[1], v[3]]
                     + pt[v[0], v[3]] * pt[v[1], v[2]])
    for t, rest in enumerate(_FACE_REST):
        fixed = fixed + face_pi3[:, t] * d[v[rest]]
    return fixed - minors.get_many(quad + 1)


def extract_pi(minors: MinorList, skel: Skeleton, s: Iterable[int]) -> float:
    """Traveling sum pi(S) for |S| in {3, 4}, extracted from minors.

    Expanding det(K_S) over permutations grouped by the supports of their
    cyclic factors, every class except the full-length cycles is a known
    function of the skeleton (and, at order 4, of the order-3 traveling
    sums); full-length cycles enter with permutation sign (-1)^{|S|-1}.
    """
    ss = normalize_subset(s, skel.n, allow_empty=False)
    if len(ss) not in (3, 4):
        raise DimensionError(f"traveling-sum extraction needs |S| in {{3,4}}, got {ss}")
    idx = np.array([ss], dtype=np.intp) - 1
    pt = _pair_terms(skel)
    if len(ss) == 3:
        return float(_pi3(minors, skel, pt, idx)[0])
    face_pi3 = _pi3(minors, skel, pt, idx[0, _FACES]).reshape(1, 4)
    return float(_pi4(minors, skel, pt, idx, face_pi3)[0])


# ---------------------------------------------------------------------------
# stage 3: cycle sign decisions

def _four_set_error(ss: tuple[int, ...], best: float, second: float,
                    tol: float) -> Exception | None:
    """Why a 4-set's best pattern cannot be used, if it cannot."""
    if best > tol:
        return InconsistentMinorsError(
            f"4-set {ss}: no sign pattern matches the traveling sum "
            f"(best residual {best:.3e} > tol {tol:.1e})")
    if second - best <= tol:
        return GenericityError(
            f"4-set {ss}: sign patterns are separated by {second - best:.1e} "
            f"< tol {tol:.1e}; magnitude products are too close to decide")
    return None


def _four_cycle_signs(skel: Skeleton, quad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, 3) edge-sign products and magnitude products of each 4-set's cycles."""
    v, m = quad.T, skel.magnitude
    eps = np.ones((len(quad), 3), dtype=int)
    mags = np.empty((len(quad), 3))
    for c, edges in enumerate(_CYCLE_EDGES):
        ends = [(v[a], v[b]) for a, b in edges]
        for a, b in ends:
            eps[:, c] *= skel.epsilon[a, b]
        (a0, b0), (a1, b1), (a2, b2), (a3, b3) = ends
        mags[:, c] = m[a0, b0] * m[a1, b1] * m[a2, b2] * m[a3, b3]
    return eps, mags


def _match_four_cycles(skel: Skeleton, quad: np.ndarray, pi4: np.ndarray, tol: float):
    """Score every candidate pattern of every 4-set against its pi4.

    Each positive cycle contributes twice its oriented product, whose
    magnitude is the product of its four edge magnitudes.  A 4-set has 1
    or 3 positive cycles (each edge lies on two of the three cycles), so
    at most 8 candidates.  The first minimal residual wins.  Returns the
    (m, 3) positive cycles (columns follow ``_CYCLE_ORDERS``), the (m, 3)
    positive cycles the best pattern makes negative, and per 4-set the
    best and second-smallest residuals and the effective tolerance.
    """
    eps, mags = _four_cycle_signs(skel, quad)
    positive = eps == 1
    count = positive.sum(axis=1)
    # positive-cycle magnitudes packed to the left, in cycle order
    packed = np.where(count[:, None] == 3, mags, 0.0)
    single = count == 1
    packed[single, 0] = mags[single, positive[single].argmax(axis=1)]
    bits = np.arange(8)
    flips = np.where((bits[:, None] >> np.arange(3)) & 1 == 1, -1.0, 1.0)  # (8, 3)
    totals = 2.0 * (flips[:, 0] * packed[:, :1] + flips[:, 1] * packed[:, 1:2]
                    + flips[:, 2] * packed[:, 2:])
    residual = np.abs(totals - pi4[:, None])
    residual[bits[None, :] >= (1 << count)[:, None]] = np.inf
    pattern = residual.argmin(axis=1)
    rows = np.arange(len(quad))
    rank = np.maximum(np.cumsum(positive, axis=1) - 1, 0)
    negative = positive & ((pattern[:, None] >> rank) & 1 == 1)
    return (positive, negative, residual[rows, pattern],
            np.partition(residual, 1, axis=1)[:, 1],
            np.maximum(tol, SIGN_RTOL * 2.0 * mags.max(axis=1)))


def _cycle_key(ss: tuple[int, ...], c: int) -> graph.Cycle:
    return tuple((ss[a], ss[b]) for a, b in _CYCLE_EDGES[c])


def disambiguate_four_cycles(skel: Skeleton, s: Iterable[int], pi4: float,
                             tol: float = SIGN_TOL) -> dict[graph.Cycle, int]:
    """The unique sign pattern on the positive 4-cycles matching pi4.

    Each positive cycle contributes twice its oriented product, whose
    magnitude is the product of the four edge magnitudes; the pattern is
    found by checking all 2^t candidates.  Raises GenericityError when
    the best two candidates lie within the tolerance (the 4-set's signs
    are not identifiable) and InconsistentMinorsError when none matches.
    """
    ss = normalize_subset(s, skel.n, allow_empty=False)
    if len(ss) != 4:
        raise DimensionError(f"expected a 4-subset, got {ss}")
    positive, negative, best, second, eff_tol = _match_four_cycles(
        skel, np.array([ss], dtype=np.intp) - 1, np.array([pi4], dtype=float), tol)
    exc = _four_set_error(ss, best[0], second[0], eff_tol[0])
    if exc is not None:
        raise exc
    return {_cycle_key(ss, c): (-1 if negative[0, c] else 1) for c in range(3) if positive[0, c]}


# ---------------------------------------------------------------------------
# stage 4: the GF(2) sign system

def _triangle_rows(skel: Skeleton, tri: np.ndarray, negative: np.ndarray):
    """XOR rows (supports, rhs) of known triangle product signs."""
    index = _pair_index(skel.n)
    i, j, k = tri.T
    support = np.stack([index[i, j], index[j, k], index[i, k]], axis=1)
    return support, negative ^ (skel.epsilon[i, k] == -1)


def _four_cycle_rows(skel: Skeleton, quad: np.ndarray, cycle: np.ndarray,
                     negative: np.ndarray):
    """XOR rows (supports, rhs) of known 4-cycle product signs.

    Row t is cycle ``cycle[t]`` (a column of ``_CYCLE_ORDERS``) of 4-set
    ``quad[t]``, walked in its row orientation.
    """
    index = _pair_index(skel.n)
    support = np.empty((len(quad), 4), dtype=np.intp)
    rhs = negative.copy()
    for c in range(3):
        sel = cycle == c
        v = quad[sel].T
        support[sel] = np.stack([index[v[a], v[b]] for a, b in _CYCLE_EDGES[c]], axis=1)
        for a, b in _CYCLE_LOWER[c]:
            rhs[sel] ^= skel.epsilon[v[a], v[b]] == -1
    return support, rhs


def _system(n_vars: int, groups) -> gf2.GF2System:
    system = gf2.GF2System(n_vars)
    for support, rhs in groups:
        for row, bit in zip(support.tolist(), rhs.tolist()):
            system.add_row(row, int(bit))
    return system


def build_sign_system(skel: Skeleton,
                      triangle_signs: dict[tuple[int, int, int], int],
                      four_cycle_signs: dict[graph.Cycle, int]) -> gf2.GF2System:
    """Constraints on the upper-triangle entry signs.

    Variables follow ``_pairs`` order.  A known oriented-product sign
    turns into one XOR row: each arc below the diagonal contributes its
    relating sign to the right-hand side, since sign(K_wu) for w > u is
    eps_uw * sign(K_uw).
    """
    triangles = sorted(triangle_signs)
    tri = np.array(triangles, dtype=np.intp).reshape(-1, 3) - 1
    tri_negative = np.array([gf2.sign_to_bit(triangle_signs[t]) for t in triangles], dtype=bool)
    cycles = sorted(four_cycle_signs)
    quads = [graph.cycle_vertices(c) for c in cycles]
    kinds = [next((k for k in range(3) if len(ss) == 4 and _cycle_key(ss, k) == c), -1)
             for ss, c in zip(quads, cycles)]
    if -1 in kinds:
        raise DimensionError(f"expected Hamiltonian cycles on 4-sets, got {cycles[kinds.index(-1)]}")
    quad = np.array(quads, dtype=np.intp).reshape(-1, 4) - 1
    quad_negative = np.array([gf2.sign_to_bit(four_cycle_signs[c]) for c in cycles], dtype=bool)
    return _system(len(_pairs(skel.n)), [
        _triangle_rows(skel, tri, tri_negative),
        _four_cycle_rows(skel, quad, np.array(kinds, dtype=np.intp), quad_negative)])


# ---------------------------------------------------------------------------
# end to end

def solve_pma(minors: MinorList, sign_tol: float = SIGN_TOL,
              density_tol: float = DENSITY_TOL) -> PMASolution:
    """Reconstruct a dense signed kernel from minors of orders up to 4.

    Sign decisions whose underlying quantity falls below ``sign_tol``
    are skipped with an AmbiguousSignWarning (they only shrink the
    constraint set); outright contradictions raise.
    """
    n = minors.n
    skel = recover_skeleton(minors, density_tol)

    # triangles: a positive triangle's pi3 carries its product sign
    pt = _pair_terms(skel)
    tri = index_combinations(n, 3)
    pi3 = _pi3(minors, skel, pt, tri)
    i, j, k = tri.T
    mag, eps = skel.magnitude, skel.epsilon
    tri_tol = np.maximum(sign_tol, SIGN_RTOL * (2.0 * mag[i, j] * mag[j, k] * mag[i, k]))
    positive = eps[i, j] * eps[j, k] * eps[i, k] == 1
    small = np.abs(pi3) <= tri_tol
    bad = np.flatnonzero(~positive & ~small)
    skipped = np.flatnonzero(positive & small)
    for t in skipped[skipped < (bad[0] if bad.size else len(tri))]:
        warnings.warn(
            f"triangle {_subset(tri[t])}: traveling sum {pi3[t]:.3e} below tol "
            f"{tri_tol[t]:.1e}; skipping its sign constraint",
            AmbiguousSignWarning, stacklevel=2)
    if bad.size:
        t = bad[0]
        raise InconsistentMinorsError(
            f"triangle {_subset(tri[t])} is negative but its traveling sum is "
            f"{pi3[t]:.3e}; the minor list is not realizable at tol {tri_tol[t]:.1e}")
    used = positive & ~small

    # 4-sets: one sign per positive cycle, unless the patterns are too close
    quad = index_combinations(n, 4)
    tri_index = np.zeros((n, n, n), dtype=np.intp)
    tri_index[i, j, k] = np.arange(len(tri))
    faces = quad[:, _FACES]
    pi4 = _pi4(minors, skel, pt, quad,
               pi3[tri_index[faces[..., 0], faces[..., 1], faces[..., 2]]])
    cycles, negative, best, second, quad_tol = _match_four_cycles(skel, quad, pi4, sign_tol)
    bad = np.flatnonzero(best > quad_tol)
    ambiguous = np.flatnonzero(second - best <= quad_tol)
    for t in ambiguous[ambiguous < (bad[0] if bad.size else len(quad))]:
        exc = _four_set_error(_subset(quad[t]), best[t], second[t], quad_tol[t])
        warnings.warn(f"{exc}; skipping the 4-set's sign constraints",
                      AmbiguousSignWarning, stacklevel=2)
    if bad.size:
        t = bad[0]
        raise _four_set_error(_subset(quad[t]), best[t], second[t], quad_tol[t])
    cycles[ambiguous] = False
    rows, cycle = np.nonzero(cycles)

    # GF(2): solve on a basis of the rows, then check every row
    groups = [_triangle_rows(skel, tri[used], ~(pi3[used] > 0)),
              _four_cycle_rows(skel, quad[rows], cycle, negative[rows, cycle])]
    n_vars = n * (n - 1) // 2
    keep = gf2.spanning_rows([support for support, _ in groups], n_vars)
    # independent rows are always consistent; a dropped row that
    # contradicts them shows up as a parity violation
    solution = gf2.gf2_solve(_system(n_vars, [
        (support[idx], rhs[idx]) for (support, rhs), idx in zip(groups, keep)]))
    x = np.array(gf2.bits_of(solution.particular, n_vars), dtype=bool)
    if any(np.any(gf2.parities(support, x) != rhs) for support, rhs in groups):
        raise InconsistentMinorsError(
            "cycle sign constraints are mutually inconsistent; "
            "the minor list is not realizable in the signed class")

    return PMASolution(kernel=_assemble(skel.diagonal, mag, eps, x),
                       free_switches=solution.null_basis,
                       pairs=_pairs(n))


def _assemble(diagonal: np.ndarray, magnitude: np.ndarray, epsilon: np.ndarray,
              negative: np.ndarray) -> SignedKernel:
    """The kernel with this diagonal and these magnitudes whose upper
    entries are negative where ``negative`` (in ``_pairs`` order) is set,
    and whose lower entries are K_ji = eps_ij K_ij."""
    iu, ju = np.triu_indices(len(diagonal), 1)
    mat = np.diag(diagonal)
    mat[iu, ju] = np.where(negative, -1, 1) * magnitude[iu, ju]
    mat[ju, iu] = epsilon[iu, ju] * mat[iu, ju]
    return SignedKernel(mat)


def describe_solution_set(sol: PMASolution) -> list[SignedKernel]:
    """Every kernel in the solution coset (2^nullity sign assignments)."""
    d = sol.null_dimension
    if d > SOLUTION_SET_CAP:
        raise CapabilityError(
            f"solution set has 2^{d} members, above the 2^{SOLUTION_SET_CAP} "
            "enumeration cap; use the free_switches generators instead")
    k = sol.kernel
    k.require_signed()
    eps = np.where(k.mat * k.mat.T > 0, 1, -1)
    return [_assemble(np.diag(k.mat), np.abs(k.mat), eps,
                      np.array(gf2.bits_of(bits, len(sol.pairs)), dtype=bool))
            for bits in gf2.coset(sol.sign_pattern(), sol.free_switches)]


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class VerifyReport:
    """Per-subset discrepancies of a kernel against a minor list."""

    passed: bool
    checked: int
    max_abs_error: float
    worst_subset: tuple[int, ...] | None
    failures: tuple[tuple[tuple[int, ...], float, float], ...]
    warning: str | None = None

    def __str__(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        note = f" ({self.warning})" if self.warning else ""
        return (f"{state}: {self.checked} minors checked, "
                f"max abs error {self.max_abs_error:.3e}, "
                f"{len(self.failures)} failures{note}")


def verify(h: SignedKernel, minors: MinorList, tol: float = 1e-9) -> VerifyReport:
    """Check det(H_J) against every listed minor.

    A subset passes on relative error when |a_J| > tol and on absolute
    error otherwise.  An empty list passes vacuously, with a warning.
    """
    if len(minors) == 0:
        return VerifyReport(passed=True, checked=0, max_abs_error=0.0,
                            worst_subset=None, failures=(),
                            warning="empty minor list: vacuous pass")
    subsets, want = zip(*minors.items())
    want = np.array(want)
    got = principal_minors(h.mat, subsets)
    err = np.abs(got - want)
    worst = int(np.argmax(err))
    ok = np.where(np.abs(want) > tol, err <= tol * np.abs(want), err <= tol)
    failures = tuple((subsets[t], float(got[t]), float(want[t])) for t in np.flatnonzero(~ok))
    return VerifyReport(passed=not failures, checked=len(minors),
                        max_abs_error=float(err[worst]),
                        worst_subset=subsets[worst] if err[worst] > 0 else None,
                        failures=failures)


# ---------------------------------------------------------------------------
# solution-set sidecar JSON

def solution_set_json(sol: PMASolution) -> str:
    import json

    return json.dumps({
        "null_basis": [list(gf2.bits_of(vec, len(sol.pairs)))
                       for vec in sol.free_switches],
        "pairs": [f"{i},{j}" for i, j in sol.pairs],
    })
