"""Dense principal minor assignment: rebuild a signed kernel from its
principal minors of orders 1..4 and describe every solution.

The reconstruction runs as whole-array stages.  ``solve_pma`` composes
the public stage functions ``recover_skeleton``, ``traveling_sums`` and
``match_four_cycles`` with a ``gf2.SpanBasis``; there is no one-item
entry point.  Each sign decision is one XOR row over the upper-triangle
entry signs.  Every cycle is described once, in one table per subset
size (``_TRIANGLE``, ``_FOUR_CYCLES``): its edges and the arcs its row
orientation walks against the upper triangle.  ``_cycles`` reads each
cycle's relating-sign product, magnitude product, right-hand-side flip
and edge endpoints off that table, once per subset for all the stages
that use them.

1. Skeleton.  Orders 1 and 2, each read whole, give the diagonal, the
   off-diagonal magnitudes and the relating signs, via
   det(K_ij) = K_ii K_jj - eps_ij K_ij^2.
2. Traveling sums.  The minor of a triangle or 4-set gives its pi(S),
   by subtracting every permutation class that does not involve a
   full-length cycle (those classes only need quantities already known).
3. Triangles.  Order 3 is read whole, and each positive triangle fixes
   the sign of one oriented entry product.  Its row ties the two pairs
   at its top vertex v in a parity forest per v
   (``gf2.SpanBasis._of_cycles``).
4. 4-sets, only to join two components of those forests, while the null
   space is larger than the span of the vertex switches and the
   transpose, which every positive cycle leaves in it.  A positive
   4-cycle with top vertex v is a candidate edge between v's two
   neighbours on it; which cycles are positive follows from the relating
   signs alone.  In Borůvka rounds, every component reads the 4-set of
   its first leaving candidate in colex order, and matches its traveling
   sum against the at most 8 +-1 patterns of its positive cycles.  The
   decided cycles join components.  This per-4-set separation test is
   the only genericity rule: a 4-set whose best two patterns lie within
   the tolerance is skipped with a warning, and the next candidate for
   that join is tried; after a round that joins nothing, every candidate
   left is read at once.  The rounds stop when no candidate joins two
   components; then ``_of_cycles`` solves the triangle and 4-cycle rows.

A 4-cycle row whose pairs at v share a component reduces, through the
tree rows at v, to a positive even subgraph below v, which the rows of
smaller top vertices span.  So on exact minors with no skipped decision
the solution is that of every triangle and 4-cycle row, and otherwise
the rows read are a subset of those, so the coset can only be larger;
the reduced row echelon form of a row space is unique.  Errors and
warnings only concern minors that were read: a wrong 4-set minor that
is never read does not change the solution, and ``verify`` reports it.
A row that contradicts the others means the minors are inconsistent.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import (
    AmbiguousSignWarning,
    CapabilityError,
    DimensionError,
    InconsistentMinorsError,
    NotDenseError,
)
from .kernel import (
    SignedKernel,
    colex_key,
    colex_minors,
    colex_table,
    pair_index,
    principal_minors,
)
from .moments import MinorList, exact_minors

DENSITY_TOL = 1e-8
SIGN_TOL = 1e-12
# Sign-decision tolerances adapt to the scale of the quantity being
# matched: effective tol = max(sign_tol, SIGN_RTOL * scale).
SIGN_RTOL = 1e-6
SOLUTION_SET_CAP = 12
_VERIFY_SLICE = 1 << 16    # subsets of one order that verify compares at a time

# Positions (into a sorted 4-set) of the four triangles of a 4-set, and
# of the vertex each one leaves out.
_FACES = np.array(list(itertools.combinations(range(4), 3)))
_FACE_REST = (3, 2, 1, 0)
# The three Hamiltonian cycles of a sorted 4-set (i, j, k, l): i-j-l-k,
# i-j-k-l, i-k-j-l, each walked from i toward its smaller neighbor (the
# row orientation).
_CYCLE_ORDERS = ((0, 1, 3, 2), (0, 1, 2, 3), (0, 2, 1, 3))


def _cycle_table(arcs) -> tuple[np.ndarray, np.ndarray]:
    """A cycle table from cycles given as lists of arcs (a, b) between
    positions of a sorted subset, walked in row orientation.  Each cycle
    is its (w, 2) edges, as sorted position pairs in the order of its
    magnitude product, and a (w,) flag on the arcs with a > b: such an
    arc reads the lower entry K_ab = eps_ab K_ba, so its relating sign
    enters the right-hand side."""
    arcs = np.array(arcs)
    return np.sort(arcs, axis=2), arcs[..., 0] > arcs[..., 1]


# The one cycle of a triangle, i-j-k, with its edges in the order i-j,
# j-k, i-k, and the three of a 4-set, with their edges sorted.
_TRIANGLE = _cycle_table([[(0, 1), (1, 2), (2, 0)]])
_FOUR_CYCLES = _cycle_table([sorted(zip(o, o[1:] + o[:1]), key=sorted) for o in _CYCLE_ORDERS])

# The six pairs of a sorted 4-set, in pair_index(4, ...) order, and the
# (3, 4) indices of each cycle's edges among them.  A cycle's edges at
# position 3 end at its two neighbours there; position c is opposite it.
_PAIRS4 = np.triu_indices(4, 1)
_EDGES4 = pair_index(4, _FOUR_CYCLES[0][..., 0], _FOUR_CYCLES[0][..., 1])
_NEIGHBOURS = _FOUR_CYCLES[0][..., 0][_FOUR_CYCLES[0][..., 1] == 3].reshape(3, 2)


@dataclass(frozen=True)
class Skeleton:
    """Diagonal, off-diagonal magnitudes, and relating signs of a dense
    signed matrix, as recovered from minors of orders 1 and 2 (0-based)."""

    n: int
    diagonal: np.ndarray   # (n,)
    magnitude: np.ndarray  # (n, n) symmetric, zero diagonal
    epsilon: np.ndarray    # (n, n) symmetric entries in {-1,+1}, zero diagonal


@dataclass(frozen=True)
class PMASolution:
    """One reconstructed kernel plus the generators of all sign choices.

    ``solution`` is the GF(2) solution over the upper-triangle entry
    signs, as bitmasks over ``pairs`` (bit 1 = negative).  Its particular
    solution is the kernel's sign pattern, and XORing any subset of its
    null basis, the ``free_switches``, into that pattern yields another
    matrix with the same principal minors.
    """

    kernel: SignedKernel
    solution: gf2.GF2Solution
    pairs: tuple[tuple[int, int], ...]

    @property
    def free_switches(self) -> tuple[int, ...]:
        return self.solution.null_basis

    @property
    def null_dimension(self) -> int:
        return self.solution.nullity

    def sign_pattern(self) -> int:
        """Bitmask of the base kernel's upper-triangle signs (1 = negative)."""
        return self.solution.particular


def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(1, n + 1), 2))


def _subset(row: np.ndarray) -> tuple[int, ...]:
    """1-based index tuple of a 0-based index row."""
    return tuple(int(x) + 1 for x in row)


# ---------------------------------------------------------------------------
# stage 1: skeleton

def recover_skeleton(minors: MinorList) -> Skeleton:
    """Diagonal, magnitudes and relating signs from orders 1 and 2, each
    read whole as its ``colex_table``.

    Each relating sign eps_ij is the sign of a_i a_j - a_ij, with no
    noise margin and no warning; only the density tolerance
    ``DENSITY_TOL`` is checked.
    On estimated minors a pair whose K_ij^2 lies below the noise of its
    pair minor can get the wrong sign, and every later decision builds
    on it: at N = 16 from 1e4 sequential draws, 51 of 120 were wrong.
    """
    n = minors.n
    diagonal = minors.get_many(colex_table(n, 1))
    i, j = colex_table(n, 2).T.astype(np.intp) - 1
    gap = diagonal[i] * diagonal[j] - minors.get_many(colex_table(n, 2))
    flat = np.flatnonzero(np.abs(gap) <= DENSITY_TOL)
    if flat.size:
        t = flat[np.argmin(pair_index(n, i[flat], j[flat]))]     # lexicographically first
        raise NotDenseError(
            f"pair ({i[t] + 1},{j[t] + 1}): a_i a_j - a_ij = {gap[t]:.3e} is below the "
            f"density tolerance {DENSITY_TOL:.0e}; entry is numerically zero")
    magnitude = np.zeros((n, n))
    epsilon = np.zeros((n, n), dtype=int)
    epsilon[i, j] = epsilon[j, i] = np.where(gap > 0, 1, -1)
    magnitude[i, j] = magnitude[j, i] = np.sqrt(np.abs(gap))
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
    d, pair = skel.diagonal[quad].T, pt[quad[:, _PAIRS4[0]], quad[:, _PAIRS4[1]]].T
    fixed = d[0] * d[1] * d[2] * d[3]
    for k, (a, b) in enumerate(zip(*_PAIRS4)):
        c, e = (x for x in range(4) if x not in (a, b))
        fixed = fixed - pair[k] * d[c] * d[e]
    fixed = fixed + (pair[0] * pair[5] + pair[1] * pair[4] + pair[2] * pair[3])
    for t, rest in enumerate(_FACE_REST):
        fixed = fixed + face_pi3[:, t] * d[rest]
    return fixed - minors.get_many(quad + 1)


def traveling_sums(minors: MinorList, skel: Skeleton, subsets: np.ndarray) -> np.ndarray:
    """pi(S) of each row of an (m, 3) or (m, 4) array of sorted 0-based
    triangles or 4-sets, extracted from their minors.

    Expanding det(K_S) over permutations grouped by the supports of
    their cyclic factors, every class except the full-length cycles is a
    known function of the skeleton (and, at order 4, of the traveling
    sums of the four face triangles); full-length cycles enter with
    permutation sign (-1)^{|S|-1}.  Only the minors of the given subsets
    (and of the faces of given 4-sets) are read.
    """
    subsets = np.asarray(subsets)
    if subsets.ndim != 2 or subsets.shape[1] not in (3, 4):
        raise DimensionError(f"expected (m, 3) triangles or (m, 4) 4-sets, got shape {subsets.shape}")
    pt = _pair_terms(skel)
    if subsets.shape[1] == 3:
        return _pi3(minors, skel, pt, subsets)
    faces = _pi3(minors, skel, pt, subsets[:, _FACES].reshape(-1, 3)).reshape(-1, 4)
    return _pi4(minors, skel, pt, subsets, faces)


# ---------------------------------------------------------------------------
# cycles: signs, magnitudes and XOR rows

def _cycles(skel: Skeleton, sets: np.ndarray, table) -> tuple[np.ndarray, ...]:
    """Per row of an (m, s) array of sorted 0-based subsets and per cycle
    of ``table`` (``_TRIANGLE`` or ``_FOUR_CYCLES``): the (m, c)
    relating-sign products, the (m, c) magnitude products, the (m, c)
    right-hand-side flips and the (m, c, w) endpoints a < b of the
    cycles' edges.  A cycle whose oriented entry product has sign bit
    ``negative`` gives the row (``pair_index`` of its edges, negative ^
    flip).  No minor is read."""
    edges, lower = table
    a, b = sets[:, edges[..., 0]], sets[:, edges[..., 1]]
    eps = skel.epsilon[a, b]
    product = functools.reduce(np.multiply, np.moveaxis(skel.magnitude[a, b], 2, 0))
    return eps.prod(axis=2), product, np.logical_xor.reduce((eps == -1) & lower, axis=2), a, b


# Bit c of pattern p makes cycle c of a 4-set negative.
_PATTERNS = (np.arange(8)[:, None] >> np.arange(3)) & 1 == 1


def match_four_cycles(skel: Skeleton, quad: np.ndarray, pi4: np.ndarray, tol: float):
    """Score every candidate pattern of every 4-set against its pi4.

    Each positive cycle contributes twice its oriented product, whose
    magnitude is the product of its four edge magnitudes.  A 4-set has 1
    or 3 positive cycles (each edge lies on two of the three cycles), so
    at most 8 candidates; a pattern that flips a cycle that is not
    positive is no candidate.  The first minimal residual wins.  Returns
    the (m, 3) positive cycles (columns follow ``_CYCLE_ORDERS``), the
    (m, 3) positive cycles the best pattern makes negative, and per 4-set
    the best and second-smallest residuals and the effective tolerance
    ``max(tol, SIGN_RTOL * scale)``.  A 4-set is decided when the best
    residual is within that tolerance and the second is not.
    """
    return _match(*_cycles(skel, quad, _FOUR_CYCLES)[:2], pi4, tol)


def _match(sign: np.ndarray, mags: np.ndarray, pi4: np.ndarray, tol: float):
    """``match_four_cycles`` on the sign and magnitude products of ``_cycles``."""
    positive = sign == 1
    packed = np.where(positive, mags, 0.0)
    flips = np.where(_PATTERNS, -1.0, 1.0)  # (8, 3)
    totals = 2.0 * (flips[:, 0] * packed[:, :1] + flips[:, 1] * packed[:, 1:2]
                    + flips[:, 2] * packed[:, 2:])
    residual = np.abs(totals - pi4[:, None])
    residual[(_PATTERNS & ~positive[:, None, :]).any(axis=2)] = np.inf
    pattern = residual.argmin(axis=1)
    return (positive, positive & _PATTERNS[pattern], residual[np.arange(len(pi4)), pattern],
            np.partition(residual, 1, axis=1)[:, 1],
            np.maximum(tol, SIGN_RTOL * 2.0 * mags.max(axis=1)))


def _screen(skipped: np.ndarray, bad: np.ndarray, warning, error, stacklevel: int) -> None:
    """Warn with ``warning(t)`` on each skipped decision t before the
    first bad one, then raise ``error(t)`` on that one.  ``skipped`` and
    ``bad`` are (m,) masks; ``stacklevel`` counts from the caller."""
    stop = int(bad.argmax()) if bad.any() else len(bad)
    for t in np.flatnonzero(skipped[:stop]):
        warnings.warn(warning(t), AmbiguousSignWarning, stacklevel=stacklevel + 1)
    if stop < len(bad):
        raise InconsistentMinorsError(error(stop))


# ---------------------------------------------------------------------------
# end to end: stages 3 and 4

def solve_pma(minors: MinorList, sign_tol: float = SIGN_TOL) -> PMASolution:
    """Reconstruct a dense signed kernel from minors of orders up to 4.

    Every minor of orders 1-3 is read, but a 4-set only when it is the
    first candidate to join two components of a vertex forest (see the
    module docstring); errors and warnings only concern minors read.
    Sign decisions whose underlying quantity falls below ``sign_tol``
    are skipped with an AmbiguousSignWarning (they only shrink the
    constraint set); outright contradictions raise.  ``sign_tol`` must
    be finite and nonnegative.
    """
    _check_tol("sign_tol", sign_tol)
    n = minors.n
    skel = recover_skeleton(minors)
    tri = colex_table(n, 3).astype(np.intp) - 1
    pi3 = traveling_sums(minors, skel, tri)

    # triangles: a positive triangle's pi3 carries its product sign
    sign, mag3, flip = (a[:, 0] for a in _cycles(skel, tri, _TRIANGLE)[:3])
    tri_tol = np.maximum(sign_tol, SIGN_RTOL * (2.0 * mag3))
    positive = sign == 1
    small = np.abs(pi3) <= tri_tol
    _screen(positive & small, ~positive & ~small,
            lambda t: (f"triangle {_subset(tri[t])}: traveling sum {pi3[t]:.3e} below tol "
                       f"{tri_tol[t]:.1e}; skipping its sign constraint"),
            lambda t: (f"triangle {_subset(tri[t])} is negative but its traveling sum is "
                       f"{pi3[t]:.3e}; the minor list is not realizable at tol {tri_tol[t]:.1e}"),
            stacklevel=2)
    used = positive & ~small
    cycles = np.concatenate([tri[used], np.full((used.sum(), 1), -1)], axis=1)
    rhs = ~(pi3[used] > 0) ^ flip[used]
    basis = gf2.SpanBasis._of_cycles(n, cycles, rhs)

    # 4-sets, only while the null space is larger than the span of the
    # vertex switches and the transpose's flips (the pairs with eps = -1):
    # every row is a positive cycle, on which they have even parity
    eps = skel.epsilon
    sigma = np.where(np.arange(n) == 0, 1, eps[0])
    floor = n - 1 + (not np.array_equal(eps + np.eye(n, dtype=int), np.outer(sigma, sigma)))
    if basis.nullity > floor:
        more, more_rhs = _join_four_cycles(minors, skel, cycles, sign_tol)
        if len(more):
            basis = gf2.SpanBasis._of_cycles(n, np.concatenate([cycles, more]),
                                             np.concatenate([rhs, more_rhs]))

    # a row that contradicts the rest leaves no solution
    solution = basis.solution()
    if solution is None:
        raise InconsistentMinorsError(
            "cycle sign constraints are mutually inconsistent; "
            "the minor list is not realizable in the signed class")
    x = np.array(gf2.bits_of(solution.particular, basis.n_vars), dtype=bool)

    return PMASolution(kernel=_assemble(skel.diagonal, skel.magnitude, eps, x),
                       solution=solution, pairs=_pairs(n))


def _join_four_cycles(minors: MinorList, skel: Skeleton, cycles: np.ndarray,
                      sign_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Stage 4 (see the module docstring): the decided 4-cycle rows, as
    ``gf2.SpanBasis._of_cycles`` rows (p, q, v, r) and right-hand sides,
    of the 4-sets read by Borůvka rounds over the components that the
    triangle rows ``cycles`` leave."""
    n = skel.n
    comp = _join(np.arange(n * (n - 1) // 2, dtype=np.int32),
                 pair_index(n, cycles[:, 0], cycles[:, 2]), pair_index(n, cycles[:, 1], cycles[:, 2]))
    # 4-sets last: the negative pairs and cycles of each 4-set, the pairs
    # (x, v) of its lower vertices x at its top vertex v, and the positive
    # cycles whose two neighbours of v lie in two components, in colex
    # order: 4-set t, then cycle c
    quad = colex_table(n, 4).T.astype(np.int32) - 1
    minus = (skel.epsilon < 0)[quad[_PAIRS4[0]], quad[_PAIRS4[1]]]
    node = pair_index(n, quad[:3], quad[3])
    p, q = node[_NEIGHBOURS[:, 0]], node[_NEIGHBOURS[:, 1]]
    t, c = np.nonzero((~np.logical_xor.reduce(minus[_EDGES4], axis=1) & (comp[p] != comp[q])).T)
    at = np.stack([p[c, t], q[c, t]], axis=1)
    del quad, minus, node, p, q, c      # O(C(n, 4)) each, unused from here
    read = np.zeros(math.comb(n, 4), dtype=bool)
    rows, rhs = [np.zeros((0, 4), dtype=np.intp)], [np.zeros(0, dtype=bool)]
    joined, last = True, False
    while not last:
        ends = comp[at]
        live = (ends[:, 0] != ends[:, 1]) & ~read[t]
        if not live.all():
            t, at, ends = t[live], at[live], ends[live]
        if not len(t):
            break
        if joined:      # each component's first candidate
            first, position = np.full(len(comp), len(t)), np.arange(len(t))
            np.minimum.at(first, ends[:, 0], position)
            np.minimum.at(first, ends[:, 1], position)
        last = not joined   # after a round that joined nothing, every candidate left
        picked = np.zeros_like(read)
        picked[t[first[first < len(t)]] if joined else t] = True
        read |= picked
        sets = colex_table(n, 4)[picked].astype(np.intp) - 1
        sign, mags, flip, _, _ = _cycles(skel, sets, _FOUR_CYCLES)
        decided, negative, best, second, tol = _match(
            sign, mags, traveling_sums(minors, skel, sets), sign_tol)
        ambiguous = second - best <= tol
        _screen(ambiguous, best > tol,
                lambda i: (f"4-set {_subset(sets[i])}: sign patterns are separated by "
                           f"{second[i] - best[i]:.1e} < tol {tol[i]:.1e}; magnitude products "
                           "are too close to decide; skipping the 4-set's sign constraints"),
                lambda i: (f"4-set {_subset(sets[i])}: no sign pattern matches the traveling "
                           f"sum (best residual {best[i]:.3e} > tol {tol[i]:.1e})"),
                stacklevel=3)
        decided[ambiguous] = False
        joined = decided.any()
        if joined:
            s, c = np.nonzero(decided)
            new = np.column_stack([sets[s[:, None], _NEIGHBOURS[c]], sets[s, 3], sets[s, c]])
            rows.append(new)
            rhs.append(negative[s, c] ^ flip[s, c])
            _join(comp, pair_index(n, new[:, 0], new[:, 2]), pair_index(n, new[:, 1], new[:, 2]))
    return np.concatenate(rows), np.concatenate(rhs)


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union-find in place: ``root`` maps each node to the smallest node
    of its component, and goes on doing so once the edges a - b have
    joined theirs.  Each pass hooks the larger root of every edge under
    the smallest root it meets there, then points each node at its root."""
    while (split := root[a] != root[b]).any():
        a, b = a[split], b[split]
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not ((up := root[root]) == root).all():
            root[:] = up
    return root


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
            for bits in sol.solution.members()]


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
    Failures are listed in colexicographic order, and the worst subset
    is the colex-first one of largest error.  ``tol`` must be finite and
    nonnegative.  When orders 3 and 4 are both whole, their minors of h
    come from one ``kernel.colex_minors`` pass, which agrees bit for bit
    with the ``principal_minors`` that the other orders take.  Each order
    is compared 2^16 subsets at a time (one slice per order up to N = 36).
    """
    _check_tol("tol", tol)
    if h.n != minors.n:
        raise DimensionError(f"dimension mismatch: kernel N = {h.n}, minor list N = {minors.n}")
    if len(minors) == 0:
        return VerifyReport(passed=True, checked=0, max_abs_error=0.0,
                            worst_subset=None, failures=(),
                            warning="empty minor list: vacuous pass")
    parts = list(minors.arrays())
    sizes = [len(subsets) for subsets, _ in parts if subsets.shape[1] in (3, 4)]
    whole = {}
    if sizes == [math.comb(h.n, 3), math.comb(h.n, 4)]:    # both orders whole
        whole = dict(zip((3, 4), colex_minors(h.mat)))
    failures, worst, ties = [], 0.0, []
    for subsets, want in parts:
        whole_got = whole.pop(subsets.shape[1], None)
        top, at = 0.0, []     # the order's largest error (NaN if one is) and its subsets
        for lo in range(0, len(subsets), _VERIFY_SLICE):
            rows, w = subsets[lo:lo + _VERIFY_SLICE], want[lo:lo + _VERIFY_SLICE]
            got = principal_minors(h.mat, rows) if whole_got is None else whole_got[lo:lo + _VERIFY_SLICE]
            err = np.abs(got - w)
            ok = np.where(np.abs(w) > tol, err <= tol * np.abs(w), err <= tol)
            failures += [(tuple(rows[t].tolist()), float(got[t]), float(w[t]))
                         for t in np.flatnonzero(~ok)]
            part = float(err.max(initial=0.0))
            if part > top or math.isnan(part):
                top, at = part, []
            if part == top > 0:
                at += [tuple(rows[t].tolist()) for t in np.flatnonzero(err == top)]
        if top > worst:
            worst, ties = top, []
        if top == worst > 0:
            ties += at
    failures.sort(key=lambda f: colex_key(f[0]))
    return VerifyReport(passed=not failures, checked=len(minors), max_abs_error=worst,
                        worst_subset=min(ties, key=colex_key) if ties else None,
                        failures=tuple(failures))


def pma_equivalent(h: SignedKernel, k: SignedKernel) -> bool:
    """Whether h has every principal minor of k, under ``verify``'s
    default tolerance, which also raises on a size mismatch; the full
    list caps N as ``exact_minors`` does."""
    return verify(h, exact_minors(k, "all")).passed


def _check_tol(name: str, tol: float) -> None:
    if not 0 <= tol < math.inf:
        raise DimensionError(f"{name} must be finite and >= 0, got {tol}")


# ---------------------------------------------------------------------------
# solution-set sidecar JSON

def solution_set_json(sol: PMASolution) -> str:
    import json

    return json.dumps({
        "null_basis": [list(gf2.bits_of(vec, len(sol.pairs)))
                       for vec in sol.free_switches],
        "pairs": [f"{i},{j}" for i, j in sol.pairs],
    })
