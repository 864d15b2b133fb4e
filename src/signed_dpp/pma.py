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
3. Hub triangles.  The C(N - 1, 2) triangles {h, x, y} at the hub h = 1,
   the fundamental cycles of the star at h, are a basis of the cycle
   space.  A cycle is positive when its relating signs multiply to +1,
   and then its traveling sum fixes the sign of its oriented entry
   product.  The positive hub triangles and the sums of two negative ones
   span the positive cycles.
4. Joins.  Negative {h, u, x} and {h, u, y} sum to the 4-cycle h-x-u-y
   of the 4-set {h, u, x, y}, or, when {h, x, y} is positive, to the
   triangle {u, x, y} plus it.  Negative hub pairs in two components of
   their graph share no vertex, and {h, a, b} + {h, c, d} is the 4-cycle
   a-b-c-d plus the positive {h, b, c} and {h, a, d}.  A breadth-first
   search over the negative hub pairs, by triangles level by level and
   by 4-sets only where no triangle reaches, picks a spanning tree of
   these joins from the skeleton alone: at most 3 C(N - 1, 2) reads of
   orders 3 and 4, and no 4-set where triangles suffice.  A 4-set matches
   its traveling sum against the at most 8 +-1 patterns of its positive
   cycles; this separation test is the only genericity rule.  A decision
   within its subset's rounding bound (``_bound``) or ``sign_tol`` is
   skipped with a warning, and one more round reads only through the
   loose pairs, those outside the largest component of the decided joins:
   their triangle and hub 4-set joins across components, and one 4-set
   to a pair of each component in a neighbouring part of their graph.  A
   skipped positive hub triangle leaves its pair's row to the N - 3
   triangles through that pair, which the round reads too.
   ``gf2.SpanBasis._of_cycles`` solves the rows.

On exact minors with no skipped decision the rows span every positive
cycle, so the solution is that of every triangle and 4-cycle row (a row
space has one reduced row echelon form); otherwise the coset can only be
larger.  Errors and warnings only concern minors that were read: a wrong
minor that is never read does not change the solution, and ``verify``
reports it; a row that contradicts the others raises.
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

_ROUNDING = 193 * 2.0 ** -52  # C u, the rounding bound per unit of per(|K_S|) (``_bound``)
SOLUTION_SET_CAP = 12
_VERIFY_SLICE = 1 << 16    # subsets of one order that verify compares at a time
_CONJUGATE_RTOL = 1e-9     # is_conjugate's bound, relative to sqrt|K_ii K_jj|

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

# The six pairs of a sorted 4-set, in pair_index(4, ...) order.  A cycle's
# edges at position 3 end at its two neighbours there; position c is
# opposite it.
_PAIRS4 = np.triu_indices(4, 1)
_NEIGHBOURS = _FOUR_CYCLES[0][..., 0][_FOUR_CYCLES[0][..., 1] == 3].reshape(3, 2)


@dataclass(frozen=True)
class Skeleton:
    """Diagonal, off-diagonal magnitudes, and relating signs of a dense
    signed matrix, as recovered from minors of orders 1 and 2 (0-based)."""

    n: int
    diagonal: np.ndarray   # (n,)
    magnitude: np.ndarray  # (n, n) symmetric, zero diagonal
    epsilon: np.ndarray    # (n, n) symmetric entries in {-1,+1}, zero diagonal

    @functools.cached_property
    def pair_terms(self) -> np.ndarray:
        """(n, n) matrix of eps_ab |K_ab|^2, the 2-cycle factors."""
        return self.epsilon * self.magnitude ** 2


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
    noise margin and no warning; a pair is zero (``NotDenseError``) only
    when that gap is within C u (|a_i a_j| + |a_i a_j - a_ij|) (``_bound``).
    On estimated minors a pair whose K_ij^2 lies below the noise of its
    pair minor can get the wrong sign, and every later decision builds
    on it: at N = 16 from 1e4 sequential draws, 51 of 120 were wrong.
    """
    n = minors.n
    diagonal = minors.get_many(colex_table(n, 1))
    i, j = colex_table(n, 2).T.astype(np.intp) - 1
    gap = diagonal[i] * diagonal[j] - minors.get_many(colex_table(n, 2))
    bound = _ROUNDING * (np.abs(diagonal[i] * diagonal[j]) + np.abs(gap))
    flat = np.flatnonzero(np.abs(gap) <= bound)
    if flat.size:
        t = flat[np.argmin(pair_index(n, i[flat], j[flat]))]     # lexicographically first
        raise NotDenseError(
            f"pair ({i[t] + 1},{j[t] + 1}): a_i a_j - a_ij = {gap[t]:.3e} is below its "
            f"rounding bound {bound[t]:.1e}; entry is numerically zero")
    magnitude = np.zeros((n, n))
    epsilon = np.zeros((n, n), dtype=int)
    epsilon[i, j] = epsilon[j, i] = np.where(gap > 0, 1, -1)
    magnitude[i, j] = magnitude[j, i] = np.sqrt(np.abs(gap))
    return Skeleton(n, diagonal, magnitude, epsilon)


# ---------------------------------------------------------------------------
# stage 2: traveling sums from minors

def _fixed(d: np.ndarray, pt: np.ndarray, sets: np.ndarray, face_pi3=None) -> np.ndarray:
    """det(K_S) less its full-length cycles: a_S - pi3, or pi4 + a_S from its faces' pi3."""
    if sets.shape[1] == 3:
        i, j, k = sets.T
        return d[i] * d[j] * d[k] - d[i] * pt[j, k] - d[j] * pt[i, k] - d[k] * pt[i, j]
    d, pair = d[sets].T, pt[sets[:, _PAIRS4[0]], sets[:, _PAIRS4[1]]].T
    fixed = d[0] * d[1] * d[2] * d[3]
    for k, (a, b) in enumerate(zip(*_PAIRS4)):
        c, e = (x for x in range(4) if x not in (a, b))
        fixed = fixed - pair[k] * d[c] * d[e]
    fixed = fixed + (pair[0] * pair[5] + pair[1] * pair[4] + pair[2] * pair[3])
    for t, rest in enumerate(_FACE_REST):
        fixed = fixed + face_pi3[:, t] * d[rest]
    return fixed


def _bound(skel: Skeleton, sets: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """C u per(|K_S|) for each row S of an (m, 3) or (m, 4) array of sorted
    0-based subsets, given the (m, c) magnitude products m of their cycles:
    ``_fixed`` at |d|, -|pair terms| and 2 m3 per face, plus 2 m per cycle.
    u = 2^-52; C = 193 counts the most roundings (Higham's gamma_k) a term
    meets: 3 in a pair's gap; 29 in a triangle's pi (5 + 5 + 1 + 3 x 6 in
    minor, rest, difference, pair terms); 193 in a 4-set's residual (9 + 16 +
    6 x 6 + 4 x 29 + 16 in pattern sums).  A 4-set adds the error its 2 m
    carry from m_ab = sqrt|a_a a_b - a_ab|: the gap's 3 roundings of |a_a a_b|,
    halved by the root, give 1.5 u |a_a a_b| / m_ab^2 per edge."""
    d, pt = np.abs(skel.diagonal), -np.abs(skel.pair_terms)
    if sets.shape[1] == 3:
        return _ROUNDING * (_fixed(d, pt, sets) + 2.0 * mags[:, 0])
    a, b = sets[:, _PAIRS4[0]], sets[:, _PAIRS4[1]]     # the six pairs, each read once
    six, ratio = skel.magnitude[a, b], d[a] * d[b] / -pt[a, b]
    face = six[:, pair_index(4, *_FACES[:, _TRIANGLE[0][0]].T)].prod(axis=1)
    spread = ratio[:, pair_index(4, *_FOUR_CYCLES[0].T)].sum(axis=1)
    return (_ROUNDING * (_fixed(d, pt, sets, 2.0 * face) + 2.0 * mags.sum(axis=1))
            + 1.5 * 2.0 ** -52 * 2.0 * (spread * mags).sum(axis=1))


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
    if subsets.shape[1] == 3:
        return minors.get_many(subsets + 1) - _fixed(skel.diagonal, skel.pair_terms, subsets)
    faces = traveling_sums(minors, skel, subsets[:, _FACES].reshape(-1, 3)).reshape(-1, 4)
    return _fixed(skel.diagonal, skel.pair_terms, subsets, faces) - minors.get_many(subsets + 1)


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
    the best and second-smallest residuals and the larger of ``tol`` and the
    4-set's ``_bound``.  A 4-set is decided when the best residual is
    within that tolerance and the second is not.
    """
    sign, mags = _cycles(skel, quad, _FOUR_CYCLES)[:2]
    tol = np.maximum(tol, _bound(skel, quad, mags))
    positive = sign == 1
    packed = np.where(positive, mags, 0.0)
    flips = np.where(_PATTERNS, -1.0, 1.0)  # (8, 3)
    totals = 2.0 * (flips[:, 0] * packed[:, :1] + flips[:, 1] * packed[:, 1:2]
                    + flips[:, 2] * packed[:, 2:])
    residual = np.abs(totals - pi4[:, None])
    residual[(_PATTERNS & ~positive[:, None, :]).any(axis=2)] = np.inf
    pattern = residual.argmin(axis=1)
    return (positive, positive & _PATTERNS[pattern], residual[np.arange(len(pi4)), pattern],
            np.partition(residual, 1, axis=1)[:, 1], tol)


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

def solve_pma(minors: MinorList, sign_tol: float = 0.0) -> PMASolution:
    """Reconstruct a dense signed kernel from minors of orders up to 4,
    read through ``n`` and ``get_many`` alone (see the module docstring).
    A decision within its rounding bound or ``sign_tol`` (finite, nonnegative, a
    noise floor) is skipped with an AmbiguousSignWarning; contradictions raise."""
    _check_tol("sign_tol", sign_tol)
    skel = recover_skeleton(minors)
    eps = skel.epsilon
    # (x, y) is a negative hub pair when the hub triangle {0, x, y} is negative
    cycles, rhs = _hub_basis(minors, skel, eps * eps[0] * eps[:, :1] < 0, sign_tol)
    solution = gf2.SpanBasis._of_cycles(skel.n, cycles, rhs).solution()
    if solution is None:    # a row that contradicts the rest leaves no solution
        raise InconsistentMinorsError(
            "cycle sign constraints are mutually inconsistent; "
            "the minor list is not realizable in the signed class")
    x = np.array(gf2.bits_of(solution.particular, solution.n_vars), dtype=bool)
    return PMASolution(kernel=_assemble(skel.diagonal, skel.magnitude, eps, x),
                       solution=solution, pairs=_pairs(skel.n))


def _decide(minors: MinorList, skel: Skeleton, sets: np.ndarray, sign_tol: float,
            stacklevel: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which of an (m, 3) array of sorted 0-based triangles or (m, 4) of 4-sets
    are decided, and the ``_of_cycles`` rows and right-hand sides they give."""
    if not len(sets):
        return np.zeros(0, dtype=bool), np.zeros((0, 4), dtype=np.intp), np.zeros(0, dtype=bool)
    if sets.shape[1] == 3:
        pi3 = traveling_sums(minors, skel, sets)
        sign, mag3, flip = (a[:, 0] for a in _cycles(skel, sets, _TRIANGLE)[:3])
        tol = np.maximum(sign_tol, _bound(skel, sets, mag3[:, None]))
        positive, small = sign == 1, np.abs(pi3) <= tol
        _screen(positive & small, ~positive & ~small,
                lambda t: (f"triangle {_subset(sets[t])}: traveling sum {pi3[t]:.3e} below tol "
                           f"{tol[t]:.1e}; skipping its sign constraint"),
                lambda t: (f"triangle {_subset(sets[t])} is negative but its traveling sum is "
                           f"{pi3[t]:.3e}; the minor list is not realizable at tol {tol[t]:.1e}"),
                stacklevel + 1)
        used = positive & ~small
        return used, np.insert(sets[used], 3, -1, axis=1), (~(pi3 > 0) ^ flip)[used]
    flip = _cycles(skel, sets, _FOUR_CYCLES)[2]
    positive, negative, best, second, tol = match_four_cycles(
        skel, sets, traveling_sums(minors, skel, sets), sign_tol)
    ambiguous = second - best <= tol
    _screen(ambiguous, best > tol,
            lambda t: (f"4-set {_subset(sets[t])}: sign patterns are separated by "
                       f"{second[t] - best[t]:.1e} < tol {tol[t]:.1e}; magnitude products "
                       "are too close to decide; skipping the 4-set's sign constraints"),
            lambda t: (f"4-set {_subset(sets[t])}: no sign pattern matches the traveling "
                       f"sum (best residual {best[t]:.3e} > tol {tol[t]:.1e})"),
            stacklevel + 1)
    s, c = np.nonzero(positive & ~ambiguous[:, None])
    rows = np.column_stack([sets[s[:, None], _NEIGHBOURS[c]], sets[s, 3], sets[s, c]])
    return ~ambiguous, rows, negative[s, c] ^ flip[s, c]


def _hub_basis(minors: MinorList, skel: Skeleton, neg: np.ndarray,
               sign_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Stages 3 and 4: the rows of the hub triangles and of the joins of the
    negative hub pairs ``neg``.  Round one reads every hub triangle and the
    joins of ``_spanning_joins``, planned with every positive hub triangle
    decided.  If a decision was skipped, round two reads the unread joins
    through each loose pair (a negative hub pair outside the largest
    component of the decided joins) that cross components: the triangles
    and 4-sets with the hub at either end of the pair, and one 4-set to a
    pair of each component of each neighbouring component of ``neg``.  It
    also reads the N - 3 triangles through each lost pair (a positive hub
    pair whose triangle was skipped), the only ones that can add its row.
    Every listing takes 2^22 cells at a time."""
    n = skel.n
    hub = np.insert(colex_table(max(n - 1, 0), 2).astype(np.intp), 0, 0, axis=1)
    sets, comp = _spanning_joins(neg)
    ntri = int((sets[:, 0] < 0).sum())
    decided, *rows = _decide(minors, skel, np.concatenate([hub, sets[:ntri, 1:]]), sign_tol, 3)
    four, *more = _decide(minors, skel, sets[ntri:], sign_tol, 3)
    out = [rows, more]
    lost = np.zeros_like(neg)       # the positive hub pairs whose triangle was skipped
    x, y = hub[~decided[:len(hub)], 1:].T
    lost[x, y] = lost[y, x] = ~neg[x, y]
    done = np.concatenate([decided[len(hub):], four])
    if done.all() and not lost.any():
        return tuple(map(np.concatenate, zip(*out)))
    # a triangle, or a 4-set without the hub, joins through its positive pairs
    a, b = sets[:, _PAIRS4[0]], sets[:, _PAIRS4[1]]
    done &= (sets[:, 0] == 0) | ~((a > 0) & lost[a, b]).any(axis=1)
    link = -np.sort(-np.where((a >= 0) & neg[a, b], a * n + b, -1), axis=1)[done, :3]
    link = np.where(link >= 0, link, link[:, :1])       # each set's negative pairs a * n + b
    root = np.arange(n * n)
    while not ((top := root[link]) == (low := top.min(axis=1))[:, None]).all():
        np.minimum.at(root, link, low[:, None])     # each pair's least label, then jump
        root = root[root]
    label = np.where(np.triu(neg), root.reshape(n, n), -1)
    label = np.maximum(label, label.T)
    loose = neg & (label != np.bincount(label[neg], minlength=1).argmax())
    ha, hb = np.nonzero(np.triu(neg))
    first = np.unique(label[ha, hb] * n + comp[ha], return_index=True)[1]
    ha, hb = ha[first], hb[first]                   # a pair of each component in each part
    ends, others = np.nonzero(loose)                # each loose pair from both ends
    p, q = np.nonzero(np.triu(lost))
    step, vertex = max((1 << 22) // max(n, len(ha)), 1), np.arange(n)
    picks = [sets]
    for t in range(0, max(len(ends), len(p)), step):
        c, x, i, j = ends[t:t + step], others[t:t + step], p[t:t + step], q[t:t + step]
        own = label[c, x][:, None]
        s, y = np.nonzero(neg[c] & ((label[c] != own) | neg[x] & (label[x] != own)))
        tri = ~neg[x[s], y]
        sc, h = np.nonzero((np.abs(comp[ha] - comp[c][:, None]) == 1) & (label[ha, hb] != own)
                           & (c < x)[:, None])
        sl, u = np.nonzero((vertex > 0) & (vertex != i[:, None]) & (vertex != j[:, None]))
        picks += [np.column_stack([0 * s[tri] - 1, c[s[tri]], x[s[tri]], y[tri]]),
                  np.column_stack([0 * s, c[s], x[s], y]),
                  np.column_stack([c[sc], x[sc], ha[h], hb[h]]),
                  np.column_stack([0 * sl - 1, u, i[sl], j[sl]])]
    every = np.sort(np.concatenate(picks), axis=1)
    # one key per subset: its kind, then its vertices from the last
    key = (np.minimum(every[:, 0], 1) + 1) * (n + 1) ** 4 + (every + 1) @ (n + 1) ** np.arange(4)
    _, first = np.unique(key, return_index=True)
    every = every[first[first >= len(sets)]]        # the unread ones, in colex order by kind
    out += [_decide(minors, skel, every[every[:, 0] < 0, 1:], sign_tol, 3)[1:],
            _decide(minors, skel, every[every[:, 0] >= 0], sign_tol, 3)[1:]]
    return tuple(map(np.concatenate, zip(*out)))


def _spanning_joins(neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A spanning tree of joins over the negative hub pairs ``neg``, grown
    level by level from the first pair of each component.  A level joins
    every unreached pair (c, x) to a pair (c, y) reached the level before
    by the triangle {c, x, y}, (x, y) positive.  A level that reaches
    nothing joins to a reached (c, y) by the 4-set {0, c, x, y} each pair
    that no triangle joins and one other, whose triangles reach the rest
    of its part; the next component's first pair is linked to the last by
    the 4-set of both.  No subset is listed twice, and none is a 4-set
    where triangles suffice.  Returns the (m, 4) sorted subsets, triangles
    (led by -1) first, and each vertex's component (-1 for none)."""
    n = len(neg)
    positive = ~neg & ~np.eye(n, dtype=bool)
    across = positive.astype(np.float32)        # one product finds a level's triangles
    partners = neg.astype(np.float32) @ across
    alone = partners + partners.T == 0          # the pairs that no triangle joins
    upper, reached, fresh = ~np.tri(n, k=-1, dtype=bool), np.zeros_like(neg), np.zeros_like(neg)
    picks, seed, comp = [np.zeros((0, 4), dtype=np.intp)], None, np.full(n, -1)
    while True:
        hit = neg & ~reached & (fresh.astype(np.float32) @ across > 0)
        if four := not hit.any():
            hit = neg & ~reached & (comp >= 0)[:, None]
        c, x = np.nonzero(hit & (upper | ~hit.T))       # each pair once
        if not len(c):      # the component is whole: seed the next one
            if not (left := upper & neg & ~reached).any():
                return np.concatenate(picks), comp
            c, x = np.divmod([left.argmax()], n)
            if seed is not None:
                picks.append(np.sort(np.concatenate([seed, c, x]))[None])
            seed = np.concatenate([c, x])
            comp[seed] = comp.max() + 1
        elif four:
            quad = np.sort(np.array([0 * c, c, x, reached.argmax(axis=1)[c]]), axis=0).T
            take = alone[c, x]
            take[np.argmin(take)] = True
            c, x, quad = c[take], x[take], quad[take]
            picks.append(quad[np.unique(quad @ n ** np.arange(4), return_index=True)[1]])
        else:   # triangles go first, each (c, x) by its first y, 2^22 cells at a time
            step = max((1 << 22) // n, 1)
            y = np.concatenate([(fresh[c[t:t + step]] & positive[x[t:t + step]]).argmax(axis=1)
                                for t in range(0, len(c), step)])
            picks.insert(0, np.sort(np.array([0 * c - 1, c, x, y]), axis=0).T)
        reached[c, x] = reached[x, c] = True
        fresh = np.zeros_like(neg)
        fresh[c, x] = fresh[x, c] = True
        comp[c] = comp[x] = comp[seed[0]]


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


def is_conjugate(h: SignedKernel, k: SignedKernel) -> bool:
    """Whether h = D K D or D K^T D, D the +-1 diagonal fitted from the
    first rows, with entry (i, j) within ``_CONJUGATE_RTOL`` sqrt|K_ii K_jj|
    (O(N^2)); either keeps every principal minor, and the diagonal, k's
    order-1 minors, is held to ``verify``'s relative 1e-9.  A zero in K's
    first row never matches."""
    if h.n != k.n:
        raise DimensionError(f"dimension mismatch: kernel N = {h.n}, other kernel N = {k.n}")
    diag = np.abs(np.diag(k.mat))
    bound = _CONJUGATE_RTOL * np.sqrt(np.outer(diag, diag))
    for ref in (k.mat, k.mat.T):
        d = np.where(np.arange(k.n) > 0, np.sign(h.mat[0] * ref[0]), 1.0)
        if np.all(np.abs(h.mat - d[:, None] * ref * d) <= bound):
            return True
    return False


def pma_equivalent(h: SignedKernel, k: SignedKernel) -> bool:
    """Whether h has k's minors: ``is_conjugate``, or else ``verify``
    against every minor of k, under its default tolerance (which caps N as
    ``exact_minors`` does)."""
    return is_conjugate(h, k) or verify(h, exact_minors(k, "all")).passed


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
