"""Signed kernels and their exact probability layer.

A kernel K on ground set {1..N} assigns each subset J the inclusion
probability det(K_J).  The signed class consists of matrices whose
off-diagonal entries satisfy K_ji = +-K_ij; the relating sign eps_ij is
-1 exactly when items i and j attract.  This module owns admissibility,
point masses, the marginal/complement/conditional transforms, the size
distribution polynomial det(I - K + zK), and the random generator used
throughout the tests.

Subsets are tuples of distinct 1-based indices.  Bitmask m encodes the
subset {i : bit i-1 of m set}; mask order is colexicographic order.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import numerics, rng
from .errors import (
    CapabilityError,
    ConditioningError,
    DimensionError,
    FormatError,
    GenerationError,
    InadmissibleKernelError,
    SignedClassError,
)

ENUMERATION_LIMIT = 16     # hard cap for 2^N pmf tables
ADMISSIBILITY_LIMIT = 20   # hard cap for the exhaustive admissibility test
PMF_CLAMP = 1e-9           # round-off floor: masses in [-PMF_CLAMP, 0) -> 0


# ---------------------------------------------------------------------------
# subsets

def normalize_subset(j: Iterable[int], n: int, allow_empty: bool = True) -> tuple[int, ...]:
    """Validate 1-based indices against ground-set size n; return sorted tuple."""
    items = tuple(int(i) for i in j)
    if not allow_empty and not items:
        raise DimensionError("subset must be nonempty")
    if len(set(items)) != len(items):
        raise DimensionError(f"subset has repeated indices: {items}")
    for i in items:
        if not 1 <= i <= n:
            raise DimensionError(f"index {i} out of range 1..{n}")
    return tuple(sorted(items))


def subset_to_mask(j: Iterable[int]) -> int:
    return sum(1 << (int(i) - 1) for i in j)


def mask_to_subset(mask: int) -> tuple[int, ...]:
    mask = int(mask)
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def colex_key(j: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key of a sorted subset that orders like its bitmask: the
    largest elements are compared first."""
    return j[::-1]


@functools.lru_cache(maxsize=64)
def _binomials(n: int, t: int) -> np.ndarray:
    """Read-only (n, t) table of C(c, i + 1), capped at C(n, t); the cap
    only touches terms that no t-subset of {0..n-1} reaches."""
    cap = math.comb(n, t)
    table = np.array([[min(math.comb(c, i), cap) for i in range(1, t + 1)] for c in range(n)],
                     dtype=np.int64).reshape(n, t)
    table.flags.writeable = False
    return table


def colex_rank(subsets: np.ndarray, n: int) -> np.ndarray:
    """Rank sum_i C(c_i, i) of each row c_1 < ... < c_t of an (m, t) array
    of sorted 0-based subsets of {0..n-1}: its position among the
    t-subsets in colexicographic (bitmask) order.  Needs C(n, t) < 2^63.
    The terms are summed one column at a time, so no (m, t) table is formed."""
    idx = np.asarray(subsets, dtype=np.intp)
    table = _binomials(n, idx.shape[1])
    out = np.zeros(len(idx), dtype=np.int64)
    for i in range(idx.shape[1]):
        out += table[idx[:, i], i]
    return out


def pair_index(n: int, i, j):
    """Lexicographic rank of the pair i < j of {0..n-1}, elementwise: the
    position of entry (i, j) in ``np.triu_indices(n, 1)``."""
    return i * (2 * n - i - 3) // 2 + j - 1


@functools.lru_cache(maxsize=64)
def colex_table(n: int, t: int) -> np.ndarray:
    """Read-only (C(n, t), t) array of the 1-based t-subsets of {1..n}, in
    colexicographic (bitmask) order: row r has ``colex_rank`` r.  Colex
    order nests: the s-subsets of {1..m} whose largest item is c are the
    first C(c - 1, s - 1) of the (s - 1)-subsets of {1..m - 1}, with c
    appended.  So the table grows from the one 0-subset through
    m = n - t + s for s = 1..t, and no row is ranked.  Stored in the
    narrowest unsigned dtype that holds n (uint8 up to n = 255)."""
    dtype = np.min_scalar_type(n)
    if t > n:
        table = np.zeros((0, t), dtype=dtype)
    else:
        table = np.zeros((1, 0), dtype=dtype)
        for s in range(1, t + 1):
            m = n - t + s
            prev, table = table, np.empty((math.comb(m, s), s), dtype=dtype)
            start = 0
            for c in range(s, m + 1):
                stop = start + math.comb(c - 1, s - 1)
                table[start:stop, :-1] = prev[:stop - start]
                table[start:stop, -1] = c
                start = stop
    table.flags.writeable = False
    return table


def colex_unrank(ranks: np.ndarray, n: int, t: int) -> np.ndarray:
    """The (m, t) sorted 0-based t-subsets of {0..n-1} with the given
    ``colex_rank``s: greedily, c_i is the largest c with C(c, i) <= rank."""
    table = _binomials(n, t)
    rest = np.asarray(ranks, dtype=np.int64)
    out = np.empty((len(rest), t), dtype=np.intp)
    for i in range(t - 1, -1, -1):
        out[:, i] = np.searchsorted(table[:, i], rest, side="right") - 1
        rest = rest - table[out[:, i], i]
    return out


# ---------------------------------------------------------------------------
# the kernel type

@dataclass(frozen=True, eq=False)
class SignedKernel:
    """Immutable N x N real kernel matrix.

    Construction checks shape and finiteness only.  Transform outputs
    (L-form, conditionals) live outside the signed class, so magnitude
    symmetry is a queried property, not a constructor invariant; the
    operations that consume edge signs enforce it via require_signed().
    """

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = numerics.as_matrix(self.mat, square=True).copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def in_signed_class(self) -> bool:
        """True when |K_ij| == |K_ji| holds exactly as stored, for all i != j."""
        a = self.mat
        return bool(np.array_equal(np.abs(a), np.abs(a.T)))

    def require_signed(self) -> None:
        if not self.in_signed_class:
            raise SignedClassError("off-diagonal magnitudes are not symmetric")

    def entry(self, i: int, j: int) -> float:
        """K_ij with 1-based indices."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise DimensionError(f"indices ({i},{j}) out of range 1..{self.n}")
        return float(self.mat[i - 1, j - 1])

    def epsilon(self, i: int, j: int) -> int:
        """Relating sign eps_ij = sign(K_ji / K_ij); undefined on zero entries."""
        self.require_signed()
        if i == j:
            raise DimensionError("eps is defined for pairs of distinct items")
        kij = self.entry(i, j)
        if kij == 0.0:
            raise SignedClassError(f"eps undefined: K[{i},{j}] = 0")
        return 1 if self.entry(j, i) * kij > 0 else -1

    def submatrix(self, j: Sequence[int]) -> np.ndarray:
        idx = [i - 1 for i in normalize_subset(j, self.n)]
        return self.mat[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# JSON round trip ({"n": N, "rows": [[...], ...]})

def kernel_to_dict(k: SignedKernel) -> dict:
    """The kernel JSON object: ``{"n": N, "rows": [[...], ...]}``."""
    return {"n": k.n, "rows": [[float(v) for v in row] for row in k.mat]}


def kernel_to_json(k: SignedKernel) -> str:
    return json.dumps(kernel_to_dict(k))


def kernel_from_json(text: str) -> SignedKernel:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid kernel JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "rows" not in obj:
        raise FormatError('kernel JSON must be {"n": ..., "rows": ...}')
    n, rows = obj["n"], obj["rows"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise FormatError(f"kernel JSON: n must be a nonnegative integer, got {n!r}")
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in rows)):
        raise FormatError(f"kernel JSON: rows must be an {n}x{n} array")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            # null reads as NaN, which SignedKernel rejects as not finite
            if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
                raise FormatError(f"kernel JSON: entry ({i + 1},{j + 1}) is not a number: {v!r}")
    try:
        return SignedKernel(np.array(rows, dtype=float).reshape(n, n))
    except (OverflowError, DimensionError) as exc:
        raise FormatError(f"kernel JSON: bad matrix entries: {exc}") from exc


def write_kernel(path: str, k: SignedKernel) -> None:
    atomic_write(path, kernel_to_json(k) + "\n")


def read_kernel(path: str) -> SignedKernel:
    with open(path, encoding="utf-8") as fh:
        return kernel_from_json(fh.read())


def atomic_write(path: str, text: str) -> None:
    directory, tmp = os.path.dirname(os.path.abspath(path)), None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:      # named by the path asked for, not the temporary file
        raise type(exc)(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# probabilities

def principal_minor(k: SignedKernel, j: Iterable[int]) -> float:
    """det(K_J); the empty subset yields 1 (the empty-product convention)."""
    return float(principal_minors(k.mat, np.array([normalize_subset(j, k.n)], dtype=np.intp))[0])


def principal_minors(mat: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """det(mat_J) for each row J of an (m, t) array of sorted 1-based subsets,
    in row order, numerics.DET_CHUNK rows at a time, each chunk converted
    to intp on its own (a ``colex_table`` stays in its narrow dtype).
    Orders up to 4 take ``numerics.closed_det`` of the entries gathered by
    flat index (t = 0 yields ones, t = 1 the diagonal entries themselves,
    t = 4 borders each row's 3-set prefix); larger orders take
    ``numerics.batched_det``.  Whole orders 3 and 4 are cheaper through
    ``colex_minors``, which agrees with this bit for bit."""
    idx = np.asarray(subsets)
    if idx.ndim != 2:
        raise DimensionError(f"expected an (m, t) array of subsets, got shape {idx.shape}")
    if idx.size and (idx.min() < 1 or idx.max() > mat.shape[0]):
        raise DimensionError(f"subset index out of range 1..{mat.shape[0]}")
    flat, n = mat.ravel(), mat.shape[0]
    out = []
    for lo in range(0, len(idx), numerics.DET_CHUNK):
        c = np.ascontiguousarray(idx[lo:lo + numerics.DET_CHUNK].T, dtype=np.intp) - 1
        out.append(numerics.closed_det(flat[c[:, None] * n + c]) if len(c) <= 4
                   else numerics.batched_det(mat[c.T[:, :, None], c.T[:, None, :]]))
    return np.concatenate(out or [np.ones(0)])


# The 4-sets whose top item is at most this are bordered all at once, each
# gathering its prefix's adjugate, and those of each later top item as one
# slice (the two ways cost the same at about N = 16; timed at N = 12-64).
_BORDER_FROM = 16


def colex_minors(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det(mat_J) for every 3-set and every 4-set J, each in the order of
    its ``colex_table``: the whole orders 3 and 4 in one pass.  The
    adjugate of every 3-set is formed once.  The 4-sets with top item c
    extend the 3-sets of {1..c - 1}, which are the first C(c - 1, 3) rows
    of the 3-set table (colex order nests), and border them with column
    and row c (``numerics.bordered_det``).  These are the operations that
    ``principal_minors`` takes per row, in the same order, so the values
    agree with it bit for bit."""
    n = mat.shape[0]
    table = colex_table(n, 3)
    first = min(n, _BORDER_FROM)
    m3, m4 = np.empty(len(table)), np.empty(math.comb(n, 4))
    tri = np.ascontiguousarray(table[:math.comb(n - 1, 3)].T, dtype=np.intp) - 1
    adj = np.empty((3, 3, len(table)))
    flat = mat.ravel()
    for lo in range(0, len(table), numerics.DET_CHUNK):
        hi = lo + numerics.DET_CHUNK
        idx = np.ascontiguousarray(table[lo:hi].T, dtype=np.intp) - 1
        e = flat[idx[:, None] * n + idx]
        adj[:, :, lo:hi] = numerics.adjugate(e)
        m3[lo:hi] = numerics.cofactor_det(e, adj[:, 0, lo:hi])
    quad = np.ascontiguousarray(colex_table(first, 4).T, dtype=np.intp) - 1
    below = colex_rank(quad[:3].T, n)
    m4[:len(below)] = numerics.bordered_det(m3[below], adj[:, :, below], mat[quad[:3], quad[3]],
                                            mat[quad[3], quad[:3]], mat[quad[3], quad[3]])
    cols = np.ascontiguousarray(mat.T)
    for c in range(first, n):
        start = math.comb(c, 4)
        for lo in range(0, math.comb(c, 3), numerics.DET_CHUNK):
            hi = min(lo + numerics.DET_CHUNK, math.comb(c, 3))
            prefix = tri[:, lo:hi]
            m4[start + lo:start + hi] = numerics.bordered_det(
                m3[lo:hi], adj[:, :, lo:hi], cols[c].take(prefix), mat[c].take(prefix), mat[c, c])
    return m3, m4


def _masses(mat: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """The unclamped point masses (-1)^{|Jbar|} det(K - 1_Jbar), one per
    row of an (m, N) bool array that marks the complement Jbar of J."""
    stack = np.broadcast_to(mat, (len(outside),) + mat.shape).copy()
    diag = np.arange(mat.shape[0])
    stack[:, diag, diag] -= outside
    dets = numerics.batched_det(stack)
    return np.where(outside.sum(axis=1) % 2 == 0, dets, -dets)


def _clamped(masses: np.ndarray) -> np.ndarray:
    """The round-off floor: a mass below -PMF_CLAMP means the kernel is
    not admissible, and masses in [-PMF_CLAMP, 0) become 0."""
    low = masses.min()
    if low < -PMF_CLAMP:
        raise InadmissibleKernelError(
            f"negative point mass {low:.3e}: not an admissible kernel")
    return np.maximum(masses, 0.0)


def pmf(k: SignedKernel, j: Iterable[int]) -> float:
    """Exact point mass P[Y = J] = (-1)^{|Jbar|} det(K - 1_{Jbar})."""
    outside = np.ones((1, k.n), dtype=bool)
    outside[0, [i - 1 for i in normalize_subset(j, k.n)]] = False
    return float(_clamped(_masses(k.mat, outside))[0])


def _signed_masses(k: SignedKernel):
    """The unclamped masses of every subset J, by increasing bitmask, in
    chunks of numerics.DET_CHUNK subsets."""
    full = (1 << k.n) - 1
    for lo in range(0, full + 1, numerics.DET_CHUNK):
        comp = full - np.arange(lo, min(lo + numerics.DET_CHUNK, full + 1), dtype=np.int64)
        yield _masses(k.mat, (comp[:, None] >> np.arange(k.n)) & 1 == 1)


def enumerate_pmf(k: SignedKernel) -> np.ndarray:
    """All 2^N point masses, indexed by subset bitmask.

    Exhaustive; refuses ground sets above ENUMERATION_LIMIT.
    """
    n = k.n
    if n > ENUMERATION_LIMIT:
        raise CapabilityError(f"pmf enumeration capped at N={ENUMERATION_LIMIT}, got {n}")
    return _clamped(np.concatenate(list(_signed_masses(k))))


def is_admissible(k: SignedKernel) -> bool:
    """Exhaustive test: every point mass (-1)^{|Jbar|} det(K - 1_Jbar)
    passes the round-off floor that ``pmf`` and ``enumerate_pmf`` apply,
    so a kernel passes exactly when those succeed."""
    n = k.n
    if n > ADMISSIBILITY_LIMIT:
        raise CapabilityError(
            f"exhaustive admissibility test capped at N={ADMISSIBILITY_LIMIT}, got {n}")
    try:
        for part in _signed_masses(k):
            _clamped(part)
    except InadmissibleKernelError:
        return False
    return True


# ---------------------------------------------------------------------------
# transforms

def k_to_l(k: SignedKernel) -> SignedKernel:
    """L = K (I - K)^{-1}; defined when I - K is nonsingular."""
    eye = np.eye(k.n)
    # Solve (I-K)^T X = K^T so that X^T = K (I-K)^{-1}.
    l = numerics.solve_linear((eye - k.mat).T, k.mat.T).T
    return SignedKernel(l)


def l_to_k(l: SignedKernel) -> SignedKernel:
    """K = L (I + L)^{-1}; defined when I + L is nonsingular."""
    eye = np.eye(l.n)
    kmat = numerics.solve_linear((eye + l.mat).T, l.mat.T).T
    return SignedKernel(kmat)


def complement_kernel(k: SignedKernel) -> SignedKernel:
    """Kernel of the complement process: I - K."""
    return SignedKernel(np.eye(k.n) - k.mat)


def marginal_kernel(k: SignedKernel, s: Iterable[int]) -> SignedKernel:
    """Kernel of Y intersected with s, on ground set s (relabeled 1..|s|)."""
    ss = normalize_subset(s, k.n, allow_empty=False)
    return SignedKernel(k.submatrix(ss))


def conditional_kernel(k: SignedKernel, s: Iterable[int]) -> SignedKernel:
    """Kernel of Y on the complement C of s, conditioned on s being
    included: the Schur complement K_CC - K_Cs K_ss^{-1} K_sC.

    Ground set of the result is C, relabeled 1..N-|s| in increasing
    original order.  Requires det(K_s) away from zero.
    """
    ss = normalize_subset(s, k.n)
    if not ss:
        return k
    if abs(principal_minor(k, ss)) <= 1e-12:
        raise ConditioningError(
            f"conditioning on a zero-probability event: det(K_S) ~ 0 for S={ss}")
    s_idx = np.array(ss) - 1
    c_idx = np.setdiff1d(np.arange(k.n), s_idx)
    x = numerics.solve_linear(k.mat[np.ix_(s_idx, s_idx)], k.mat[np.ix_(s_idx, c_idx)])
    return SignedKernel(k.mat[np.ix_(c_idx, c_idx)] - k.mat[np.ix_(c_idx, s_idx)] @ x)


# ---------------------------------------------------------------------------
# size distribution

def size_polynomial(k: SignedKernel) -> np.ndarray:
    """Coefficients of det(I - K + zK); coefficient p is P[|Y| = p].

    Evaluated at the N+1 roots of unity in one batched determinant and
    read back with one inverse FFT.  For an admissible kernel the
    polynomial is at most sum_p P[|Y| = p] = 1 in modulus on the unit
    circle, so the coefficients carry rounding errors of about machine
    precision at any N.
    """
    n = k.n
    z = np.exp(-2j * np.pi * np.arange(n + 1) / (n + 1))
    values = numerics.batched_det(np.eye(n) + (z - 1.0)[:, None, None] * k.mat)
    return np.fft.ifft(values).real


def size_variance(k: SignedKernel) -> float:
    """Var(|Y|) = trace(K (I - K)).

    Follows from summing the indicator variances K_ii (1 - K_ii) and the
    pairwise covariances -K_ij K_ji; attractive pairs increase it.
    """
    return float(np.trace(k.mat @ (np.eye(k.n) - k.mat)))


def is_constant_size(k: SignedKernel) -> int | None:
    """The a.s. size p when the size polynomial is z^p, else None."""
    coeffs = size_polynomial(k)
    big = np.nonzero(np.abs(coeffs) > 1e-9)[0]
    if len(big) == 1 and abs(coeffs[big[0]] - 1.0) <= 1e-9:
        return int(big[0])
    return None


def pair_covariance(k: SignedKernel, i: int, j: int) -> float:
    """cov(1_{i in Y}, 1_{j in Y}) = -K_ij K_ji (= -eps_ij K_ij^2 in class T)."""
    if i == j:
        raise DimensionError("pair covariance requires two distinct items")
    return -(k.entry(i, j) * k.entry(j, i))


# ---------------------------------------------------------------------------
# random admissible kernels

def generate_admissible(n: int, lam: float, seed: int) -> SignedKernel:
    """Random dense admissible signed kernel.

    Diagonal uniform in [lam, 1-lam]; off-diagonal pair {i,j} gets magnitude
    mu * Uniform[0.2, 1], a uniform sign, and a uniform relating sign, with
    mu = 0.9 * lam / (n-1).  The Gershgorin argument makes every draw
    admissible, so the first draw is returned; whether its 4-cycle signs
    are identifiable is decided per 4-set by ``solve_pma``.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionError(f"ground-set size must be a positive integer, got {n}")
    if not 0.0 < lam < 0.5:
        raise GenerationError(f"lambda must lie in (0, 1/2), got {lam}")
    gen = rng.stream(seed)
    n_pairs = n * (n - 1) // 2
    mu = 0.9 * lam / (n - 1) if n > 1 else 0.0
    diag = gen.uniform(lam, 1.0 - lam, size=n)
    mags = gen.uniform(0.2, 1.0, size=n_pairs)
    signs = 2 * gen.integers(0, 2, size=n_pairs) - 1
    eps = 2 * gen.integers(0, 2, size=n_pairs) - 1
    iu, ju = np.triu_indices(n, 1)
    mat = np.diag(diag)
    mat[iu, ju] = signs * mags * mu
    mat[ju, iu] = eps * mat[iu, ju]
    return SignedKernel(mat)
