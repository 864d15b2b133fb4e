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

import itertools
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
ADMISSIBILITY_TOL = -1e-10


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


def subset_complement(j: Iterable[int], n: int) -> tuple[int, ...]:
    inside = set(normalize_subset(j, n))
    return tuple(i for i in range(1, n + 1) if i not in inside)


def subset_to_mask(j: Iterable[int]) -> int:
    return sum(1 << (int(i) - 1) for i in j)


def mask_to_subset(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def colex_key(j: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key of a sorted subset that orders like its bitmask: the
    largest elements are compared first."""
    return j[::-1]


def subsets_colex(n: int, orders: Iterable[int]) -> list[tuple[int, ...]]:
    """All subsets of {1..n} with size in ``orders``, in colexicographic order."""
    wanted = sorted(t for t in set(orders) if 0 <= t <= n)
    out = [s for t in wanted for s in itertools.combinations(range(1, n + 1), t)]
    out.sort(key=colex_key)
    return out


def index_combinations(n: int, t: int) -> np.ndarray:
    """(C(n, t), t) array of the t-subsets of {0..n-1}, in lexicographic order."""
    count = math.comb(n, t)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), t))
    return np.fromiter(flat, dtype=np.intp, count=count * t).reshape(count, t)


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

    def is_dense(self) -> bool:
        off = self.mat[~np.eye(self.n, dtype=bool)]
        return bool(np.all(off != 0.0))


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
    if not isinstance(n, int) or n < 0:
        raise FormatError(f"kernel JSON: n must be a nonnegative integer, got {n!r}")
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in rows)):
        raise FormatError(f"kernel JSON: rows must be an {n}x{n} array")
    try:
        return SignedKernel(np.array(rows, dtype=float).reshape(n, n))
    except (TypeError, ValueError, DimensionError) as exc:
        raise FormatError(f"kernel JSON: bad matrix entries: {exc}") from exc


def write_kernel(path: str, k: SignedKernel) -> None:
    atomic_write(path, kernel_to_json(k) + "\n")


def read_kernel(path: str) -> SignedKernel:
    with open(path, encoding="utf-8") as fh:
        return kernel_from_json(fh.read())


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# probabilities

def principal_minor(k: SignedKernel, j: Iterable[int]) -> float:
    """det(K_J); the empty subset yields 1 (the empty-product convention)."""
    return numerics.det(k.submatrix(normalize_subset(j, k.n)))


def principal_minors(mat: np.ndarray, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """det(mat_J) for every sorted 1-based subset J, in the given order.

    Subsets of one order are gathered into a single fancy-indexed stack
    and handed to ``numerics.batched_det``; the empty subset yields 1.
    """
    out = np.empty(len(subsets))
    sizes = np.fromiter(map(len, subsets), dtype=np.intp, count=len(subsets))
    for m in np.unique(sizes).tolist():
        positions = np.flatnonzero(sizes == m)
        flat = itertools.chain.from_iterable(subsets[p] for p in positions)
        idx = np.fromiter(flat, dtype=np.intp, count=positions.size * m).reshape(positions.size, m) - 1
        if idx.size and (idx.min() < 0 or idx.max() >= mat.shape[0]):
            raise DimensionError(f"subset index out of range 1..{mat.shape[0]}")
        out[positions] = numerics.batched_det(mat[idx[:, :, None], idx[:, None, :]])
    return out


def _shifted_stack(mat: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Stack of copies of ``mat`` with 1 subtracted at diagonal i for each
    mask with bit i set."""
    n = mat.shape[0]
    stack = np.broadcast_to(mat, (len(masks), n, n)).copy()
    for i in range(n):
        sel = (masks >> i) & 1 == 1
        stack[sel, i, i] -= 1.0
    return stack


def pmf(k: SignedKernel, j: Iterable[int]) -> float:
    """Exact point mass P[Y = J] = (-1)^{|Jbar|} det(K - 1_{Jbar})."""
    jj = normalize_subset(j, k.n)
    comp = subset_complement(jj, k.n)
    shifted = k.mat.copy()
    for i in comp:
        shifted[i - 1, i - 1] -= 1.0
    value = (-1.0) ** len(comp) * numerics.det(shifted)
    return _clamp_mass(value)


def _clamp_mass(value: float) -> float:
    if value < -PMF_CLAMP:
        raise InadmissibleKernelError(
            f"negative point mass {value:.3e}: not an admissible kernel")
    return max(value, 0.0)


def enumerate_pmf(k: SignedKernel) -> np.ndarray:
    """All 2^N point masses, indexed by subset bitmask.

    Exhaustive; refuses ground sets above ENUMERATION_LIMIT.
    """
    n = k.n
    if n > ENUMERATION_LIMIT:
        raise CapabilityError(f"pmf enumeration capped at N={ENUMERATION_LIMIT}, got {n}")
    masks = np.arange(1 << n, dtype=np.int64)
    comp_sizes = n - _popcount(masks)
    full = (1 << n) - 1
    dets = numerics.batched_det(_shifted_stack(k.mat, full - masks))
    values = np.where(comp_sizes % 2 == 0, dets, -dets)
    low = values.min()
    if low < -PMF_CLAMP:
        raise InadmissibleKernelError(
            f"negative point mass {low:.3e}: not an admissible kernel")
    return np.maximum(values, 0.0)


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)


def is_admissible(k: SignedKernel) -> bool:
    """Exhaustive test: (-1)^{|J|} det(K - 1_J) >= 0 for every subset J."""
    n = k.n
    if n > ADMISSIBILITY_LIMIT:
        raise CapabilityError(
            f"exhaustive admissibility test capped at N={ADMISSIBILITY_LIMIT}, got {n}")
    masks = np.arange(1 << n, dtype=np.int64)
    chunk = 1 << 14
    for lo in range(0, len(masks), chunk):
        part = masks[lo:lo + chunk]
        dets = numerics.batched_det(_shifted_stack(k.mat, part))
        signed = np.where(_popcount(part) % 2 == 0, dets, -dets)
        if signed.min() < ADMISSIBILITY_TOL:
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
    """Kernel of Y on the complement of s, conditioned on s being included.

    Ground set of the result is the complement of s, relabeled 1..N-|s|
    in increasing original order.  Requires det(K_s) away from zero.
    """
    ss = normalize_subset(s, k.n)
    if not ss:
        return k
    if abs(principal_minor(k, ss)) <= 1e-12:
        raise ConditioningError(
            f"conditioning on a zero-probability event: det(K_S) ~ 0 for S={ss}")
    n = k.n
    comp = subset_complement(ss, n)
    ones_comp = np.zeros((n, n))
    for i in comp:
        ones_comp[i - 1, i - 1] = 1.0
    eye = np.eye(n)
    m = k.mat + (eye - k.mat) @ ones_comp
    x = numerics.solve_linear(m, eye - k.mat)
    idx = [i - 1 for i in comp]
    cond = np.eye(len(comp)) - x[np.ix_(idx, idx)]
    return SignedKernel(cond)


# ---------------------------------------------------------------------------
# size distribution

def size_polynomial(k: SignedKernel) -> np.ndarray:
    """Coefficients of det(I - K + zK); coefficient p is P[|Y| = p].

    Evaluated at N+1 consecutive integers centered at z = 1 (where the
    determinant stays O(1)) and interpolated back to monomial form.
    """
    n = k.n
    lo = 1 - (n + 1) // 2
    zs = np.arange(lo, lo + n + 1, dtype=float)
    eye = np.eye(n)
    points = [(z, numerics.det(eye + (z - 1.0) * k.mat)) for z in zs]
    coeffs = numerics.interpolate(points)
    return coeffs


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
    mat = np.diag(diag)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = signs[idx] * mags[idx] * mu
            mat[j, i] = eps[idx] * mat[i, j]
            idx += 1
    return SignedKernel(mat)
