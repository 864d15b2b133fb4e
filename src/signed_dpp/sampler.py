"""Exact sampling, whole batches at a time.

Two exact schemes: inverse-CDF over the fully enumerated point masses
(N <= 16), and a sequential conditional walk over items 1..N that
updates a residual kernel after every decision (the LU-style sampler of
Poulson 2019).  The walk runs a block of samples at once and keeps one
residual per distinct decision prefix, not per sample.  After t + 1
decisions a block of R samples holds at most min(R, 2^(t+1)) residuals,
so a block holds the most samples for which that residual stack and the
block's draws each fit in _WALK_CELLS entries: 65,536 at N = 16, 346 at
N = 64.  Sample index i always draws from rng.stream(seed, i), so
batches are reproducible and order-independent.  A batch holds one
uint64 mask per sample: N <= 64.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import rng
from .errors import CapabilityError, DimensionError, FormatError, SamplingError
from .kernel import (
    PMF_CLAMP,
    SignedKernel,
    enumerate_pmf,
    mask_to_subset,
    normalize_subset,
    read_text,
    subset_to_mask,
)

MASK_ITEMS = 64      # bits in a sample mask
_WALK_CELLS = 256 * 64 * 64   # residual entries per block of the sequential walk


def _require_mask_width(n_items: int) -> None:
    if n_items < 0:
        raise DimensionError(f"a ground set cannot have {n_items} items")
    if n_items > MASK_ITEMS:
        raise CapabilityError(f"sample batches hold one {MASK_ITEMS}-bit mask per "
                              f"draw, so N is capped at {MASK_ITEMS}, got {n_items}")


class SampleBatch:
    """Observed subsets of {1..n_items}, in draw order, held as bitmasks.

    ``SampleBatch(n, masks=...)`` takes the masks directly; ``samples``
    views them as sorted index tuples.
    """

    def __init__(self, n_items: int, samples: Iterable[Iterable[int]] = (), *, masks=None):
        _require_mask_width(n_items)
        if masks is None:
            masks = [subset_to_mask(normalize_subset(s, n_items)) for s in samples]
        self._hold(n_items, np.array(masks, dtype=np.uint64).reshape(-1))

    @classmethod
    def _of_fresh(cls, n_items: int, masks: np.ndarray) -> "SampleBatch":
        """The batch of ``masks``, a 1-d uint64 array that nothing else
        refers to: held as it is, with no copy."""
        _require_mask_width(n_items)
        batch = cls.__new__(cls)
        batch._hold(n_items, masks)
        return batch

    def _hold(self, n_items: int, masks: np.ndarray) -> None:
        self.n_items, self._samples, self._masks = int(n_items), None, masks
        masks.flags.writeable = False
        if n_items < MASK_ITEMS and masks.size and int(masks.max()) >> n_items:
            raise DimensionError(f"sample masks name items above {n_items}")

    def __len__(self) -> int:
        return len(self._masks)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SampleBatch) and self.n_items == other.n_items
                and np.array_equal(self._masks, other._masks))

    def masks(self) -> np.ndarray:
        """Read-only uint64 array; bit i-1 is set when item i is in the sample."""
        return self._masks

    @property
    def samples(self) -> tuple[tuple[int, ...], ...]:
        if self._samples is None:
            self._samples = tuple(_per_distinct_mask(self._masks, mask_to_subset))
        return self._samples


def _per_distinct_mask(masks: np.ndarray, fn) -> list:
    """[fn(m) for m in masks], calling fn once per distinct mask."""
    distinct, inverse = np.unique(masks, return_inverse=True)
    values = [fn(m) for m in distinct.tolist()]
    return [values[t] for t in inverse.tolist()]


# ---------------------------------------------------------------------------
# enumeration sampler

def sample_enumerate(k: SignedKernel, count: int, seed: int) -> SampleBatch:
    """i.i.d. draws by inverse CDF over the enumerated distribution, filled
    into one mask array rng._CHUNK_WORDS draws at a time, so that the
    draws' working memory does not grow with the count."""
    count = rng._check_count(count, "sample count")
    cdf = np.cumsum(enumerate_pmf(k))
    table = _guide_table(cdf, count)
    masks = np.empty(count, dtype=np.uint64)
    for lo in range(0, count, rng._CHUNK_WORDS):
        hi = min(count, lo + rng._CHUNK_WORDS)
        u = rng.uniforms(seed, np.arange(lo, hi), 1)[:, 0]
        masks[lo:hi] = np.minimum(_inverse_cdf(cdf, u, table), len(cdf) - 1)
    return SampleBatch._of_fresh(k.n, masks)


def _guide_table(cdf: np.ndarray, count: int) -> tuple:
    """(B, guide, cdf followed by inf, which cells hold two or more entries)
    for count draws searched in cdf: B, a power of two, is about
    min(4 len(cdf), count) cells, and guide[c] counts the entries <= c/B."""
    cells = 1 << (max(1, min(4 * len(cdf), count)) - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(cells + 1) / cells, side="right")
    return cells, guide, np.append(cdf, np.inf), np.diff(guide) > 1


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray, table: tuple | None = None) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") for a nondecreasing cdf and u
    in [0, 1), by a guide table (Chen and Asau's indexed search), the
    _guide_table of cdf for len(u) draws unless one is given: u lies in
    cell floor(u * B), exact for B a power of two.  A cell of at most one
    entry needs one comparison; the draws in cells of two or more are
    searched."""
    cells, guide, upper, wide_cell = _guide_table(cdf, len(u)) if table is None else table
    cell = (u * cells).astype(np.intp)
    first = guide[cell]
    out = first + (upper[first] <= u)
    wide = np.flatnonzero(wide_cell[cell])
    out[wide] = np.searchsorted(cdf, u[wide], side="right")
    return out


# ---------------------------------------------------------------------------
# sequential conditional sampler

def _walk_rows(n: int) -> int:
    """Rows per block of the sequential walk over n items: the most for
    which the block's draws, rows x n, and its largest residual stack each
    fit in _WALK_CELLS entries.  After t + 1 decisions a block holds at
    most min(rows, 2^(t+1)) residuals of (n - 1 - t)^2 entries; where
    2^(t+1) of them would not fit, the rows are capped instead."""
    rows = _WALK_CELLS // max(1, n)
    for t in range(n - 1):
        side = (n - 1 - t) ** 2
        if side << (t + 1) > _WALK_CELLS:
            rows = min(rows, _WALK_CELLS // side)
    return max(1, rows)


def _sequential_walk(k: SignedKernel, count: int, draws, probabilities: bool = True):
    """Visit items 1..N in order for ``count`` samples, a block at a time.

    Sample r takes item i when draws(lo, hi)[r - lo, i-1] is below its
    clamped probability: uniforms draw a sample, -1 (take) and 2 (leave)
    fix a path.  The residual kernel over the undecided items starts as K;
    including or excluding the next item is a rank-1 update of its
    trailing block.  Rows that made the same decisions so far share one
    residual, and everything but the decision is held per prefix: each row
    carries only the id of its decision prefix, the children of prefix g
    are numbered 2g + take and compacted in that order, and each child is
    updated once from its parent, in the one-sample operation order, with
    the sign of the update folded into its denominator.  A zero-probability
    decision ends its rows' walks: they move to the id len(residuals),
    whose probability -inf takes nothing, and their later steps report
    probability 1.  On draws in [0, 1) no row ends so.  A block holds
    _walk_rows(N) rows, so its draws and its residuals each stay within
    _WALK_CELLS entries.  The draws, the taken items and the probabilities
    are stored item-major, so every step reads and writes contiguous rows.
    Returns (taken items as a (count, N) bool array, per-step probability
    of the decision taken), as views of those arrays; without
    ``probabilities`` the second is None and is not filled.
    """
    n = k.n
    taken = np.zeros((n, count), dtype=bool)
    factors = np.ones((n, count)) if probabilities else None
    block = _walk_rows(n)
    for lo in range(0, count, block):
        hi = min(count, lo + block)
        u = np.ascontiguousarray(draws(lo, hi).T)
        resid = k.mat[..., None]                  # one residual per live prefix, last axis
        prefix = np.zeros(hi - lo, dtype=np.intp)  # each row's prefix id
        for t in range(n):
            # Every live prefix has a row, so a bad prefix is a bad row.
            raw = resid[0, 0]
            bad = ~((raw >= -PMF_CLAMP) & (raw <= 1.0 + PMF_CLAMP))
            if bad.any():
                first = prefix[np.argmax(np.append(bad, False)[prefix])]
                raise SamplingError(f"conditional inclusion probability {float(raw[first])!r} "
                                    "outside [0, 1]: kernel is not admissible")
            p = np.append(np.where(raw < 0.0, 0.0, np.minimum(raw, 1.0)), -np.inf)
            take = np.less(u[t], p[prefix], out=taken[t, lo:hi])
            key = 2 * prefix + take
            # Child 2g + took of prefix g decides with probability p[g] or 1 - p[g];
            # the rows of the dead id L leave, as child 2L, with probability 1.
            factor = np.empty(2 * len(p))
            factor[0::2], factor[1::2], factor[-2] = 1.0 - p, p, 1.0
            if probabilities:
                np.take(factor, key, out=factors[t, lo:hi])
            if (p == 0.0).any():     # a row that took a zero-probability item took nothing
                take &= factor[key] != 0.0
            if t == n - 1:
                break
            present = np.zeros(len(factor), dtype=bool)
            present[key] = True
            present &= factor != 0.0      # a zero-probability decision ends its rows' walks
            present[-2] = False           # and ended walks stay ended
            child = np.flatnonzero(present)
            if not child.size:
                break
            ids = np.full(len(factor), len(child))
            ids[child] = np.arange(len(child))
            prefix = ids[key]
            # Child 2g + took divides by 1 - raw[g] or -raw[g]: R - U/d is R + U/(-d).
            denom = np.empty(2 * len(raw))
            denom[0::2], denom[1::2] = 1.0 - raw, -raw
            denom = denom[child]
            small = np.abs(denom) <= 1e-12
            if small.any():
                first = prefix[np.argmax(np.append(small, False)[prefix])]
                raise SamplingError(
                    f"degenerate conditioning at item {t + 1}: decision probability "
                    f"{float(-denom[first] if child[first] & 1 else denom[first])!r} "
                    "is ~ 0 (round-off path)")
            r = np.take(resid, child >> 1, axis=2)
            update = r[1:, :1] * r[:1, 1:]
            update /= denom
            resid = np.add(update, r[1:, 1:], out=update)
    return taken.T, factors.T if probabilities else None


def sample_sequential(k: SignedKernel, seed: int, index: int = 0) -> tuple[int, ...]:
    """One draw from the sequential conditional scheme (substream ``index``)."""
    taken, _ = _sequential_walk(k, 1, lambda lo, hi: rng.stream(seed, index).random((1, k.n)),
                                probabilities=False)
    return tuple(int(i) + 1 for i in np.flatnonzero(taken[0]))


def sample_sequential_batch(k: SignedKernel, count: int, seed: int) -> SampleBatch:
    """i.i.d. draws from the sequential scheme, one substream per index."""
    count = rng._check_count(count, "sample count")
    _require_mask_width(k.n)
    taken, _ = _sequential_walk(
        k, count, lambda lo, hi: rng.uniforms(seed, np.arange(lo, hi), k.n), probabilities=False)
    rows = np.zeros((count, 8), dtype=np.uint8)     # one little-endian mask per row
    rows[:, :-(-k.n // 8)] = np.packbits(taken, axis=1, bitorder="little")
    return SampleBatch._of_fresh(k.n, rows.view("<u8").astype(np.uint64, copy=False).reshape(-1))


def sequential_path_probabilities(k: SignedKernel, j: Iterable[int]) -> np.ndarray:
    """Per-step probabilities of the decision path that produces subset j.

    Entry i-1 is P[decision at item i | decisions 1..i-1].  Their product
    is the point mass of j.  Steps after a zero-probability decision are
    reported as 1 so the product is unaffected.
    """
    path = np.full((1, k.n), 2.0)
    path[0, [i - 1 for i in normalize_subset(j, k.n)]] = -1.0
    return _sequential_walk(k, 1, lambda lo, hi: path)[1][0]


# ---------------------------------------------------------------------------
# samples text format: one line per sample, sorted indices separated by
# single spaces; the empty set is "-"

def format_samples(batch: SampleBatch) -> str:
    """The samples text, built per distinct mask from two tables, per mask
    byte k, of the items of each of its 256 values: one with a space before
    every item, for when a lower byte is nonzero, and one without a space
    before the first.  Each table doubles eight times, by array ops: the
    values with bit b set are those without it, followed by item 8k + b + 1."""
    distinct, inverse = np.unique(batch.masks(), return_inverse=True)
    octets = distinct.astype("<u8").view(np.uint8).reshape(-1, 8)
    lines = np.full(len(distinct), "", dtype=object)
    for k in range(-(-batch.n_items // 8)):
        first, after = np.array([""], dtype=object), np.array([""], dtype=object)
        for b in range(8):
            item = np.full(len(first), f" {8 * k + b + 1}", dtype=object)
            after = np.concatenate([after, after + item])
            item[0] = item[0][1:]                     # no space before an only item
            first = np.concatenate([first, first + item])
        lower = (distinct & np.uint64((1 << 8 * k) - 1)) != 0
        lines += np.concatenate([first, after])[octets[:, k] + 256 * lower]
    if len(distinct) and distinct[0] == 0:
        lines[0] = "-"
    return "\n".join(lines[inverse].tolist()) + "\n" if len(inverse) else ""


def parse_samples(text: str, n_items: int) -> SampleBatch:
    """The batch a samples text describes.  Text in the canonical grammar
    that format_samples writes is parsed as whole arrays; any other text
    goes, whole, through the per-line parser, which alone defines what is
    accepted and how a malformed line is reported."""
    masks = _parse_canonical(text, n_items)
    return SampleBatch._of_fresh(n_items, masks) if masks is not None else _parse_lines(text, n_items)


def _parse_canonical(text: str, n_items: int) -> np.ndarray | None:
    """Masks of a canonical samples text, or None for any other text.

    Canonical: every line is "-" or increasing indices in 1..n_items with
    no leading zero, joined by single spaces; lines end in "\n", and the
    last one may lack it.  Such a text parses the same by _parse_lines.
    The text is read after a "\n", so that every line follows one, and
    every step runs over whole arrays of chars, indices or lines.
    """
    if not text.isascii() or not 0 <= n_items <= MASK_ITEMS:
        return None
    if not text:
        return np.zeros(0, dtype=np.uint64)
    if not text.endswith("\n"):
        text += "\n"
    b = np.frombuffer(("\n" + text).encode("ascii"), dtype=np.uint8)
    digit, newline, space, dash = b - np.uint8(48) < 10, b == 10, b == 32, b == 45
    # Checks on adjacent chars, b[:-1] before b[1:]; the first and last chars are "\n".
    first, later = slice(None, -1), slice(1, None)
    if (not (digit | newline | space | dash).all()
            or (newline[first] & newline[later]).any()                 # an empty line
            or (dash[later] & ~newline[first]).any() or (dash[first] & ~newline[later]).any()
            or (space[later] & ~digit[first]).any() or (space[first] & ~digit[later]).any()
            or (digit[2:] & digit[1:-1] & digit[:-2]).any()):          # three digits in a row
        return None
    starts = np.flatnonzero(digit[1:] > digit[:-1]) + 1               # a digit after another char
    lead = b[starts] - np.uint8(48)
    if (lead == 0).any():                                              # a leading zero
        return None
    second = b[starts + 1] - np.uint8(48)    # wraps past 9 after a one-digit index
    values = np.where(second < 10, 10 * lead + second, lead)
    head = newline[starts - 1]               # an index that starts its line
    if (values > n_items).any() or (~head[1:] & (values[1:] <= values[:-1])).any():
        return None
    ends = np.flatnonzero(newline)           # the leading "\n", then every line's end
    masks = np.zeros(len(ends) - 1, dtype=np.uint64)
    if starts.size:
        bits = np.uint64(1) << (values - 1).astype(np.uint64)
        lines = np.flatnonzero(digit[ends[:-1] + 1])                   # the lines that are not "-"
        masks[lines] = np.add.reduceat(bits, np.flatnonzero(head))     # distinct bits: the sum is the OR
    return masks


def _parse_lines(text: str, n_items: int) -> SampleBatch:
    """Per-line parser: each line, stripped, is "-" or 1-based indices
    separated by single spaces, as int() reads them, strictly increasing."""
    seen = {"-": 0}   # the mask of each distinct stripped line
    masks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped not in seen:
            if not stripped:
                raise FormatError(f"samples line {lineno}: empty line")
            try:
                items = tuple(int(tok) for tok in stripped.split(" "))
            except ValueError as exc:
                raise FormatError(f"samples line {lineno}: {exc}") from exc
            if any(not 1 <= i <= n_items for i in items):
                raise FormatError(f"samples line {lineno}: index out of range 1..{n_items}")
            if any(a >= b for a, b in zip(items, items[1:])):
                raise FormatError(f"samples line {lineno}: indices must be strictly increasing")
            seen[stripped] = subset_to_mask(items)
        masks.append(seen[stripped])
    return SampleBatch(n_items, masks=masks)


def write_samples(path: str, batch: SampleBatch) -> None:
    from .kernel import atomic_write
    atomic_write(path, format_samples(batch))


def read_samples(path: str, n_items: int) -> SampleBatch:
    return parse_samples(read_text(path), n_items)
