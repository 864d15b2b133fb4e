"""Principal-minor estimation: the statistical front end.

The inclusion probability of a subset J equals the minor det(K_J), so
its empirical counterpart is the fraction of observed samples containing
J.  The dense reconstruction pipeline only ever needs orders 1..4.

estimate_required_minors counts all of them in one of two exact ways.
For few items, the superset sums of the histogram of sample masks: the
count of J is the sum of the histogram over the masks S ⊇ J, the
empirical side of det(K_J) = Σ_{S ⊇ J} P(Y = S).  Otherwise, the pair
Gram P^T diag(w) P of the distinct sample masks (P has a row per mask
and a column per pair of items, w holds the masks' counts): a triangle
or a 4-set is counted in the entry of two of its pairs.

MinorList holds each order as arrays indexed by the colex rank of a
subset; the builders fill whole orders in ``kernel.colex_table`` order,
and the JSON form places every key by a closed form, ranking nothing.
Its reads, and those of ``KernelMinors``, which computes each minor from
the kernel, are recorded, so tests can assert what an algorithm reads.
"""

from __future__ import annotations

import json
import math
from collections.abc import Set
from typing import Iterable

import numpy as np

from .errors import CapabilityError, DimensionError, FormatError, MissingMinorError
from .kernel import (
    ENUMERATION_LIMIT,
    SignedKernel,
    colex_minors,
    colex_rank,
    colex_table,
    colex_unrank,
    normalize_subset,
    pair_index,
    principal_minors,
    read_text,
    subset_to_mask,
)
from .numerics import DET_CHUNK
from .sampler import SampleBatch

ORDER_LIMIT = 1 << 24    # subsets per order a MinorList holds; larger orders are refused
# Sample-by-pair cells of P per counting chunk (more when the Gram blocks of
# _gram_counts are larger).
_COUNT_CELLS = 1 << 16
# _superset_counts holds one count per subset mask, so it serves at most
# 2^TABLE_BITS masks (32 MB of counts).  Its N 2^N cell updates cost about
# _TABLE_COST times as much per cell as the Gram's multiply-adds.
TABLE_BITS = 22
_TABLE_COST = 5


class MinorList:
    """Map from nonempty subsets of {1..n} to principal-minor values.

    Order t is three arrays indexed by ``kernel.colex_rank``: values, a
    presence mask and a read mask (the reads of get() and get_many(), seen
    through ``queried``).  An order is allocated on its first write, and
    one of more than ORDER_LIMIT subsets raises CapabilityError before any
    subset is ranked; so does a list of more than ORDER_LIMIT items, which
    could hold no minor at all.  Keys are sorted 1-based tuples, listed in
    colex (bitmask) order; a whole order is listed as its ``colex_table``.
    """

    def __init__(self, n: int, entries: dict | None = None):
        if n < 1:
            raise DimensionError(f"ground-set size must be positive, got {n}")
        self.n = int(n)
        self._size(1)
        self._orders: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for j, v in (entries or {}).items():
            self.put(j, v)

    def _size(self, t: int) -> int:
        """C(n, t), refused above ORDER_LIMIT."""
        size = math.comb(self.n, t)
        if size > ORDER_LIMIT:
            raise CapabilityError(
                f"order {t} of N={self.n} has {size} subsets, above the "
                f"{ORDER_LIMIT} a minor list holds per order")
        return size

    def _order(self, t: int):
        """(values, present, read) of order t, allocated on first use."""
        if t not in self._orders:
            size = self._size(t)
            self._orders[t] = (np.zeros(size), np.zeros(size, dtype=bool),
                               np.zeros(size, dtype=bool))
        return self._orders[t]

    def _table(self, t: int) -> np.ndarray:
        """The rows of the whole order t, ``colex_table(n, t)``; an order
        above ORDER_LIMIT is refused before its table is built."""
        self._size(t)
        return colex_table(self.n, t)

    def _sorted(self, subsets) -> np.ndarray:
        """The sorted rows of an (m, t) array of 1-based subsets, not copied
        when already sorted (at N = 64 the 4-sets take 20 MB); the first
        invalid row is rejected as ``normalize_subset`` does."""
        try:
            idx = np.asarray(subsets, dtype=np.int64)
        except OverflowError:
            for row in subsets:      # an index beyond int64 is out of range
                normalize_subset(row, self.n)
            raise
        if idx.ndim != 2 or idx.shape[1] == 0:
            raise DimensionError(f"expected an (m, t) array of subsets, t >= 1, got shape {idx.shape}")
        if not (idx[:, 1:] > idx[:, :-1]).all():
            idx = np.sort(idx, axis=1)
        bad = (idx[:, 0] < 1) | (idx[:, -1] > self.n)
        for c in range(1, idx.shape[1]):
            bad |= idx[:, c] == idx[:, c - 1]
        if bad.any():
            normalize_subset(np.asarray(subsets)[np.argmax(bad)].tolist(), self.n)
        return idx

    def _ranks(self, idx: np.ndarray) -> np.ndarray:
        """The colex ranks of sorted 1-based rows, DET_CHUNK rows at a time."""
        ranks = [colex_rank(idx[lo:lo + DET_CHUNK] - 1, self.n) for lo in range(0, len(idx), DET_CHUNK)]
        return np.concatenate(ranks or [np.zeros(0, dtype=np.int64)])

    @staticmethod
    def _finite(idx: np.ndarray, values) -> np.ndarray:
        """The values as floats, one per row of ``idx``; the first
        non-finite one is refused, naming its subset."""
        values = np.asarray(values, dtype=float).reshape(len(idx))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DimensionError(f"minor for {tuple(idx[bad[0]].tolist())} must be finite, "
                                 f"got {values[bad[0]]}")
        return values

    def _write(self, subsets, values) -> None:
        """Bulk ``put``: store the values of an (m, t) array of 1-based subsets."""
        idx = self._sorted(subsets)
        values = self._finite(idx, values)
        stored, present, _ = self._order(idx.shape[1])
        ranks = self._ranks(idx)
        stored[ranks] = values
        present[ranks] = True

    def _fill(self, t: int, values) -> None:
        """Store the whole order t: one value per row of ``_table(t)``, in
        its order, which is the rank order, so nothing is ranked."""
        values = self._finite(self._table(t), values)
        stored, present, _ = self._order(t)
        stored[:] = values
        present[:] = True

    def _has(self, j, which: int) -> bool:
        """Whether subset j is set in its order's mask ``which`` (1 present, 2 read)."""
        key = normalize_subset(j, self.n, allow_empty=False)
        arrays = self._orders.get(len(key))
        return arrays is not None and bool(arrays[which][colex_rank(np.array([key]) - 1, self.n)[0]])

    def _count(self, which: int) -> int:
        return sum(np.count_nonzero(arrays[which]) for arrays in self._orders.values())

    def _rows(self, which: int):
        """Per order, increasing: the (m, t) 1-based subsets set in mask
        ``which``, in colex order, and their values.  A whole order gives its
        shared ``colex_table`` and a read-only view of the values."""
        for t in sorted(self._orders):
            values, mask = self._orders[t][0], self._orders[t][which]
            if mask.all():
                view = values.view()
                view.flags.writeable = False
                yield colex_table(self.n, t), view
            else:
                ranks = np.flatnonzero(mask)
                yield colex_unrank(ranks, self.n, t) + 1, values[ranks]

    def put(self, j: Iterable[int], value: float) -> None:
        self._write([normalize_subset(j, self.n, allow_empty=False)], [float(value)])

    def get(self, j: Iterable[int]) -> float:
        return float(self.get_many([normalize_subset(j, self.n, allow_empty=False)])[0])

    def get_many(self, subsets) -> np.ndarray:
        """Bulk ``get``: the minors of an (m, t) array of 1-based subsets.

        Every row is normalized like a key of ``get``.  The first missing
        subset raises MissingMinorError after the rows before it have been
        recorded as read.
        """
        idx = self._sorted(subsets)
        if len(idx) == 0:
            return np.empty(0)
        if idx.shape[1] not in self._orders:    # so only an order that fits is ranked
            raise MissingMinorError(f"minor for subset {tuple(idx[0].tolist())} not in the list")
        values, present, read = self._orders[idx.shape[1]]
        ranks = self._ranks(idx)
        missing = np.flatnonzero(~present[ranks])
        if missing.size:
            read[ranks[:missing[0]]] = True
            raise MissingMinorError(f"minor for subset {tuple(idx[missing[0]].tolist())} not in the list")
        read[ranks] = True
        return values[ranks]

    @property
    def queried(self) -> "QueriedSubsets":
        """The subsets read so far, as a live set-like view."""
        return QueriedSubsets(self)

    def reset_queries(self) -> None:
        for _, _, read in self._orders.values():
            read[:] = False

    def __contains__(self, j) -> bool:
        return self._has(j, 1)

    def __len__(self) -> int:
        return self._count(1)

    def arrays(self):
        """Per order, increasing: the (m, t) array of present 1-based
        subsets in colex order and their values.  Reads are not recorded."""
        return self._rows(1)

    def _colex(self) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
        """The orders as ``arrays()`` lists them, the ``_colex_order`` of
        their concatenated rows, and the values in it."""
        parts = list(self.arrays())
        order = _colex_order(self.n, [idx for idx, _ in parts])
        return parts, order, np.concatenate([np.empty(0)] + [v for _, v in parts])[order]

    def subsets(self) -> list[tuple[int, ...]]:
        """Present subsets in colexicographic order."""
        return [j for j, _ in self.items()]

    def items(self) -> list[tuple[tuple[int, ...], float]]:
        """(subset, minor) pairs in colexicographic order, as ``subsets()``."""
        parts, order, values = self._colex()
        keys = [tuple(row) for idx, _ in parts for row in idx.tolist()]
        return [(keys[t], v) for t, v in zip(order.tolist(), values.tolist())]


def _colex_order(n: int, tables: list[np.ndarray]) -> np.ndarray:
    """The colex (bitmask) order of the concatenated rows of (m, t) arrays
    of 1-based subsets of {1..n}, from the place of each row among all
    subsets of 1..T items, T the widest row.  The subsets of smaller mask
    than a row c_1 < ... < c_t (0-based items) are, for each i, those that
    agree with it above c_i, lack c_i and hold at most T - t + i of the
    items below c_i.  So its place is sum_i F(c_i, T - t + i) - 1, the
    empty set being no row, where F(c, m) = sum_{s <= m} C(c, s) counts
    the subsets of at most m of c items, and F(c, m) = 1 + sum_{c' < c}
    F(c', m - 1).  When the rows are every such subset, as the whole
    orders 1..T, the places are a permutation and are inverted, otherwise
    they are sorted (as Python ints once F passes int64)."""
    top = max((idx.shape[1] for idx in tables), default=0)
    count = sum(math.comb(n, s) for s in range(top + 1))    # F(n, T)
    f = np.ones((top + 1, n), dtype=np.int64 if count < 1 << 63 else object)
    for m in range(1, top + 1):
        f[m, 1:] = 1 + np.cumsum(f[m - 1, :-1])
    place = [np.zeros(0, dtype=f.dtype)]
    for idx in tables:
        t = idx.shape[1]
        at = np.full(len(idx), -1, dtype=f.dtype)
        for i in range(t):
            at += f[top - t + i + 1, idx[:, i].astype(np.intp) - 1]
        place.append(at)
    place = np.concatenate(place)
    if len(place) != count - 1:
        return np.argsort(place)
    order = np.empty(len(place), dtype=np.intp)
    order[place] = np.arange(len(place))
    return order


def _whole_keys(n: int, top: int) -> list[list[str]]:
    """The minors JSON keys "i,j,..." of the t-subsets of {1..n} in colex
    order, t = 1..top, by colex nesting: order t lists, for c = t..n, the
    first C(c - 1, t - 1) keys of order t - 1, each with ",c" appended."""
    keys = [[str(c) for c in range(1, n + 1)]] if top else []
    for t in range(2, top + 1):
        prev = keys[-1]
        keys.append([key + tail for c in range(t, n + 1) for tail in (f",{c}",)
                     for key in prev[:math.comb(c - 1, t - 1)]])
    return keys


def _json_keys(n: int, tables: list[np.ndarray]) -> np.ndarray:
    """The minors JSON keys "i,j,..." of the concatenated rows of (m, t)
    arrays of 1-based subsets of {1..n}, each in colex order, as an object
    array: a whole order's from ``_whole_keys``, any other's joined by
    columns from tables of "i" and ",i".  minors_to_json writes them, and
    minors_from_json recognizes whole orders by them."""
    whole = _whole_keys(n, max((idx.shape[1] for idx in tables
                                if len(idx) == math.comb(n, idx.shape[1])), default=0))
    head = np.array([str(i) for i in range(n + 1)], dtype=object)
    tail = np.array([f",{i}" for i in range(n + 1)], dtype=object)
    keys = [np.empty(0, dtype=object)]
    for idx in tables:
        if len(idx) == math.comb(n, idx.shape[1]):
            keys.append(np.array(whole[idx.shape[1] - 1], dtype=object))
            continue
        key = head[idx[:, 0]]
        for c in range(1, idx.shape[1]):
            key += tail[idx[:, c]]
        keys.append(key)
    return np.concatenate(keys)


class QueriedSubsets(Set):
    """Live view of a MinorList's read masks as a set of subset tuples."""

    def __init__(self, minors: MinorList):
        self._minors = minors

    def __len__(self) -> int:
        return self._minors._count(2)

    def __contains__(self, j) -> bool:
        try:
            return self._minors._has(j, 2)
        except (DimensionError, TypeError):
            return False

    def __iter__(self):
        for idx, _ in self._minors._rows(2):
            yield from map(tuple, idx.tolist())


class KernelMinors:
    """The principal minors of a kernel, computed as read: ``get_many`` is
    ``principal_minors`` of exactly the sorted 1-based rows asked for, and
    ``queried`` the set of rows read.  No ORDER_LIMIT applies."""

    def __init__(self, k: SignedKernel):
        self.n, self._mat, self._read = k.n, k.mat, []

    def get_many(self, subsets) -> np.ndarray:
        self._read.append(np.asarray(subsets))
        return principal_minors(self._mat, subsets)

    @property
    def queried(self) -> frozenset:
        return frozenset(tuple(row) for rows in self._read for row in rows.tolist())


# ---------------------------------------------------------------------------
# estimators

def _distinct_masks(batch: SampleBatch) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sample masks and their counts as floats: the sums of
    counts are exact below 2^53, and the products with them run in BLAS."""
    distinct, counts = np.unique(batch.masks(), return_counts=True)
    return distinct, counts.astype(float)


def estimate_minor(batch: SampleBatch, j: Iterable[int]) -> float:
    """Fraction of samples containing j (the empirical inclusion frequency)."""
    jm = np.uint64(subset_to_mask(normalize_subset(j, batch.n_items, allow_empty=False)))
    if len(batch) == 0:
        raise DimensionError("cannot estimate from an empty batch")
    return np.count_nonzero((batch.masks() & jm) == jm) / len(batch)


def estimate_required_minors(batch: SampleBatch, max_order: int) -> MinorList:
    """Empirical minors for every subset of size 1..max_order, counted by
    ``_superset_counts`` when ``_uses_table`` says so, else by
    ``_gram_counts``; both counts are exact, so the estimates agree bit
    for bit."""
    if max_order not in (1, 2, 3, 4):
        raise DimensionError(f"max_order must be in 1..4, got {max_order}")
    n = batch.n_items
    if n < 1:
        raise DimensionError("estimating minors needs a ground set of at least one item")
    if len(batch) == 0:
        raise DimensionError("cannot estimate from an empty batch")
    out = MinorList(n)
    tables = [out._table(t) for t in range(1, min(max_order, n) + 1)]
    count = _superset_counts if _uses_table(n, len(batch), sum(map(len, tables))) else _gram_counts
    for t, counts in enumerate(count(batch, tables), 1):
        out._fill(t, counts / len(batch))
    return out


def _uses_table(n: int, draws: int, minors: int) -> bool:
    """Whether ``_superset_counts`` is the cheaper count of ``minors``
    subsets from ``draws`` samples of n items: its n 2^n cell updates,
    _TABLE_COST times as dear each, against the multiply-adds of
    ``_gram_counts``, one per minor and distinct mask (its Gram blocks
    hold C(n, 3) + C(n, 4) cells), at most min(draws, 2^n) masks.  Never
    above TABLE_BITS items."""
    return n <= TABLE_BITS and _TABLE_COST * n * (1 << n) < min(draws, 1 << n) * minors


def _superset_counts(batch: SampleBatch, tables: list[np.ndarray]) -> list[np.ndarray]:
    """The number of samples containing each row of ``tables[t - 1]``,
    the 1-based t-subsets in colex order (``colex_table``): the histogram
    of the sample masks over all 2^n masks, summed over supersets one
    item at a time (n passes of the zeta transform), read at each row's
    mask."""
    n = batch.n_items
    counts = np.bincount(batch.masks().astype(np.intp), minlength=1 << n)
    for i in range(n):
        half = 1 << i
        rows = counts.reshape(-1, 2 * half)     # mask [:, half + c] is [:, c] with item i + 1
        if half < 8:      # numpy adds a short inner axis slowly; one column at a time
            for c in range(half):
                rows[:, c] += rows[:, half + c]
        else:
            rows[:, :half] += rows[:, half:]
    return [counts[(np.intp(1) << (table.astype(np.intp) - 1)).sum(axis=1)] for table in tables]


def _gram_counts(batch: SampleBatch, tables: list[np.ndarray]) -> list[np.ndarray]:
    """The number of samples containing each row of ``tables[t - 1]``,
    the 1-based t-subsets in colex order (``colex_table``), for t = 1..4
    at most.  It runs where ``_uses_table`` refuses the superset sums:
    past TABLE_BITS items, and where many items meet few distinct masks
    (at N = 20 below about 17,000 draws).

    Row r of B holds the item bits of distinct mask r, w[r] its count, and
    column (i, j) of P is B[:, i] * B[:, j], pairs in lexicographic order.
    Singletons are counted by w B and pairs by w P, then gathered into
    colex order.  The Gram G = P^T diag(w) P holds a triangle i < j < k
    at G[(i, j), (j, k)] and a 4-set i < j < k < l at G[(i, j), (k, l)],
    so only the blocks G_j = G[(., j), (j.., .)] are formed: rows i < j,
    columns the pairs from (j, j + 1) on (only those starting at j when
    t <= 3).  They are summed over chunks of distinct masks whose P holds
    at most max(_COUNT_CELLS, |blocks|) cells.  Every sum is an integer
    below 2^53, so the counts are exact.
    """
    n, top = batch.n_items, len(tables)
    distinct, weight = _distinct_masks(batch)
    lo_item, hi_item = np.triu_indices(n, 1)
    mid = np.arange(n)
    first = pair_index(n, mid, mid + 1)           # P's column of the pair (j, j + 1)
    width = np.zeros(n, dtype=np.int64)           # G_j's columns: pairs (j, l), then (k > j, l)
    if top > 2:
        width[1:-1] = (n - 1 - mid if top == 3 else len(lo_item) - first)[1:-1]
    offset = np.concatenate(([0], np.cumsum(mid * width)))   # G_j starts at offset[j]
    blocks = np.zeros(offset[-1])
    counts = [np.zeros(n), np.zeros(len(lo_item))][:top]
    # P may be as large as the blocks: with shorter chunks, re-adding into the
    # blocks takes most of the time at N = 64.
    rows = max(_COUNT_CELLS, len(blocks)) // max(1, len(lo_item))
    shifts = np.arange(n, dtype=np.uint64)[:, None]
    for lo in range(0, len(distinct), rows):
        w = weight[lo:lo + rows]
        bits = ((distinct[lo:lo + rows] >> shifts) & np.uint64(1)).astype(float)   # B^T
        counts[0] += bits @ w
        if top == 1:
            continue
        pairs = bits[lo_item]                                                      # P^T
        pairs *= bits[hi_item]
        counts[1] += pairs @ w
        for j in np.flatnonzero(width):
            gram = (bits[:j] * (w * bits[j])) @ pairs[first[j]:first[j] + width[j]].T
            blocks[offset[j]:offset[j + 1]] += gram.ravel()
    if top > 1:
        i, j = tables[1].T.astype(np.intp) - 1
        counts[1] = counts[1][pair_index(n, i, j)]
    for table in tables[2:]:
        i, j, k, *l = table.T.astype(np.intp) - 1
        column = k - j - 1 if not l else pair_index(n, k, l[0]) - first[j]
        counts.append(blocks[offset[j] + i * width[j] + column])
    return counts


def exact_minors(k: SignedKernel, max_order: int | str = "all") -> MinorList:
    """True principal minors of k up to the requested order.

    ``max_order="all"`` computes the full list and is capped at N=16.
    Orders 3 and 4 together take one ``kernel.colex_minors`` pass, the
    others ``principal_minors``; the two agree bit for bit.
    """
    n = k.n
    if max_order == "all":
        if n > ENUMERATION_LIMIT:
            raise CapabilityError(
                f"full minor lists capped at N={ENUMERATION_LIMIT}, got {n}")
        top = n
    else:
        top = int(max_order)
        if not 1 <= top <= n:
            raise DimensionError(f"max_order must be in 1..{n}, got {max_order}")
    out = MinorList(n)
    whole = {}
    for t in range(1, top + 1):
        if t == 3 and top >= 4:      # both in one pass, each refused first if too large
            out._size(3), out._size(4)
            whole = dict(zip((3, 4), colex_minors(k.mat)))
        out._fill(t, whole[t] if t in whole else principal_minors(k.mat, out._table(t)))
    return out


# ---------------------------------------------------------------------------
# JSON round trip ({"n": N, "minors": {"1,2": value, ...}})

def minors_to_json(minors: MinorList) -> str:
    """json.dumps of {"n": n, "minors": {"i,j,...": value}} in colex order:
    the ``_json_keys`` of the orders, placed by ``_colex_order``, make one
    template into which every value goes through %r, json's
    float.__repr__."""
    parts, order, values = minors._colex()
    if not len(order):
        return f'{{"n": {minors.n}, "minors": {{}}}}'
    keys = _json_keys(minors.n, [idx for idx, _ in parts])[order].tolist()
    template = '{"n": %d, "minors": {"' + '": %r, "'.join(keys) + '": %r}}'
    return template % (minors.n, *values.tolist())


def minors_from_json(text: str) -> MinorList:
    """The MinorList of a minors JSON text.

    When the keys are those that minors_to_json writes for the whole
    orders 1..T (``_whole_orders``) and every value is a number, each
    order is filled in rank order from one float map, and no key is
    tokenized or ranked.  Any other text is read key by key in file
    order: each key is split into its integers, and each order's rows are
    written by one ``MinorList._write``, orders in order of first
    appearance.  The first key or value that does not parse is named."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid minors JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "minors" not in obj:
        raise FormatError('minors JSON must be {"n": ..., "minors": ...}')
    n, entries = obj["n"], obj["minors"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError(f"minors JSON: n must be a positive integer, got {n!r}")
    if not isinstance(entries, dict):
        raise FormatError("minors JSON: minors must be an object")
    # a bool value is no number here, and an int beyond the float range is read key by key
    whole = _whole_orders(n, list(entries)) if set(map(type, entries.values())) <= {int, float} else None
    try:
        values = np.array(list(map(float, entries.values()))) if whole else None
    except OverflowError:
        whole = None
    by_order = {} if whole else _rows_by_order(entries)
    out = MinorList(n)
    try:
        if whole:
            tables, order = whole
            ranked = np.empty(len(values))
            ranked[order] = values
            for t, part in enumerate(np.split(ranked, np.cumsum([len(tb) for tb in tables])[:-1]), 1):
                out._fill(t, part)
            return out
        for rows, order_values in by_order.values():
            out._write(rows, order_values)
    except DimensionError as exc:
        raise FormatError(f"minors JSON: {exc}") from exc
    if len(out) != len(entries):
        raise FormatError(f"minors JSON: {len(entries) - len(out)} of {len(entries)} keys "
                          "repeat a subset that an earlier key names")
    return out


def _whole_orders(n: int, keys: list) -> tuple[list[np.ndarray], np.ndarray] | None:
    """When ``keys`` are those that minors_to_json writes for the whole
    orders 1..T of n items, T from the last key's commas: the
    ``colex_table`` of each order and the ``_colex_order`` of their
    concatenated rows, in which the keys list them.  Otherwise None."""
    top = keys[-1].count(",") + 1 if keys else 0
    if not 1 <= top <= n or len(keys) != sum(math.comb(n, t) for t in range(1, top + 1)):
        return None
    tables = [colex_table(n, t) for t in range(1, top + 1)]
    order = _colex_order(n, tables)
    return (tables, order) if _json_keys(n, tables)[order].tolist() == keys else None


def _rows_by_order(entries: dict) -> dict[int, tuple[list, list]]:
    """Per key size, in order of first appearance: the subsets and values
    of the entries, each key split into its integers, in file order.  The
    first key that is not comma-separated integers or value that is not a
    float-range number raises FormatError."""
    by_order: dict[int, tuple[list, list]] = {}
    for key, value in entries.items():
        try:
            subset = [int(tok) for tok in key.split(",")]
        except ValueError as exc:
            raise FormatError(f"minors JSON: bad subset key {key!r}") from exc
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"minors JSON: value for {key!r} is not a number")
        rows, values = by_order.setdefault(len(subset), ([], []))
        rows.append(subset)
        try:
            values.append(float(value))
        except OverflowError as exc:
            raise FormatError(f"minors JSON: value for {key!r} is beyond the float range") from exc
    return by_order


def write_minors(path: str, minors: MinorList) -> None:
    from .kernel import atomic_write
    atomic_write(path, minors_to_json(minors) + "\n")


def read_minors(path: str) -> MinorList:
    return minors_from_json(read_text(path))
