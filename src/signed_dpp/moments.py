"""Principal-minor estimation: the statistical front end.

The inclusion probability of a subset J equals the minor det(K_J), so
its empirical counterpart is the fraction of observed samples containing
J.  The dense reconstruction pipeline only ever needs orders 1..4.

MinorList doubles as the query-instrumented interface handed to the
solver: every lookup is recorded, so tests can assert how much of the
list an algorithm actually reads.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable

import numpy as np

from .errors import CapabilityError, DimensionError, FormatError, MissingMinorError
from .kernel import (
    ENUMERATION_LIMIT,
    SignedKernel,
    colex_key,
    normalize_subset,
    principal_minors,
    subset_to_mask,
    subsets_colex,
)
from .sampler import SampleBatch

# Default threshold below which estimated quantities are considered
# too noisy to carry a sign decision.
DEFAULT_TOLERANCE = 0.01
_COUNT_CELLS = 1 << 16   # subset-by-distinct-sample cells compared at once


class MinorList:
    """Map from nonempty subsets of {1..n} to principal-minor values.

    Entries are keyed by sorted 1-based index tuples and serialized in
    colexicographic order.  Reads through get() are recorded in
    ``queried`` for query-complexity instrumentation.
    """

    def __init__(self, n: int, entries: dict | None = None):
        if n < 1:
            raise DimensionError(f"ground-set size must be positive, got {n}")
        self.n = int(n)
        self._entries: dict[tuple[int, ...], float] = {}
        self.queried: set[tuple[int, ...]] = set()
        for j, v in (entries or {}).items():
            self.put(j, v)

    def put(self, j: Iterable[int], value: float) -> None:
        key = normalize_subset(j, self.n, allow_empty=False)
        value = float(value)
        if not np.isfinite(value):
            raise DimensionError(f"minor for {key} must be finite, got {value}")
        self._entries[key] = value

    def get(self, j: Iterable[int]) -> float:
        key = normalize_subset(j, self.n, allow_empty=False)
        if key not in self._entries:
            raise MissingMinorError(f"minor for subset {key} not in the list")
        self.queried.add(key)
        return self._entries[key]

    def get_many(self, subsets) -> np.ndarray:
        """Bulk ``get``: the minors of an (m, t) array of 1-based subsets.

        Every row is normalized like a key of ``get``.  Reads are recorded
        in ``queried`` in row order; the first missing subset raises
        MissingMinorError after the rows before it have been recorded.
        """
        idx = np.asarray(subsets, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] == 0:
            raise DimensionError(f"expected an (m, t) array of subsets, t >= 1, got shape {idx.shape}")
        idx = np.sort(idx, axis=1)
        if idx.size and (idx.min() < 1 or idx.max() > self.n or np.any(np.diff(idx) == 0)):
            raise DimensionError(f"subsets must hold distinct indices in 1..{self.n}")
        keys = list(map(tuple, idx.tolist()))
        entries = self._entries
        try:
            values = [entries[key] for key in keys]
        except KeyError:
            first = next(t for t, key in enumerate(keys) if key not in entries)
            self.queried.update(keys[:first])
            raise MissingMinorError(f"minor for subset {keys[first]} not in the list") from None
        self.queried.update(keys)
        return np.array(values)

    def reset_queries(self) -> None:
        self.queried = set()

    def __contains__(self, j) -> bool:
        return normalize_subset(j, self.n, allow_empty=False) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def subsets(self) -> list[tuple[int, ...]]:
        """Keys in colexicographic order."""
        return sorted(self._entries, key=colex_key)

    def items(self):
        """(subset, minor) pairs in insertion order; ``subsets()`` gives
        colexicographic order."""
        return self._entries.items()

    def has_all_orders(self, max_order: int) -> bool:
        return all(s in self._entries
                   for s in subsets_colex(self.n, range(1, max_order + 1)))


# ---------------------------------------------------------------------------
# estimators

def _containment_counts(batch: SampleBatch, subset_masks: np.ndarray) -> np.ndarray:
    """Number of samples containing each subset mask, counted over the
    distinct sample masks weighted by their multiplicities."""
    if len(batch) == 0:
        raise DimensionError("cannot estimate from an empty batch")
    distinct, counts = np.unique(batch.masks(), return_counts=True)
    weight = counts.astype(float)   # exact sums below 2^53, and the product runs in BLAS
    parts = -(-len(subset_masks) * len(distinct) // _COUNT_CELLS)
    return np.concatenate([((distinct & jm) == jm) @ weight
                           for jm in np.array_split(subset_masks[:, None], parts)])


def estimate_minor(batch: SampleBatch, j: Iterable[int]) -> float:
    """Fraction of samples containing j (the empirical inclusion frequency)."""
    jm = subset_to_mask(normalize_subset(j, batch.n_items, allow_empty=False))
    return float(_containment_counts(batch, np.array([jm], dtype=np.uint64))[0] / len(batch))


def estimate_required_minors(batch: SampleBatch, max_order: int) -> MinorList:
    """Empirical minors for every subset of size 1..max_order."""
    if max_order not in (1, 2, 3, 4):
        raise DimensionError(f"max_order must be in 1..4, got {max_order}")
    keys = subsets_colex(batch.n_items, range(1, max_order + 1))
    jm = np.fromiter(map(subset_to_mask, keys), dtype=np.uint64, count=len(keys))
    out = MinorList(batch.n_items)
    out._entries = dict(zip(keys, (_containment_counts(batch, jm) / len(batch)).tolist()))
    return out


def exact_minors(k: SignedKernel, max_order: int | str = "all") -> MinorList:
    """True principal minors of k up to the requested order.

    ``max_order="all"`` computes the full list and is capped at N=16.
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
    keys = [j for m in range(1, top + 1)
            for j in itertools.combinations(range(1, n + 1), m)]
    values = principal_minors(k.mat, keys)
    if not np.all(np.isfinite(values)):
        raise DimensionError("principal minors must be finite")
    out = MinorList(n)
    out._entries = dict(zip(keys, values.tolist()))
    return out


# ---------------------------------------------------------------------------
# JSON round trip ({"n": N, "minors": {"1,2": value, ...}})

def minors_to_json(minors: MinorList) -> str:
    payload = {",".join(str(i) for i in j): minors._entries[j] for j in minors.subsets()}
    return json.dumps({"n": minors.n, "minors": payload})


def minors_from_json(text: str) -> MinorList:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid minors JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "minors" not in obj:
        raise FormatError('minors JSON must be {"n": ..., "minors": ...}')
    n, entries = obj["n"], obj["minors"]
    if not isinstance(n, int) or n < 1:
        raise FormatError(f"minors JSON: n must be a positive integer, got {n!r}")
    if not isinstance(entries, dict):
        raise FormatError("minors JSON: minors must be an object")
    out = MinorList(n)
    for key, value in entries.items():
        try:
            subset = tuple(int(tok) for tok in key.split(","))
        except ValueError as exc:
            raise FormatError(f"minors JSON: bad subset key {key!r}") from exc
        if not isinstance(value, (int, float)):
            raise FormatError(f"minors JSON: value for {key!r} is not a number")
        try:
            out.put(subset, float(value))
        except DimensionError as exc:
            raise FormatError(f"minors JSON: {exc}") from exc
    return out


def write_minors(path: str, minors: MinorList) -> None:
    from .kernel import atomic_write
    atomic_write(path, minors_to_json(minors) + "\n")


def read_minors(path: str) -> MinorList:
    with open(path, encoding="utf-8") as fh:
        return minors_from_json(fh.read())
