"""Exact sampling at desk scale.

Two exact schemes: inverse-CDF over the fully enumerated point masses
(N <= 16), and a sequential conditional walk that visits items 1..N and
keeps a residual kernel updated after every include/exclude decision.
Sample index i always draws from rng.stream(seed, i), so batches are
reproducible and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import rng
from .errors import FormatError, SamplingError
from .kernel import (
    SignedKernel,
    enumerate_pmf,
    mask_to_subset,
    normalize_subset,
)

PROB_CLAMP = 1e-9


@dataclass(frozen=True)
class SampleBatch:
    """Observed subsets of {1..n_items}, in draw order."""

    n_items: int
    samples: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "samples",
            tuple(normalize_subset(s, self.n_items) for s in self.samples))

    def __len__(self) -> int:
        return len(self.samples)

    def masks(self) -> np.ndarray:
        """Bitmask encoding of every sample (uint64; requires n_items <= 64)."""
        out = np.zeros(len(self.samples), dtype=np.uint64)
        for t, s in enumerate(self.samples):
            out[t] = sum(1 << (i - 1) for i in s)
        return out


# ---------------------------------------------------------------------------
# enumeration sampler

def sample_enumerate(k: SignedKernel, count: int, seed: int) -> SampleBatch:
    """i.i.d. draws by inverse CDF over the enumerated distribution."""
    if count < 0:
        raise SamplingError(f"sample count must be nonnegative, got {count}")
    table = enumerate_pmf(k)
    cdf = np.cumsum(table)
    top = 1 << k.n
    streams = rng.Substreams(seed)
    uniforms = np.empty(count)
    for i in range(count):
        uniforms[i] = streams.generator(i).random()
    masks = np.minimum(np.searchsorted(cdf, uniforms, side="right"), top - 1)
    return SampleBatch(k.n, tuple(mask_to_subset(int(m)) for m in masks))


# ---------------------------------------------------------------------------
# sequential conditional sampler

def _clamp_probability(p: float) -> float:
    if -PROB_CLAMP <= p < 0.0:
        return 0.0
    if 1.0 < p <= 1.0 + PROB_CLAMP:
        return 1.0
    if not 0.0 <= p <= 1.0:
        raise SamplingError(
            f"conditional inclusion probability {p!r} outside [0, 1]: "
            "kernel is not admissible")
    return p


def _sequential_walk(k: SignedKernel, decide):
    """Visit items 1..N in order; ``decide(item, p)`` picks include/exclude.

    The residual kernel over the undecided items starts as K.  Including
    the next item replaces it by the conditional kernel given inclusion;
    excluding passes to the complement kernel, conditions on inclusion
    there, and complements back.  For a single item both reduce to rank-1
    updates of the trailing block.

    Returns (chosen subset, per-step probability of the decision taken).
    A zero-probability decision ends the walk early: the path has mass 0
    and the residual kernel is no longer defined along it.
    """
    n = k.n
    resid = np.array(k.mat)
    included: list[int] = []
    factors = np.ones(n)
    for item in range(1, n + 1):
        raw = float(resid[0, 0])
        p = _clamp_probability(raw)
        take = bool(decide(item, p))
        factors[item - 1] = p if take else 1.0 - p
        if factors[item - 1] == 0.0:
            return tuple(included), factors
        if take:
            included.append(item)
        if item == n:
            break
        denom = raw if take else 1.0 - raw
        if abs(denom) <= 1e-12:
            raise SamplingError(
                f"degenerate conditioning at item {item}: "
                f"decision probability {denom!r} is ~ 0 (round-off path)")
        update = np.outer(resid[1:, 0], resid[0, 1:]) / denom
        resid = resid[1:, 1:] - update if take else resid[1:, 1:] + update
    return tuple(included), factors


def sample_sequential(k: SignedKernel, seed: int, index: int = 0) -> tuple[int, ...]:
    """One draw from the sequential conditional scheme (substream ``index``)."""
    gen = rng.stream(seed, index)
    subset, _ = _sequential_walk(k, lambda item, p: gen.random() < p)
    return subset


def sample_sequential_batch(k: SignedKernel, count: int, seed: int) -> SampleBatch:
    """i.i.d. draws from the sequential scheme, one substream per index."""
    if count < 0:
        raise SamplingError(f"sample count must be nonnegative, got {count}")
    streams = rng.Substreams(seed)
    samples = []
    for i in range(count):
        gen = streams.generator(i)
        subset, _ = _sequential_walk(k, lambda item, p: gen.random() < p)
        samples.append(subset)
    return SampleBatch(k.n, tuple(samples))


def sequential_path_probabilities(k: SignedKernel, j: Iterable[int]) -> np.ndarray:
    """Per-step probabilities of the decision path that produces subset j.

    Entry i-1 is P[decision at item i | decisions 1..i-1].  Their product
    is the point mass of j.  Steps after a zero-probability decision are
    reported as 1 so the product is unaffected.
    """
    target = set(normalize_subset(j, k.n))
    subset, factors = _sequential_walk(k, lambda item, p: item in target)
    return factors


# ---------------------------------------------------------------------------
# samples text format: one line per sample, sorted indices separated by
# single spaces; the empty set is "-"

def format_samples(batch: SampleBatch) -> str:
    lines = ["-" if not s else " ".join(str(i) for i in s) for s in batch.samples]
    return "".join(line + "\n" for line in lines)


def parse_samples(text: str, n_items: int) -> SampleBatch:
    samples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped == "-":
            samples.append(())
            continue
        if not stripped:
            raise FormatError(f"samples line {lineno}: empty line")
        try:
            items = tuple(int(tok) for tok in stripped.split(" "))
        except ValueError as exc:
            raise FormatError(f"samples line {lineno}: {exc}") from exc
        if any(not 1 <= i <= n_items for i in items):
            raise FormatError(
                f"samples line {lineno}: index out of range 1..{n_items}")
        if any(a >= b for a, b in zip(items, items[1:])):
            raise FormatError(
                f"samples line {lineno}: indices must be strictly increasing")
        samples.append(items)
    return SampleBatch(n_items, tuple(samples))


def write_samples(path: str, batch: SampleBatch) -> None:
    from .kernel import atomic_write
    atomic_write(path, format_samples(batch))


def read_samples(path: str, n_items: int) -> SampleBatch:
    with open(path, encoding="utf-8") as fh:
        return parse_samples(fh.read(), n_items)
