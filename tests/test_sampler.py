import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import signed_matrix
from signed_dpp import kernel, moments, rng, sampler
from signed_dpp.errors import (
    CapabilityError,
    DimensionError,
    FormatError,
    InadmissibleKernelError,
    SamplingError,
)


def empirical_distribution(batch):
    out = np.zeros(1 << batch.n_items)
    for s in batch.samples:
        out[kernel.subset_to_mask(s)] += 1
    return out / len(batch)


def test_identity_kernel_always_full():
    k = kernel.SignedKernel(np.eye(4))
    batch = sampler.sample_enumerate(k, 50, 0)
    assert all(s == (1, 2, 3, 4) for s in batch.samples)
    assert sampler.sample_sequential(k, 0) == (1, 2, 3, 4)


def test_zero_kernel_always_empty():
    k = kernel.SignedKernel(np.zeros((4, 4)))
    batch = sampler.sample_enumerate(k, 50, 0)
    assert all(s == () for s in batch.samples)
    assert sampler.sample_sequential(k, 0) == ()


def test_bernoulli_inclusion_frequencies():
    count = 20000
    k = kernel.SignedKernel(np.diag([0.5] * 5))
    batch = sampler.sample_enumerate(k, count, 3)
    masks = batch.masks()
    bound = 3 * np.sqrt(0.25 / count)
    for i in range(5):
        freq = np.mean((masks >> np.uint64(i)) & np.uint64(1))
        assert abs(freq - 0.5) <= bound


def test_enumerate_rejects_inadmissible():
    with pytest.raises(InadmissibleKernelError):
        sampler.sample_enumerate(kernel.SignedKernel(np.diag([1.5, 0.5])), 5, 0)


def test_enumerate_capability_limit():
    with pytest.raises(CapabilityError):
        sampler.sample_enumerate(kernel.SignedKernel(np.eye(17) * 0.5), 1, 0)


def test_batches_are_deterministic():
    k = kernel.generate_admissible(6, 0.3, 4)
    assert sampler.sample_enumerate(k, 200, 9) == sampler.sample_enumerate(k, 200, 9)
    assert (sampler.sample_sequential_batch(k, 50, 9)
            == sampler.sample_sequential_batch(k, 50, 9))


def test_parallel_batch_matches_sequential():
    k = kernel.generate_admissible(5, 0.3, 6)
    serial = sampler.sample_sequential_batch(k, 40, 11)
    singles = tuple(sampler.sample_sequential(k, 11, i) for i in range(40))
    assert serial.samples == singles


def test_substreams_match_fresh_streams():
    indices = (0, 1, 7, 1000)
    rows = rng.uniforms(123, indices, 4)
    for i, got in zip(indices, rows):
        want = rng.stream(123, i).random(4)
        assert np.array_equal(want, got)


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1, -1])
def test_uniforms_match_streams_bit_for_bit(seed):
    indices = np.concatenate([np.arange(40), [255, 256, 4097, 65_535, 99_999, 100_000]])
    for d in (1, 4, 7, 16, 17):
        rows = rng.uniforms(seed, indices, d)
        assert rows.shape == (len(indices), d)
        for i, got in zip(indices.tolist(), rows):
            assert np.array_equal(got, rng.stream(seed, i).random(d))
    assert rng.uniforms(seed, np.arange(0), 3).shape == (0, 3)


@pytest.mark.parametrize("words", [1, 5, 64, 1 << 14])
def test_uniforms_do_not_depend_on_the_chunk_size(monkeypatch, words):
    monkeypatch.setattr(rng, "_CHUNK_WORDS", words)
    indices = np.arange(37) * 1009
    for d in (1, 7, 16, 64):
        want = np.array([rng.stream(3, i).random(d) for i in indices.tolist()])
        assert rng.uniforms(3, indices, d).tobytes() == want.tobytes()


@pytest.mark.parametrize("words", [1, 5, 64, 1 << 14])
def test_enumerate_masks_do_not_depend_on_the_chunk_size(monkeypatch, words):
    monkeypatch.setattr(rng, "_CHUNK_WORDS", words)
    k = kernel.generate_admissible(8, 0.3, 3)
    cdf = np.cumsum(kernel.enumerate_pmf(k))
    singles = np.array([min(int(np.searchsorted(cdf, rng.stream(2, i).random(), side="right")),
                            len(cdf) - 1) for i in range(3 * words + 7)], dtype=np.uint64)
    for count in (0, 1, words - 1, words, words + 1, 3 * words + 7):
        assert sampler.sample_enumerate(k, count, 2).masks().tobytes() == singles[:count].tobytes()


def test_enumerate_holds_little_more_than_its_masks():
    k = kernel.generate_admissible(8, 0.3, 1)
    tracemalloc.start()
    try:
        masks = sampler.sample_enumerate(k, 10 ** 6, 1).masks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * masks.nbytes, (peak, masks.nbytes)


def one_sample_walk(k, seed, index):
    """The sequential sampler one sample at a time: one uniform of
    stream(seed, index) per item and np.outer rank-1 updates."""
    gen = rng.stream(seed, index)
    resid = np.array(k.mat)
    included = []
    for item in range(1, k.n + 1):
        raw = float(resid[0, 0])
        take = gen.random() < min(max(raw, 0.0), 1.0)
        if take:
            included.append(item)
        update = np.outer(resid[1:, 0], resid[0, 1:]) / (raw if take else 1.0 - raw)
        resid = resid[1:, 1:] - update if take else resid[1:, 1:] + update
    return tuple(included)


@pytest.mark.parametrize("n", [7, 12, 16])
def test_batch_samplers_equal_their_singles(n):
    # Small counts build a guide table smaller than the 2^N CDF; at N = 12
    # and 16 many of the 600 draws land in cells of several CDF entries.
    k = kernel.generate_admissible(n, 0.3, 40 + n)
    cdf = np.cumsum(kernel.enumerate_pmf(k))
    for count in (0, 1, 5, 600):
        singles = [kernel.mask_to_subset(min(int(np.searchsorted(
            cdf, rng.stream(5, i).random(), side="right")), len(cdf) - 1)) for i in range(count)]
        assert sampler.sample_enumerate(k, count, 5).samples == tuple(singles)
        batch = sampler.sample_sequential_batch(k, count, 5)
        assert batch.samples == tuple(one_sample_walk(k, 5, i) for i in range(count))
        assert batch.samples[-5:] == tuple(sampler.sample_sequential(k, 5, i)
                                           for i in range(max(0, count - 5), count))
        assert batch.masks().dtype == np.uint64 and not batch.masks().flags.writeable
        assert batch == sampler.SampleBatch(n, batch.samples)


def test_inverse_cdf_equals_searchsorted_on_hard_draws():
    gen = np.random.default_rng(8)
    masses = gen.random(300)
    masses[gen.random(300) < 0.3] = 0.0       # zero-mass subsets repeat a CDF value
    masses[100:180] *= 1e-9                   # 80 entries inside one cell of any table
    for total in (1.0, 1.0 - 1e-3):           # the top draws lie past cdf[-1] < 1
        cdf = np.cumsum(masses / masses.sum() * total)
        edges = cdf[cdf < 1.0]
        u = np.concatenate([
            [0.0, 5e-324, 1.0 - 2.0 ** -53, 0.3, 0.5, 0.999], edges,
            np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)[np.nextafter(edges, 1.0) < 1.0],
            gen.integers(0, 1 << 53, 2000) * 2.0 ** -53])
        gen.shuffle(u)
        for size in (1, 2, 5, 64, 999, len(u)):   # table sizes 1 to 2048 cells
            for lo in range(0, len(u), size):
                part = u[lo:lo + size]
                got = sampler._inverse_cdf(cdf, part, sampler._guide_table(cdf, len(part)))
                assert np.array_equal(got, np.searchsorted(cdf, part, side="right")), (total, size)


def test_sample_counts_must_be_nonnegative_integers():
    k = kernel.generate_admissible(4, 0.3, 1)
    for sample in (sampler.sample_enumerate, sampler.sample_sequential_batch):
        for bad in (2.5, float("nan"), "3", None):
            with pytest.raises(TypeError, match="sample count must be an integer"):
                sample(k, bad, 1)
        with pytest.raises(SamplingError, match="nonnegative"):
            sample(k, -1, 1)
        assert sample(k, np.int64(3), 1) == sample(k, 3, 1)


def test_uniforms_of_up_to_five_draws_match_streams_byte_for_byte():
    indices = [0, 1, 2, 1000, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]
    for seed in (0, 5, 2 ** 64 - 1, -1):
        for d in range(1, 6):
            want = np.array([rng.stream(seed, i).random(d) for i in indices + [-1, -2, -(2 ** 63)]])
            got = np.concatenate([rng.uniforms(seed, np.array(indices, dtype=np.uint64), d),
                                  rng.uniforms(seed, np.array([-1, -2, -(2 ** 63)]), d)])
            assert got.tobytes() == want.tobytes()


def test_uniforms_make_only_the_philox_words_their_draws_read(monkeypatch):
    calls = []
    mulhilo = rng._mulhilo

    def recording(m, x, hi, lo, *scratch):
        calls.append(f"{'M0' if m == rng._M0 else 'M1'}:{'h' * (hi is not None)}{'l' * (lo is not None)}")
        mulhilo(m, x, hi, lo, *scratch)

    monkeypatch.setattr(rng, "_mulhilo", recording)
    # Round 1's M1 product, then rounds 2..9 of M1 and M0.  Draws of one
    # block read the round 9 words 0..d-1, and through them, working back,
    # fewer words of rounds 7 and 8.
    full = ["M1:hl"] + ["M1:hl", "M0:hl"] * 5
    tails = {1: ["M1:h", "M0:hl", "M1:l", "M0:h", "M1:h"],
             2: ["M1:h", "M0:hl", "M1:l", "M0:h", "M1:hl"],
             3: ["M1:hl", "M0:hl", "M1:hl", "M0:hl", "M1:hl", "M0:h"],
             4: ["M1:hl", "M0:hl"] * 3, 5: ["M1:hl", "M0:hl"] * 3}
    for d, tail in tails.items():
        calls.clear()
        got = rng.uniforms(9, np.arange(5), d)
        assert calls == full + tail, d
        assert got.tobytes() == np.array([rng.stream(9, i).random(d) for i in range(5)]).tobytes()


def test_uniforms_take_a_nonnegative_integer_count_of_draws():
    with pytest.raises(SamplingError, match="draws per row must be nonnegative, got -1"):
        rng.uniforms(1, [0, 1], -1)
    for bad in (2.5, "3", None):
        with pytest.raises(TypeError, match="draws per row must be an integer"):
            rng.uniforms(1, [0, 1], bad)
    assert rng.uniforms(1, [0, 1], 0).shape == (2, 0)
    assert rng.uniforms(1, [0, 1], np.int64(3)).tobytes() == rng.uniforms(1, [0, 1], 3).tobytes()


def test_uniforms_take_integer_indices_only():
    for bad in ([1.7, 2.2], np.array([1.0]), np.array([True]), np.array([1], dtype=object)):
        with pytest.raises(TypeError, match="stream indices must be integers"):
            rng.uniforms(1, bad, 1)
    assert rng.uniforms(1, [], 3).shape == (0, 3)
    # negative indices wrap mod 2^64, as in stream
    rows = rng.uniforms(1, np.array([-1, -7], dtype=np.int8), 5)
    assert np.array_equal(rows[0], rng.stream(1, 2 ** 64 - 1).random(5))
    assert np.array_equal(rows[1], rng.stream(1, -7).random(5))


@pytest.mark.parametrize("n", [24, 32])
def test_sequential_batch_past_the_enumeration_cap_equals_its_singles(n):
    k = kernel.generate_admissible(n, 0.3, n)
    batch = sampler.sample_sequential_batch(k, 300, 5)
    assert batch.samples == tuple(one_sample_walk(k, 5, i) for i in range(300))


def blocked_walk(monkeypatch, k, count, rows=None):
    """(taken bytes, factors bytes, sample_sequential_batch) of ``count``
    draws of stream seed 3, and the block sizes the walk asked draws for;
    blocks of ``rows`` rows when given, else of the walk's own size."""
    if rows is not None:
        monkeypatch.setattr(sampler, "_walk_rows", lambda n: rows)
    blocks = []

    def draws(lo, hi):
        blocks.append(hi - lo)
        return rng.uniforms(3, np.arange(lo, hi), k.n)

    taken, factors = sampler._sequential_walk(k, count, draws)
    return (taken.tobytes(), factors.tobytes(), sampler.sample_sequential_batch(k, count, 3)), blocks


@pytest.mark.parametrize("n, count", [(7, 50), (16, 23), (33, 30), (64, 16)])
def test_walk_output_does_not_depend_on_the_block_size(monkeypatch, n, count):
    k = kernel.generate_admissible(n, 0.3, 60 + n)
    whole, blocks = blocked_walk(monkeypatch, k, count, count)
    assert blocks == [count]
    for rows in (1, 3, 7):
        out, blocks = blocked_walk(monkeypatch, k, count, rows)
        assert blocks == [rows] * (count // rows) + [count % rows] * (count % rows > 0)
        assert out == whole


@pytest.mark.parametrize("n", [33, 64])
def test_walk_blocks_of_its_own_size_match_one_block(monkeypatch, n):
    k = kernel.generate_admissible(n, 0.3, n)
    rows = sampler._walk_rows(n)
    own, blocks = blocked_walk(monkeypatch, k, 2 * rows + 5)
    assert blocks == [rows, rows, 5]
    assert own == blocked_walk(monkeypatch, k, 2 * rows + 5, 2 * rows + 5)[0]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 16, 24, 32, 33, 48, 63, 64, 65, 1024, 1025, 2000])
def test_walk_rows_are_the_most_whose_draws_and_residuals_fit(n):
    cells = sampler._WALK_CELLS

    def fits(rows):
        stack = max([min(rows, 2 ** (t + 1)) * (n - 1 - t) ** 2 for t in range(n - 1)], default=0)
        return rows * n <= cells and stack <= cells

    rows = sampler._walk_rows(n)
    if n < 2:
        assert rows == cells               # nothing to bound but the cap
    elif n > 1025:
        assert rows == 1 and not fits(1)   # one row's first residual is already larger
    else:
        assert fits(rows) and not fits(rows + 1)
    assert {16: 65_536, 32: 2_621, 48: 726, 64: 346}.get(n, rows) == rows


class _RecordingNumpy:
    """numpy, but np.add records the size of what it returns: the walk's
    residual stack after every update."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, *args, **kwargs):
        out = np.add(*args, **kwargs)
        self.sizes.append(out.size)
        return out


@pytest.mark.parametrize("n, cells", [(16, 3000), (16, 20_000), (24, 40_000), (33, 60_000)])
def test_walk_blocks_hold_their_draws_and_residuals_within_the_cells(monkeypatch, n, cells):
    # A diagonal kernel of 1/2: every step splits each prefix's rows in
    # two, so the residuals double until they meet the block's rows.
    monkeypatch.setattr(sampler, "_WALK_CELLS", cells)
    recording = _RecordingNumpy()
    monkeypatch.setattr(sampler, "np", recording)
    k = kernel.SignedKernel(np.diag([0.5] * n))
    rows, draws = sampler._walk_rows(n), []
    sampler._sequential_walk(k, 3 * rows, lambda lo, hi: draws.append((hi - lo) * n)
                             or rng.uniforms(5, np.arange(lo, hi), n))
    assert len(draws) == 3 and max(draws) <= cells
    assert len(recording.sizes) == 3 * (n - 1) and max(recording.sizes) <= cells
    # the rows are the most that fit, so the fullest stack comes close to the cells
    assert max(recording.sizes) > cells // 2


def test_sequential_sampler_of_an_empty_kernel_draws_empty_samples():
    k = kernel.SignedKernel(np.zeros((0, 0)))
    for count in (0, 1, 5):
        batch = sampler.sample_sequential_batch(k, count, 1)
        assert batch == sampler.sample_enumerate(k, count, 1) == sampler.SampleBatch(0, [()] * count)
        assert sampler.format_samples(batch) == "-\n" * count
    assert sampler.sample_sequential(k, 1, 3) == ()
    assert sampler.sequential_path_probabilities(k, ()).shape == (0,)


def test_walk_rows_sharing_a_prefix_match_their_paths():
    # A diagonal kernel's conditionals are its diagonal, so a row takes
    # item i when its draw is below K_ii.  P[1] = 1, so every row that
    # leaves item 1 out dies at step 1.
    k = kernel.SignedKernel(np.diag([1.0, 0.5, 0.5]))
    draws = np.array([[0.3, 0.2, 0.7], [-1.0, -1.0, 2.0], [2.0, 0.2, 0.7],
                      [-1.0, 2.0, -1.0], [2.0, -1.0, 2.0], [0.3, 0.9, 0.1],
                      [-1.0, -1.0, 2.0], [2.0, 2.0, 2.0]])
    taken, factors = sampler._sequential_walk(k, len(draws), lambda lo, hi: draws[lo:hi])
    for row, took, got in zip(draws, taken, factors):
        path = tuple(int(i) + 1 for i in np.flatnonzero(row < [1.0, 0.5, 0.5]))
        assert got.tobytes() == sampler.sequential_path_probabilities(k, path).tobytes()
        if row[0] == 2.0:
            assert got.tolist() == [0.0, 1.0, 1.0] and not took.any()
        else:
            assert took.tolist() == (row < [1.0, 0.5, 0.5]).tolist()
            assert got.tolist() == [1.0, 0.5, 0.5]


def test_no_walk_row_decides_with_zero_probability_on_draws_in_the_unit_interval():
    # The premise of holding deaths per prefix: u < p takes when p = 1 and
    # leaves when p = 0, for every u in [0, 1), so no factor is 0.  The
    # second kernel's item 3 has probability 0 once item 2 is taken.
    edges = np.array([0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53])
    for k in (kernel.SignedKernel(np.diag([1.0, 0.0, 0.5, 1.0, 0.0])),
              kernel.SignedKernel(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])),
              kernel.generate_admissible(9, 0.3, 2)):
        grid = edges[np.indices((4,) * min(k.n, 6)).reshape(min(k.n, 6), -1).T]
        draws = np.concatenate([np.pad(grid, ((0, 0), (0, k.n - grid.shape[1])), constant_values=0.5),
                                rng.uniforms(4, np.arange(500), k.n)])
        taken, factors = sampler._sequential_walk(k, len(draws), lambda lo, hi: draws[lo:hi])
        assert (factors > 0.0).all()
        for took, got in zip(taken[::37], factors[::37]):
            path = tuple(int(i) + 1 for i in np.flatnonzero(took))
            assert sampler.sequential_path_probabilities(k, path).tobytes() == got.tobytes()


def test_path_probabilities_report_one_after_a_zero_probability_step():
    dense = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.3]])  # item 2 is 0 after item 1
    for mat, path, want in ((np.diag([1.0, 0.5, 0.3]), (2,), [0.0, 1.0, 1.0]),        # leaves a sure item
                            (np.diag([0.0, 0.5, 0.3]), (1, 2), [0.0, 1.0, 1.0]),      # takes an impossible one
                            (np.diag([0.5, 1.0, 0.3]), (1,), [0.5, 0.0, 1.0]),
                            (dense, (1, 2, 3), [0.5, 0.0, 1.0])):
        k = kernel.SignedKernel(mat)
        assert sampler.sequential_path_probabilities(k, path).tolist() == want
        # the walk's rows take nothing from the zero-probability step on
        draws = np.where(np.isin(np.arange(1, 4), path), -1.0, 2.0)[None]
        taken, _ = sampler._sequential_walk(k, 1, lambda lo, hi: draws)
        assert taken[0].tolist() == [i + 1 in path and i < want.index(0.0) for i in range(3)]


# sha256 of format_samples and of minors_to_json(estimate_required_minors(., 4))
# for sample_sequential_batch(generate_admissible(n, 0.3, gen_seed), count, seed)
SEQUENTIAL_BYTES = {
    (16, 10_000, 1, 1): ("1745d6ab7c4efa11619a141454981739b45538d7d69b5035165973a7907748ab",
                         "7664c9f04e23e70b3e693761a9390391e50c23ce699af102e3484cf5f9e949b7"),
    (16, 10_000, 2, 7): ("8df66cf0a82a6e3d7ad4b7cb2bb2aabdec3132d03d07507518e6fca2c5defb2c",
                         "6c24e2db996497aae09de0ebdb7a3e78ab3688b36f7f42a90411d9c4f8537996"),
    (48, 2_000, 1, 1): ("e0605c1e08c1564e292f8b813bd235bcbaa45a624af3b2f1902294b7458a5a1e",
                        "5e6937fd45611458528c8b9285e9077c77021ea7381881bb9fdab6e6deea45be"),
}


@pytest.mark.parametrize("case", sorted(SEQUENTIAL_BYTES))
def test_sequential_samples_and_their_estimates_keep_their_bytes(case):
    n, count, gen_seed, seed = case
    batch = sampler.sample_sequential_batch(kernel.generate_admissible(n, 0.3, gen_seed), count, seed)
    text = sampler.format_samples(batch)
    estimate = moments.minors_to_json(moments.estimate_required_minors(batch, 4))
    assert (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(estimate.encode()).hexdigest()) == SEQUENTIAL_BYTES[case]
    assert sampler.parse_samples(text, n) == batch


def test_negative_and_empty_ground_sets_are_dimension_errors():
    with pytest.raises(DimensionError):
        sampler.SampleBatch(-3, masks=[0])
    with pytest.raises(DimensionError):
        sampler.parse_samples("-\n", -3)
    with pytest.raises(DimensionError):
        moments.estimate_required_minors(sampler.parse_samples("-\n", 0), 2)


def test_sequential_batch_rejects_inadmissible_kernels():
    with pytest.raises(SamplingError, match="outside"):
        sampler.sample_sequential_batch(kernel.SignedKernel(np.diag([1.5, 0.5])), 600, 0)
    # Item 2 is out of range only after item 1 is left out (0.8 + 0.2 / 0.5).
    k = kernel.SignedKernel(np.array([[0.5, 0.4], [0.5, 0.8]]))
    with pytest.raises(SamplingError, match="outside"):
        sampler.sample_sequential_batch(k, 600, 0)
    outcomes = []
    for i in range(16):
        try:
            outcomes.append(sampler.sample_sequential(k, 0, i))
        except SamplingError:
            outcomes.append(None)
    assert None in outcomes and any(outcomes)


def test_sequential_walk_raises_on_degenerate_conditioning():
    # Leaving item 1 out when P[1] = 1 - 1e-13 conditions on a ~0 event.
    k = kernel.SignedKernel(np.diag([1.0 - 1e-13, 0.5]))
    with pytest.raises(SamplingError, match="degenerate conditioning at item 1"):
        sampler.sequential_path_probabilities(k, (2,))
    # The same through uniforms: only the second row of the block draws
    # the improbable exclusion, and the whole batch raises.
    draws = np.array([[0.5, 0.5], [1.0 - 1e-14, 0.5]])
    with pytest.raises(SamplingError, match="degenerate conditioning"):
        sampler._sequential_walk(k, 2, lambda lo, hi: draws[lo:hi])


def test_batches_are_capped_at_64_items():
    k = kernel.SignedKernel(np.eye(65) * 0.5)
    with pytest.raises(CapabilityError):
        sampler.sample_sequential_batch(k, 1, 0)
    with pytest.raises(CapabilityError):
        sampler.SampleBatch(65, [(1, 65)])
    with pytest.raises(CapabilityError):
        sampler.parse_samples("1 65\n", 65)
    assert sampler.SampleBatch(64, [(1, 64)]).masks()[0] == np.uint64(1 | 1 << 63)
    assert len(sampler.sample_sequential(k, 0)) <= 65


def test_chain_rule_path_products_equal_pmf():
    for seed, n in [(0, 4), (1, 6), (2, 8)]:
        k = kernel.generate_admissible(n, 0.3, seed)
        table = kernel.enumerate_pmf(k)
        for mask in range(1 << n):
            j = kernel.mask_to_subset(mask)
            product = float(np.prod(sampler.sequential_path_probabilities(k, j)))
            assert product == pytest.approx(table[mask], abs=1e-8)


def test_chain_rule_diagonal_kernel():
    k = kernel.SignedKernel(np.diag([0.2, 0.9, 0.4]))
    factors = sampler.sequential_path_probabilities(k, (2,))
    assert np.allclose(factors, [0.8, 0.9, 0.6], atol=1e-12)


def test_zero_probability_path_product():
    k = kernel.SignedKernel(np.diag([1.0, 0.5]))
    factors = sampler.sequential_path_probabilities(k, (2,))  # misses item 1
    assert float(np.prod(factors)) == 0.0


def test_sequential_matches_enumeration_distribution():
    count = 100000
    k = kernel.generate_admissible(6, 0.3, 11)
    a = empirical_distribution(sampler.sample_enumerate(k, count, 1))
    b = empirical_distribution(sampler.sample_sequential_batch(k, count, 2))
    assert 0.5 * np.sum(np.abs(a - b)) <= 0.02


def test_empirical_size_distribution_matches_polynomial():
    count = 100000
    k = kernel.generate_admissible(7, 0.3, 13)
    batch = sampler.sample_enumerate(k, count, 5)
    sizes = np.bincount([len(s) for s in batch.samples], minlength=8) / count
    coeffs = kernel.size_polynomial(k)
    assert 0.5 * np.sum(np.abs(sizes - coeffs)) <= 0.01


# ---------------------------------------------------------------------------
# text format

def test_format_samples():
    batch = sampler.SampleBatch(5, ((), (1, 3), (2,)))
    assert sampler.format_samples(batch) == "-\n1 3\n2\n"


def test_parse_samples_round_trip():
    batch = sampler.SampleBatch(5, ((), (1, 3), (2,), (1, 2, 3, 4, 5)))
    again = sampler.parse_samples(sampler.format_samples(batch), 5)
    assert again == batch


def test_parse_samples_reports_line_numbers():
    with pytest.raises(FormatError, match="line 2"):
        sampler.parse_samples("1 2\n2 x\n", 5)
    with pytest.raises(FormatError, match="line 1"):
        sampler.parse_samples("3 1\n", 5)
    with pytest.raises(FormatError, match="line 3"):
        sampler.parse_samples("1\n2\n9\n", 5)


def test_samples_file_round_trip(tmp_path):
    k = kernel.generate_admissible(4, 0.3, 2)
    batch = sampler.sample_enumerate(k, 25, 8)
    path = str(tmp_path / "s.txt")
    sampler.write_samples(path, batch)
    assert sampler.read_samples(path, 4) == batch
    raw = open(path, encoding="utf-8").read()
    assert raw == sampler.format_samples(batch)


def test_format_samples_matches_the_tuple_join():
    gen = np.random.default_rng(97)
    for n in (7, 16, 64):
        masks = gen.integers(0, 1 << min(n, 62), 500, dtype=np.uint64, endpoint=True)
        if n == 64:
            masks[gen.random(500) < 0.5] |= np.uint64(1) << np.uint64(63)
            masks[1] = np.uint64(1) << np.uint64(63)
        masks[:1] = 0
        masks &= np.uint64((1 << n) - 1)
        batch = sampler.SampleBatch(n, masks=masks)
        want = "".join((" ".join(map(str, kernel.mask_to_subset(int(m)))) or "-") + "\n"
                       for m in masks)
        assert sampler.format_samples(batch) == want
        assert sampler.parse_samples(want, n) == batch
    assert sampler.format_samples(sampler.SampleBatch(64, [(), (64,)])) == "-\n64\n"


def parse_outcome(parse, text, n):
    """The masks a parser returns, or the text of its FormatError."""
    try:
        return parse(text, n).masks().tolist()
    except FormatError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_samples_inverts_format_samples(data):
    n = data.draw(st.sampled_from([1, 7, 16, 63, 64]))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))
    masks += [0] + masks[:3] + ([1 << 63, (1 << 64) - 1] if n == 64 else [])
    batch = sampler.SampleBatch(n, masks=data.draw(st.permutations(masks)))
    text = sampler.format_samples(batch)
    assert sampler._parse_canonical(text, n) is not None
    assert sampler.parse_samples(text, n) == batch
    assert sampler.parse_samples(text[:-1], n) == batch       # no final newline


NON_CANONICAL = [
    "1 3\r\n-\r\n2 5\r\n",    # CRLF
    "1 3\n\n2\n",             # an empty line
    "1 3\n-\n\n",
    "\n",
    " 1 3\n2\n",              # a leading space
    "1 3 \n2\n",              # a trailing space
    "1  3\n",                 # a double space
    "05 7\n",                 # a leading zero
    "1 07\n",
    "+3\n",
    "0 2\n",                  # an index of 0
    "1 17\n",                 # an index of N + 1
    "100\n",
    "3 3\n",                  # non-increasing indices
    "4 2\n",
    "- 1\n",                  # "-" beside an index
    "-1\n",
    "1 -\n",
    "--\n",
    "1\t3\n",                 # a tab
    "\t1 3\n",
    "1 ٣\n",                  # non-ASCII
    "é\n",
    "1 2\x0c3\n",             # a line break splitlines knows and "\n" does not
]


@pytest.mark.parametrize("text", NON_CANONICAL)
def test_parse_samples_falls_back_to_the_line_parser(text):
    assert sampler._parse_canonical(text, 16) is None
    for prefix in ("", "1 2\n-\n"):
        full = prefix + text
        assert parse_outcome(sampler.parse_samples, full, 16) == parse_outcome(
            sampler._parse_lines, full, 16)


FRAGMENTS = ["\n", "\r\n", "\n\n", " ", "  ", "0", "05", "+3", "-", "\t", "é", "٣",
             "17", "64", "65", "100", "x", "_"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_samples_agrees_with_the_line_parser_on_mutated_texts(data):
    n = data.draw(st.sampled_from([0, 1, 9, 10, 16, 64]))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    text = sampler.format_samples(sampler.SampleBatch(n, masks=masks))
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:at] + data.draw(st.sampled_from(FRAGMENTS)) + text[at:]
        else:
            text = text[:at] + text[at + data.draw(st.integers(1, 3)):]
    assert parse_outcome(sampler.parse_samples, text, n) == parse_outcome(
        sampler._parse_lines, text, n)


def test_parse_samples_of_the_empty_text_is_an_empty_batch():
    assert sampler.parse_samples("", 5) == sampler.SampleBatch(5)
    assert len(sampler.parse_samples("", 64)) == 0
