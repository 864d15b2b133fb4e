import numpy as np
import pytest

from helpers import signed_matrix
from signed_dpp import kernel, rng, sampler
from signed_dpp.errors import CapabilityError, FormatError, InadmissibleKernelError


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
    streams = rng.Substreams(123)
    for i in (0, 1, 7, 1000):
        want = rng.stream(123, i).random(4)
        got = streams.generator(i).random(4)
        assert np.array_equal(want, got)


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
