import json
import math

import numpy as np
import pytest

from signed_dpp import kernel, moments, sampler
from signed_dpp.errors import (
    CapabilityError,
    DimensionError,
    FormatError,
    MissingMinorError,
)


def test_estimate_minor_fractions():
    batch = sampler.SampleBatch(4, ((1, 2), (1, 2, 3), (1, 2, 4), (3,)))
    assert moments.estimate_minor(batch, (1, 2)) == 0.75
    assert moments.estimate_minor(batch, (1, 2, 3, 4)) == 0.0
    assert moments.estimate_minor(batch, (3,)) == 0.5


def test_estimate_minor_all_or_none():
    batch = sampler.SampleBatch(3, ((1, 2, 3),) * 8)
    assert moments.estimate_minor(batch, (2, 3)) == 1.0
    empty = sampler.SampleBatch(3, ((),) * 8)
    assert moments.estimate_minor(empty, (1,)) == 0.0


def test_estimate_minor_rejects_empty_inputs():
    with pytest.raises(DimensionError):
        moments.estimate_minor(sampler.SampleBatch(3, ()), (1,))
    batch = sampler.SampleBatch(3, ((1,),))
    with pytest.raises(DimensionError):
        moments.estimate_minor(batch, ())


def test_required_minor_counts():
    batch = sampler.SampleBatch(8, (tuple(range(1, 9)),))
    assert len(moments.estimate_required_minors(batch, 1)) == 8
    counts = len(moments.estimate_required_minors(batch, 4))
    assert counts == sum(math.comb(8, t) for t in (1, 2, 3, 4)) == 162
    with pytest.raises(DimensionError):
        moments.estimate_required_minors(batch, 5)


def test_exact_minors_diagonal_products():
    k = kernel.SignedKernel(np.diag([0.2, 0.5, 0.8]))
    minors = moments.exact_minors(k, "all")
    assert minors.get((1,)) == 0.2
    assert minors.get((1, 3)) == pytest.approx(0.16, abs=1e-15)
    assert minors.get((1, 2, 3)) == pytest.approx(0.08, abs=1e-15)


def test_exact_minors_order_one_is_diagonal():
    k = kernel.generate_admissible(5, 0.3, 4)
    minors = moments.exact_minors(k, 1)
    for i in range(1, 6):
        assert minors.get((i,)) == k.entry(i, i)
    assert len(minors) == 5


def test_exact_minors_capability():
    with pytest.raises(CapabilityError):
        moments.exact_minors(kernel.SignedKernel(np.eye(17) * 0.5), "all")


def test_estimates_converge_to_exact_minors():
    count = 100000
    failures = 0
    for seed in range(20):
        k = kernel.generate_admissible(6, 0.3, 300 + seed)
        batch = sampler.sample_enumerate(k, count, seed)
        est = moments.estimate_required_minors(batch, 4)
        true = moments.exact_minors(k, 4)
        worst = max(abs(est.get(j) - true.get(j)) for j, _ in true.items())
        if worst > 0.01:
            failures += 1
    assert failures == 0


def test_subbatch_mean_equals_full_mean():
    k = kernel.generate_admissible(5, 0.3, 9)
    batch = sampler.sample_enumerate(k, 1000, 3)
    j = (2, 4)
    halves = [sampler.SampleBatch(5, batch.samples[:500]),
              sampler.SampleBatch(5, batch.samples[500:])]
    merged = 0.5 * sum(moments.estimate_minor(h, j) for h in halves)
    assert merged == moments.estimate_minor(batch, j)


def test_estimates_monotone_under_containment():
    k = kernel.generate_admissible(6, 0.3, 14)
    batch = sampler.sample_enumerate(k, 5000, 4)
    est = moments.estimate_required_minors(batch, 4)
    for j, value in est.items():
        for j2, value2 in est.items():
            if set(j) <= set(j2):
                assert value >= value2 - 1e-15


def test_error_shrinks_like_root_n():
    k = kernel.generate_admissible(6, 0.3, 77)
    true = moments.exact_minors(k, 4)
    sizes = (1000, 10000, 100000)
    rms = []
    for n in sizes:
        total, terms = 0.0, 0
        for seed in (0, 1, 2):
            batch = sampler.sample_enumerate(k, n, 600 + seed)
            est = moments.estimate_required_minors(batch, 4)
            total += sum((est.get(j) - true.get(j)) ** 2 for j, _ in true.items())
            terms += len(true)
        rms.append(np.sqrt(total / terms))
    slope = np.polyfit(np.log(sizes), np.log(rms), 1)[0]
    assert -0.65 <= slope <= -0.35


# ---------------------------------------------------------------------------
# MinorList bookkeeping

def test_minor_list_validation():
    ml = moments.MinorList(4)
    ml.put((2, 1), 0.5)
    assert (1, 2) in ml
    with pytest.raises(DimensionError):
        ml.put((0,), 1.0)
    with pytest.raises(DimensionError):
        ml.put((1,), float("nan"))
    with pytest.raises(MissingMinorError):
        ml.get((3,))


def test_minor_list_query_tracking():
    ml = moments.MinorList(3, {(1,): 0.5, (2,): 0.5, (1, 2): 0.2})
    ml.get((1,))
    ml.get((1,))
    ml.get((1, 2))
    assert ml.queried == {(1,), (1, 2)}
    ml.reset_queries()
    assert ml.queried == set()


def test_minor_list_bulk_read():
    ml = moments.MinorList(4, {(1,): 0.5, (2,): 0.4, (1, 2): 0.18, (3, 4): 0.1})
    got = ml.get_many([[2, 1], [1, 2], [4, 3]])
    assert got.tolist() == [0.18, 0.18, 0.1]
    assert ml.queried == {(1, 2), (3, 4)}
    ml.reset_queries()
    with pytest.raises(MissingMinorError, match=r"\(1, 3\)"):
        ml.get_many([[1, 2], [1, 3], [3, 4], [1, 4]])
    assert ml.queried == {(1, 2)}
    assert ml.get_many(np.zeros((0, 3), dtype=int)).shape == (0,)
    for bad in ([[0, 1]], [[1, 1]], [[5]], [1, 2]):
        with pytest.raises(DimensionError):
            ml.get_many(bad)


def test_exact_minors_match_scalar_determinants():
    k = kernel.generate_admissible(6, 0.3, 31)
    minors = moments.exact_minors(k, "all")
    assert len(minors) == 63
    for j, v in minors.items():
        assert v == kernel.principal_minor(k, j)


def test_minor_list_colex_order():
    ml = moments.MinorList(3, {(1, 2, 3): 0.1, (1,): 0.4, (2, 3): 0.2, (3,): 0.6})
    assert ml.subsets() == [(1,), (3,), (2, 3), (1, 2, 3)]
    # items() keeps insertion order; the JSON form is colex
    assert [j for j, _ in ml.items()] == [(1, 2, 3), (1,), (2, 3), (3,)]
    assert list(json.loads(moments.minors_to_json(ml))["minors"]) == ["1", "3", "2,3", "1,2,3"]


def test_minors_json_round_trip():
    k = kernel.generate_admissible(5, 0.3, 23)
    minors = moments.exact_minors(k, 3)
    again = moments.minors_from_json(moments.minors_to_json(minors))
    assert again.n == 5
    for j, v in minors.items():
        assert again.get(j) == v


def test_minors_json_key_format():
    ml = moments.MinorList(3, {(2, 3): 0.25, (1,): 0.5})
    text = moments.minors_to_json(ml)
    assert '"1"' in text and '"2,3"' in text


def test_minors_json_rejects_malformed():
    with pytest.raises(FormatError):
        moments.minors_from_json("[]")
    with pytest.raises(FormatError):
        moments.minors_from_json('{"n": 2, "minors": {"1,x": 0.5}}')
    with pytest.raises(FormatError):
        moments.minors_from_json('{"n": 2, "minors": {"3": 0.5}}')
    with pytest.raises(FormatError):
        moments.minors_from_json('{"n": 2, "minors": {"1": "high"}}')


def test_minors_file_round_trip(tmp_path):
    k = kernel.generate_admissible(4, 0.3, 31)
    minors = moments.exact_minors(k, "all")
    path = str(tmp_path / "m.json")
    moments.write_minors(path, minors)
    again = moments.read_minors(path)
    for j, v in minors.items():
        assert again.get(j) == v
