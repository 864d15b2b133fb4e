import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lex_combinations, lexsort_colex_order, per_key_minors_from_json
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


def test_minor_list_leaves_the_callers_rows_alone():
    # sorted int64 rows are read in place, never written; unsorted ones are sorted in a copy
    ml = moments.exact_minors(kernel.generate_admissible(5, 0.3, 2), 3)
    for rows in ([[1, 2, 3], [2, 4, 5]], [[3, 2, 1], [5, 2, 4]]):
        idx = np.array(rows, dtype=np.int64)
        idx.flags.writeable = False
        before = idx.copy()
        assert ml.get_many(idx).tolist() == [ml.get((1, 2, 3)), ml.get((2, 4, 5))]
        out = moments.MinorList(5)
        out._write(idx, [0.1, 0.2])
        assert out.items() == [((1, 2, 3), 0.1), ((2, 4, 5), 0.2)]
        assert np.array_equal(idx, before)


def test_whole_orders_list_their_shared_table_and_read_only_values():
    k = kernel.generate_admissible(9, 0.3, 5)
    whole = moments.exact_minors(k, 4)
    part = moments.MinorList(9)
    for t, (rows, values) in enumerate(whole.arrays(), 1):
        assert rows is kernel.colex_table(9, t)
        with pytest.raises(ValueError):
            values[0] = 1.0
        part._write(rows[1:], values[1:])          # one subset short: rows are unranked
    for (rows, values), (part_rows, part_values) in zip(whole.arrays(), part.arrays()):
        assert np.array_equal(part_rows, rows[1:])
        assert part_values.tobytes() == values[1:].tobytes()
    assert whole.items() == moments.exact_minors(k, 4).items()


def test_get_many_reads_a_whole_order_as_stored():
    n = 12
    k = kernel.generate_admissible(n, 0.3, 4)
    ml, ranked = moments.exact_minors(k, 4), moments.exact_minors(k, 4)
    tables = [kernel.colex_table(n, t) for t in range(1, 5)]
    perms = [np.random.default_rng(t).permutation(len(tb)) for t, tb in enumerate(tables, 1)]
    want = [ranked.get_many(tb[p]) for tb, p in zip(tables, perms)]
    ranked.reset_queries()
    for t, (table, perm) in enumerate(zip(tables, perms), 1):
        ml.reset_queries()
        for rows in (table, table.astype(np.int64), table.astype(np.intp) - 1 + 1):
            got = ml.get_many(rows)
            assert got[perm].tobytes() == want[t - 1].tobytes()
        assert ml.queried == set(map(tuple, table.tolist()))
        assert len(ml.queried) == math.comb(n, t)
        got[:] = 7.0          # a copy: the list keeps its values
        assert ml.get_many(table)[perm].tobytes() == want[t - 1].tobytes()


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_a_whole_order_one_subset_short_is_read_as_rows(t):
    # the missing subset is named as the ranked read of the same rows names it
    n = 10
    table = kernel.colex_table(n, t)
    drop = len(table) // 2
    whole = moments.exact_minors(kernel.generate_admissible(n, 0.3, 6), 4)
    short, ranked = moments.MinorList(n), moments.MinorList(n)
    for rows, values in whole.arrays():
        keep = np.arange(len(rows)) != drop if rows.shape[1] == t else slice(None)
        short._write(rows[keep], values[keep])
        ranked._write(rows[keep], values[keep])
    with pytest.raises(MissingMinorError) as got:
        short.get_many(table)
    with pytest.raises(MissingMinorError) as want:
        ranked.get_many(table.tolist())
    assert got.value.args == want.value.args == (
        f"minor for subset {tuple(table[drop].tolist())} not in the list",)
    assert short.queried == ranked.queried == set(map(tuple, table[:drop].tolist()))


def _masks(tables):
    """The bitmask of each concatenated row of (m, t) arrays of 1-based subsets."""
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [
        (np.int64(1) << (idx.astype(np.int64) - 1)).sum(axis=1) for idx in tables])


@pytest.mark.parametrize("n", range(1, 13))
def test_colex_order_places_every_subset_as_its_bitmask_sorts(n):
    gen = np.random.default_rng(n)
    for top in range(1, min(4, n) + 1):
        tables = [kernel.colex_table(n, t) for t in range(1, top + 1)]
        order = moments._colex_order(n, tables)
        assert np.array_equal(order, np.argsort(_masks(tables)))
        assert np.array_equal(order, lexsort_colex_order(tables))
        # partial orders, some of them empty, are sorted by the same places
        parts = [tb[gen.random(len(tb)) < 0.4] for tb in tables]
        order = moments._colex_order(n, parts)
        assert np.array_equal(order, np.argsort(_masks(parts)))
        assert np.array_equal(order, lexsort_colex_order(parts))


def test_colex_order_past_int64_places():
    # all 2^70 subsets do not fit an int64 place; the places turn to Python ints
    n = 70
    tables = [np.array([[70], [3], [1]]), np.array([[2, 70], [1, 69]]), np.arange(1, 71)[None, :],
              np.array([np.arange(2, 71)]), np.array([np.arange(1, 70)])]
    assert np.array_equal(moments._colex_order(n, tables), lexsort_colex_order(tables))


_SPECIAL_VALUES = [-0.0, 0.0, 1e-300, 5e-324, 0.1 + 0.2, 1e16, -123456.789, 1 / 3]


def _random_list(n, top, seed, keep=1.0):
    """A MinorList of n items holding each t-subset, t = 1..top, with
    probability ``keep`` (all of them at 1.0), with normal and special values."""
    gen, out = np.random.default_rng(seed), moments.MinorList(n)
    for t in range(1, top + 1):
        table = kernel.colex_table(n, t)
        values = gen.normal(size=len(table)) * 10.0 ** gen.integers(-8, 3, size=len(table))
        values[:len(_SPECIAL_VALUES)] = _SPECIAL_VALUES[:len(values)]
        if keep == 1.0:
            out._fill(t, values)
        else:
            picked = gen.random(len(table)) < keep
            out._write(table[picked], values[picked])
    return out


def _dumps(minors):
    """json.dumps of a list's JSON object, its keys sorted apart from the writer."""
    pairs = sorted(((tuple(row), v) for rows, values in minors.arrays()
                    for row, v in zip(rows.tolist(), values.tolist())), key=lambda p: kernel.colex_key(p[0]))
    return json.dumps({"n": minors.n, "minors": {",".join(map(str, j)): v for j, v in pairs}})


@pytest.mark.parametrize("n", range(1, 21))
def test_minors_json_of_whole_orders_is_the_json_dumps_text(n):
    for top in range(1, min(4, n) + 1):
        minors = _random_list(n, top, 100 * n + top)
        text = moments.minors_to_json(minors)
        assert text == _dumps(minors)
        assert moments.minors_to_json(moments.minors_from_json(text)) == text


@pytest.mark.parametrize("n, top, keep", [(1, 1, 0.5), (5, 3, 0.5), (9, 4, 0.1), (16, 4, 0.02),
                                          (20, 2, 0.9), (20, 4, 0.001)])
def test_minors_json_of_partial_orders_is_the_json_dumps_text(n, top, keep):
    minors = _random_list(n, top, n, keep)
    minors._fill(1, np.arange(n) / n)      # a whole order beside partial ones
    text = moments.minors_to_json(minors)
    assert text == _dumps(minors)
    assert moments.minors_to_json(moments.minors_from_json(text)) == text


def test_minors_json_of_whole_orders_with_two_keys_swapped_is_read_key_by_key(monkeypatch):
    tokenized = []
    write = moments.MinorList._write
    monkeypatch.setattr(moments.MinorList, "_write",
                        lambda self, *args: tokenized.append(1) or write(self, *args))
    text = moments.minors_to_json(_random_list(12, 4, 3))
    entries = list(json.loads(text)["minors"].items())
    a, b = [i for i, (key, _) in enumerate(entries) if key.count(",") == 3][5::400][:2]
    entries[a], entries[b] = entries[b], entries[a]      # two 4-sets apart in the file
    swapped = '{"n": 12, "minors": {%s}}' % ", ".join(f'"{key}": {v!r}' for key, v in entries)
    got = read_outcome(moments.minors_from_json, swapped)
    assert tokenized
    assert got == read_outcome(per_key_minors_from_json, swapped) == text


def _written_by_rank(n: int, orders) -> moments.MinorList:
    """The reference list: each (t, values of the lexicographic t-subsets)
    written through the ranked ``_write``."""
    out = moments.MinorList(n)
    for t, values in orders:
        out._write(lex_combinations(n, t) + 1, values)
    return out


@pytest.mark.parametrize("n, max_order", [(10, "all"), (16, 4), (32, 4)])
def test_exact_minors_json_equals_the_ranked_write(n, max_order):
    k = kernel.generate_admissible(n, 0.3, 7)
    top = n if max_order == "all" else max_order
    ref = _written_by_rank(n, [(t, kernel.principal_minors(k.mat, lex_combinations(n, t) + 1))
                               for t in range(1, top + 1)])
    assert moments.minors_to_json(moments.exact_minors(k, max_order)) == moments.minors_to_json(ref)


def test_exact_minors_match_scalar_determinants():
    k = kernel.generate_admissible(6, 0.3, 31)
    minors = moments.exact_minors(k, "all")
    assert len(minors) == 63
    for j, v in minors.items():
        assert v == kernel.principal_minor(k, j)


def test_minor_list_colex_order():
    ml = moments.MinorList(3, {(1, 2, 3): 0.1, (1,): 0.4, (2, 3): 0.2, (3,): 0.6})
    assert ml.subsets() == [(1,), (3,), (2, 3), (1, 2, 3)]
    # items(), like subsets() and the JSON form, is colex whatever the insertion order
    assert [j for j, _ in ml.items()] == [(1,), (3,), (2, 3), (1, 2, 3)]
    assert list(json.loads(moments.minors_to_json(ml))["minors"]) == ["1", "3", "2,3", "1,2,3"]


def test_minors_json_round_trip():
    k = kernel.generate_admissible(5, 0.3, 23)
    minors = moments.exact_minors(k, 3)
    again = moments.minors_from_json(moments.minors_to_json(minors))
    assert again.n == 5
    for j, v in minors.items():
        assert again.get(j) == v


def test_minors_json_is_the_json_dumps_text():
    k = kernel.generate_admissible(9, 0.3, 5)
    estimated = moments.estimate_required_minors(sampler.sample_enumerate(k, 500, 2), 4)
    ml = moments.MinorList(12, {(12,): -0.0, (3, 10, 11): 1e-300, (1, 2): 0.1 + 0.2})
    for minors in (moments.exact_minors(k, "all"), estimated, ml, moments.MinorList(4)):
        payload = {",".join(map(str, j)): v for j, v in minors.items()}
        assert moments.minors_to_json(minors) == json.dumps({"n": minors.n, "minors": payload})


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


def test_minors_json_rejects_an_integer_beyond_the_float_range():
    with pytest.raises(FormatError, match=r"value for '1,2' is beyond the float range"):
        moments.minors_from_json('{"n": 2, "minors": {"1": 0.5, "1,2": %s}}' % ("1" + "0" * 400))


def test_minors_json_fills_orders_in_bulk():
    with pytest.raises(FormatError, match=r"minor for \(2,\) must be finite"):
        moments.minors_from_json('{"n": 2, "minors": {"1": 0.5, "2": NaN}}')
    with pytest.raises(FormatError, match=r"index 3 out of range 1\.\.2"):
        moments.minors_from_json('{"n": 2, "minors": {"1,2": 0.5, "2,3": 0.5}}')
    ml = moments.minors_from_json('{"n": 3, "minors": {"1,2": 0.1, "3": 0.3, "2,3": 0.2}}')
    assert ml.items() == [((1, 2), 0.1), ((3,), 0.3), ((2, 3), 0.2)]


def test_minors_json_rejects_an_index_beyond_int64():
    with pytest.raises(FormatError, match=r"index 99999999999999999999 out of range 1\.\.2"):
        moments.minors_from_json('{"n": 2, "minors": {"99999999999999999999": 0.5}}')


def read_outcome(read, text):
    """The minors_to_json bytes of what a reader returns, or its exception's type and text."""
    try:
        return moments.minors_to_json(read(text))
    except Exception as exc:      # the two readers must fail alike
        return type(exc), str(exc)


@pytest.mark.parametrize("n, source", [(8, "minors"), (8, "estimate"), (16, "minors"),
                                       (16, "estimate"), (24, "minors"), (24, "estimate")])
def test_minors_json_reads_back_byte_for_byte(n, source):
    k = kernel.generate_admissible(n, 0.3, n)
    minors = (moments.exact_minors(k, 4) if source == "minors" else
              moments.estimate_required_minors(sampler.sample_sequential_batch(k, 500, n), 4))
    text = moments.minors_to_json(minors)
    assert read_outcome(moments.minors_from_json, text) == text
    assert read_outcome(per_key_minors_from_json, text) == text


def test_minors_json_of_whole_orders_is_read_without_tokens_or_ranks(monkeypatch):
    def refused(*args):
        raise AssertionError("tokenized or ranked a key of a whole-orders file")

    k = kernel.generate_admissible(9, 0.3, 3)
    batch = sampler.sample_sequential_batch(k, 300, 3)
    texts = [moments.minors_to_json(m) for m in
             (moments.exact_minors(k, 4), moments.exact_minors(k, 1), moments.exact_minors(k, "all"),
              moments.estimate_required_minors(batch, 3))]
    monkeypatch.setattr(moments.MinorList, "_write", refused)
    monkeypatch.setattr(moments, "colex_rank", refused)
    for text in texts:
        assert read_outcome(moments.minors_from_json, text) == text
    # a non-finite value is named as the ranked write names it
    spoiled = re.sub(r'"2,3": [^,]+', '"2,3": NaN', texts[0], count=1)
    assert read_outcome(moments.minors_from_json, spoiled) == (
        FormatError, "minors JSON: minor for (2, 3) must be finite, got nan")


@pytest.mark.parametrize("change", ["drop", "swap", "order 2 only", "orders 1 and 3", "n + 1"])
def test_minors_json_close_to_whole_orders_goes_through_the_tokens(monkeypatch, change):
    tokenized = []
    write = moments.MinorList._write
    monkeypatch.setattr(moments.MinorList, "_write",
                        lambda self, *args: tokenized.append(1) or write(self, *args))
    k = kernel.generate_admissible(7, 0.3, 5)
    entries = list(json.loads(moments.minors_to_json(moments.exact_minors(k, 3)))["minors"].items())
    n = 7
    if change == "drop":
        entries.pop(10)
    elif change == "swap":
        entries[3], entries[4] = entries[4], entries[3]
    elif change == "order 2 only":
        entries = [e for e in entries if e[0].count(",") == 1]
    elif change == "orders 1 and 3":
        entries = [e for e in entries if e[0].count(",") != 1]
    else:
        n = 8
    text = '{"n": %d, "minors": {%s}}' % (n, ", ".join(f'"{key}": {v!r}' for key, v in entries))
    got = read_outcome(moments.minors_from_json, text)
    assert tokenized        # before the reference reader writes too
    assert got == read_outcome(per_key_minors_from_json, text)


def test_minors_json_defects_past_the_first_key_chunk_are_named_in_file_order():
    # 12,950 keys: the int map runs over four chunks of keys
    text = moments.minors_to_json(moments.exact_minors(kernel.generate_admissible(24, 0.3, 1), 4))
    keys = list(json.loads(text)["minors"])
    assert len(keys) > 3 * moments.DET_CHUNK
    early, late = keys[5], keys[3 * moments.DET_CHUNK + 7]
    for defect in ("99999999999999999999", " 1", "x", "25", "1"):
        spoiled = text.replace(f'"{late}":', f'"{late},{defect}":')
        assert read_outcome(moments.minors_from_json, spoiled) == read_outcome(
            per_key_minors_from_json, spoiled)
        spoiled = spoiled.replace(f'"{early}": ', f'"{early}": true, "{early}x": ')
        assert read_outcome(moments.minors_from_json, spoiled) == read_outcome(
            per_key_minors_from_json, spoiled)


KEY_TOKENS = [" 1", "1 ", "+1", "01", "", "x", "1_0", "-1", "0", "٣", "1.0",
              "99999999999999999999", "-99999999999999999999", "4300" * 1200]
VALUES = ["true", "false", '"0.5"', "null", "1" + "0" * 400, "-" + "9" * 330, "7", "-0.0",
          "NaN", "Infinity", "1e400", "[0.5]", "{}"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_minors_json_reader_agrees_with_the_per_key_reader(data):
    n = data.draw(st.sampled_from([1, 2, 5, 9]))
    subsets = st.sets(st.integers(1, n), min_size=1, max_size=min(4, n)).map(lambda s: tuple(sorted(s)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    minors = moments.MinorList(n, data.draw(st.dictionaries(subsets, finite, max_size=8)))
    entries = [[key, json.dumps(value)]
               for key, value in json.loads(moments.minors_to_json(minors))["minors"].items()]
    for _ in range(data.draw(st.integers(0, 4))):        # several defects in one file
        kind = data.draw(st.sampled_from(["token", "value", "repeat", "insert", "n"]))
        at = data.draw(st.integers(0, max(0, len(entries) - 1)))
        if kind == "insert" or not entries:
            key = ",".join(map(str, data.draw(st.lists(st.integers(-1, n + 1), min_size=1, max_size=5))))
            entries.insert(at, [key, data.draw(st.sampled_from(VALUES + ["0.25"]))])
        elif kind == "token":
            tokens = entries[at][0].split(",")
            tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(KEY_TOKENS))
            entries[at][0] = ",".join(tokens)
        elif kind == "value":
            entries[at][1] = data.draw(st.sampled_from(VALUES))
        elif kind == "repeat":            # the same subset again, its tokens permuted, or the same key
            tokens = data.draw(st.permutations(entries[at][0].split(",")))
            entries.insert(data.draw(st.integers(0, len(entries))), [",".join(tokens), "0.125"])
        else:
            n = data.draw(st.sampled_from([1, 3, n + 1]))
    text = '{"n": %d, "minors": {%s}}' % (n, ", ".join(f"{json.dumps(k)}: {v}" for k, v in entries))
    assert read_outcome(moments.minors_from_json, text) == read_outcome(per_key_minors_from_json, text)


def test_a_huge_ground_set_is_refused_before_any_subset_is_ranked(monkeypatch):
    # ranking first builds a binomial table with a row per item
    def no_ranking(*args):
        raise AssertionError("ranked a subset of an order that does not fit")

    monkeypatch.setattr(moments, "colex_rank", no_ranking)
    for entries in ('{"1,2": 0.5}', '{}'):
        with pytest.raises(CapabilityError, match="order 1 of N=100000000000000000000"):
            moments.minors_from_json('{"n": 100000000000000000000, "minors": %s}' % entries)
    ml = moments.MinorList(10 ** 6)                     # its singletons fit, its pairs do not
    with pytest.raises(CapabilityError, match="order 2 of N=1000000"):
        ml.put((1, 2), 0.5)
    with pytest.raises(MissingMinorError):
        ml.get_many([[1, 2]])
    assert (1, 2) not in ml and (1, 2) not in ml.queried and len(ml) == 0


def test_exact_minors_refuse_an_oversized_order_before_building_its_table(monkeypatch):
    built = []
    monkeypatch.setattr(moments, "ORDER_LIMIT", 200)
    monkeypatch.setattr(moments, "colex_table", lambda n, t: built.append(t) or kernel.colex_table(n, t))
    with pytest.raises(CapabilityError, match="order 3 of N=20"):
        moments.exact_minors(kernel.generate_admissible(20, 0.3, 1), 4)
    assert set(built) == {1, 2}


def test_minors_json_rejects_two_keys_for_one_subset():
    with pytest.raises(FormatError, match="1 of 4 keys repeat a subset that an earlier key names"):
        moments.minors_from_json('{"n": 2, "minors": {"1": 0.5, "2": 0.5, "1,2": 0.1, "2,1": 0.2}}')
    with pytest.raises(FormatError, match="2 of 3 keys repeat"):
        moments.minors_from_json('{"n": 3, "minors": {"1,3": 0.1, "3,1": 0.1, "3, 1": 0.1}}')


def test_minors_json_rejects_a_boolean_n():
    with pytest.raises(FormatError, match="n must be a positive integer, got True"):
        moments.minors_from_json('{"n": true, "minors": {"1": 0.5}}')


def test_minors_json_rejects_a_boolean_value():
    with pytest.raises(FormatError, match="value for '1' is not a number"):
        moments.minors_from_json('{"n": 1, "minors": {"1": true}}')


def test_kernel_json_rejects_a_boolean_n():
    with pytest.raises(FormatError, match="n must be a nonnegative integer, got True"):
        kernel.kernel_from_json('{"n": true, "rows": [[0.5]]}')


def test_minors_file_round_trip(tmp_path):
    k = kernel.generate_admissible(4, 0.3, 31)
    minors = moments.exact_minors(k, "all")
    path = str(tmp_path / "m.json")
    moments.write_minors(path, minors)
    again = moments.read_minors(path)
    for j, v in minors.items():
        assert again.get(j) == v


def test_minor_list_matches_a_dict():
    # oracle: a dict of tuple keys and a set of reads, under random
    # insertion order with overwrites, for every order of n = 1..10
    gen = np.random.default_rng(71)
    for n in range(1, 11):
        every = sorted((j for t in range(1, n + 1)
                        for j in itertools.combinations(range(1, n + 1), t)), key=kernel.colex_key)
        ml, want, reads = moments.MinorList(n), {}, set()
        for _ in range(3 * len(every) // 4 + 2):
            j = every[gen.integers(len(every))]
            value = float(gen.normal())
            perm = tuple(int(i) for i in gen.permutation(j))
            ml.put(perm, value)
            want[j] = value
        assert len(ml) == len(want)
        assert ml.subsets() == sorted(want, key=kernel.colex_key)
        assert ml.items() == [(j, want[j]) for j in ml.subsets()]
        for j in every:
            assert (j in ml) == (j in want)
            if j in want and gen.random() < 0.3:
                assert ml.get(j) == want[j]
                reads.add(j)
            elif j not in want:
                with pytest.raises(MissingMinorError):
                    ml.get(j)
        assert ml.queried == reads and len(ml.queried) == len(reads)
        for t in range(1, n + 1):
            rows = [j for j in every if len(j) == t]
            picked = [rows[r] for r in gen.integers(len(rows), size=6)]
            missing = next((p for p, j in enumerate(picked) if j not in want), None)
            if missing is None:
                assert ml.get_many(picked).tolist() == [want[j] for j in picked]
                reads.update(picked)
            else:
                with pytest.raises(MissingMinorError, match=re.escape(str(picked[missing]))):
                    ml.get_many(picked)
                reads.update(picked[:missing])   # the rows before the missing one count as read
            assert ml.queried == reads
            assert set(ml.queried) == reads and all(j in ml.queried for j in reads)
        ml.reset_queries()
        assert ml.queried == set() and len(ml.queried) == 0


def test_minor_list_refuses_orders_above_the_limit():
    with pytest.raises(CapabilityError):
        moments.MinorList(200).put((1, 2, 3, 4), 0.1)   # C(200, 4) > 2^24
    with pytest.raises(CapabilityError):
        moments.MinorList(64).put(range(1, 33), 0.1)
    ml = moments.MinorList(200)
    ml.put((1, 2, 3), 0.1)                               # C(200, 3) fits
    assert (1, 2, 3, 4) not in ml and ml.get((1, 2, 3)) == 0.1
    with pytest.raises(MissingMinorError):
        ml.get_many([(1, 2, 3, 4)])
    with pytest.raises(CapabilityError):
        moments.minors_from_json('{"n": 200, "minors": {"1,2,3,4": 0.1}}')


def direct_frequencies(masks, n, t):
    """Fraction of the masks that contain each t-subset, in
    ``lex_combinations`` order, one subset mask compared at a time."""
    idx = lex_combinations(n, t).astype(np.uint64)
    subsets = np.bitwise_or.reduce(np.uint64(1) << idx, axis=1)
    counts = np.zeros(len(subsets))
    for m in np.asarray(masks, dtype=np.uint64):
        counts += (subsets & m) == subsets
    return counts / len(masks)


def assert_counts_match(batch, max_order):
    n = batch.n_items
    est = moments.estimate_required_minors(batch, max_order)
    top = min(max_order, n)
    assert len(est) == sum(math.comb(n, t) for t in range(1, top + 1))
    for t in range(1, top + 1):
        got = est.get_many(lex_combinations(n, t) + 1)
        assert got.tobytes() == direct_frequencies(batch.masks(), n, t).tobytes(), (n, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 16])
@pytest.mark.parametrize("max_order", [1, 2, 3, 4])
def test_estimated_minors_equal_direct_counts(n, max_order):
    gen = np.random.default_rng(1000 * n + max_order)
    masks = gen.integers(0, 1 << n, 300, dtype=np.uint64)
    masks[::7] = masks[0]          # repeated masks carry weights above one
    assert_counts_match(sampler.SampleBatch(n, masks=masks), max_order)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_estimated_minors_json_equals_the_ranked_write(n):
    batch = sampler.sample_sequential_batch(kernel.generate_admissible(n, 0.3, 1), 2000, 1)
    ref = _written_by_rank(n, [(t, direct_frequencies(batch.masks(), n, t)) for t in range(1, min(4, n) + 1)])
    est = moments.estimate_required_minors(batch, 4)
    assert moments.minors_to_json(est) == moments.minors_to_json(ref)


def test_estimated_minors_at_64_items_count_the_top_bit():
    gen = np.random.default_rng(64)
    masks = gen.integers(0, 1 << 62, 12, dtype=np.uint64)
    masks[::2] |= np.uint64(1) << np.uint64(63)
    masks = np.concatenate([masks, [np.uint64(1) << np.uint64(63), np.uint64(2 ** 64 - 1)] * 2])
    assert_counts_match(sampler.SampleBatch(64, masks=masks), 4)


def test_estimated_minors_of_one_repeated_mask():
    batch = sampler.SampleBatch(9, [(1, 4, 5, 8, 9)] * 40)
    assert_counts_match(batch, 4)
    est = moments.estimate_required_minors(batch, 4)
    assert est.get((1, 4, 8, 9)) == 1.0 and est.get((1, 2)) == 0.0


def test_estimated_minors_span_several_gram_chunks():
    n, gen = 48, np.random.default_rng(48)
    masks = gen.integers(0, 1 << n, 700, dtype=np.uint64) & gen.integers(0, 1 << n, 700, dtype=np.uint64)
    batch = sampler.SampleBatch(n, masks=np.concatenate([masks, masks[:50]]))
    pairs, blocks = math.comb(n, 2), math.comb(n, 3) + math.comb(n, 4)
    assert len(np.unique(masks)) > 3 * max(moments._COUNT_CELLS, blocks) // pairs
    assert_counts_match(batch, 4)


def test_estimating_from_an_empty_batch_is_a_dimension_error():
    for max_order in (1, 4):
        with pytest.raises(DimensionError, match="cannot estimate from an empty batch"):
            moments.estimate_required_minors(sampler.SampleBatch(6), max_order)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("max_order", [1, 2, 3, 4])
def test_superset_sums_and_the_gram_count_alike(n, max_order):
    gen = np.random.default_rng(10 * n + max_order)
    masks = gen.integers(0, 1 << n, 200, dtype=np.uint64)
    masks[::5] = masks[1]
    batch = sampler.SampleBatch(n, masks=masks)
    tables = [kernel.colex_table(n, t) for t in range(1, min(max_order, n) + 1)]
    for table, zeta, gram in zip(tables, moments._superset_counts(batch, tables),
                                 moments._gram_counts(batch, tables), strict=True):
        assert np.array_equal(zeta, gram) and len(zeta) == len(table)


# (N, draws, route): the cheaper of the two as timed on one pinned CPU.
# Superset sums vs the Gram took 1.0 vs 6.6 ms at N = 16 with 1e4 draws,
# 19 vs 18 ms at N = 20 with 1e4 and 122 vs 184 ms at N = 22 with 1e5.
MEASURED_ROUTES = [(16, 10_000, "table"), (16, 100_000, "table"), (18, 10_000, "table"),
                   (18, 100_000, "table"), (20, 10_000, "gram"), (20, 100_000, "table"),
                   (22, 10_000, "gram"), (22, 100_000, "table"), (7, 100_000, "table")]


@pytest.mark.parametrize("n, draws, route", MEASURED_ROUTES)
def test_the_size_rule_takes_the_measured_faster_route(n, draws, route):
    minors = sum(math.comb(n, t) for t in range(1, 5))
    assert moments._uses_table(n, draws, minors) == (route == "table")


def test_the_size_rule_caps_the_table():
    bits = moments.TABLE_BITS
    assert moments._uses_table(bits, 10 ** 9, 10 ** 9)
    assert not moments._uses_table(bits + 1, 10 ** 9, 10 ** 9)


@pytest.mark.parametrize("draws, route", [(3000, "_gram_counts"), (9000, "_superset_counts")])
def test_estimates_on_either_side_of_the_size_rule_equal_direct_counts(monkeypatch, draws, route):
    # At N = 18 the rule changes route at about 5,800 draws.
    n, gen = 18, np.random.default_rng(draws)
    masks = gen.integers(0, 1 << n, draws, dtype=np.uint64) & gen.integers(0, 1 << n, draws, dtype=np.uint64)
    masks[::9] = masks[0]
    taken = []
    for name in ("_gram_counts", "_superset_counts"):
        fn = getattr(moments, name)
        monkeypatch.setattr(moments, name, lambda *args, fn=fn, name=name: taken.append(name) or fn(*args))
    assert_counts_match(sampler.SampleBatch(n, masks=masks), 4)
    assert taken == [route]


@pytest.mark.parametrize("batch", [sampler.SampleBatch(6), sampler.parse_samples("-\n", 0)])
def test_an_empty_batch_or_ground_set_is_refused_before_any_table_is_built(monkeypatch, batch):
    def built(*args):
        raise AssertionError("a table was built")

    for name in ("colex_table", "_superset_counts", "_gram_counts"):
        monkeypatch.setattr(moments, name, built)
    for max_order in (1, 4):
        with pytest.raises(DimensionError):
            moments.estimate_required_minors(batch, max_order)
