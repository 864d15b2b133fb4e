"""Each reference check accepts a correct output and rejects a corrupted one.

Run with:  python3 -m pytest bench/test_checks.py
"""

import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import laws  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import signed_dpp as sd  # noqa: E402

N = 6
PAIRS = list(itertools.combinations(range(1, N + 1), 2))


def kernel(seed=0):
    return laws.generator_law(N, 0.3, np.random.default_rng(seed))


def vertex_switch(v: int) -> int:
    """Sign switch of D = diag(..., -1 at v, ...): flips every pair at v."""
    return sum(1 << t for t, p in enumerate(PAIRS) if v in p)


def test_laws_are_admissible_and_generic():
    for seed in range(3):
        k = kernel(seed)
        assert laws.is_admissible(k) and laws.is_generic(np.abs(k))
        learned = laws.learn_law(5, np.random.default_rng(seed))
        assert laws.is_admissible(learned)
    assert not laws.is_admissible(np.diag([1.2, 0.5]))


def test_generator_law_check_rejects_a_scaled_kernel():
    import workloads

    k = laws.generator_law(N, 0.3, np.random.default_rng(0))
    assert workloads.follows_generator_law(k, N, 0.3)
    assert not workloads.follows_generator_law(2 * k, N, 0.3)
    assert not workloads.follows_generator_law(k[:-1, :-1], N, 0.3)


def test_minor_check_rejects_an_altered_minor():
    k = kernel()
    truth = checks.principal_minors(k, checks.subsets(N, 4))
    program = dict(sd.exact_minors(sd.SignedKernel(k), 4).items())
    assert checks.minor_errors(program, truth) == []
    altered = dict(program)
    altered[(2, 3, 5)] += 1e-6
    assert checks.minor_errors(altered, truth) == [(2, 3, 5)]
    del altered[(2, 3, 5)]
    assert checks.minor_errors(altered, truth) == [(2, 3, 5)]


def test_conjugation_check_rejects_a_flipped_entry_sign():
    k = kernel()
    d = np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    assert checks.conjugation_distance(d @ k @ d, k) <= checks.CONJUGATION_TOL
    assert checks.conjugation_distance(d @ k.T @ d, k) <= checks.CONJUGATION_TOL
    sol = sd.solve_pma(sd.exact_minors(sd.SignedKernel(k), 4))
    assert checks.conjugation_distance(np.asarray(sol.kernel.mat), k) <= checks.CONJUGATION_TOL
    for i, j in ((2, 4), (0, 3), (5, 1)):
        flipped = d @ k @ d
        flipped[i, j] *= -1
        assert checks.conjugation_distance(flipped, k) > checks.CONJUGATION_TOL


def test_coset_check_rejects_a_pattern_outside_the_coset():
    k = kernel()
    basis = [vertex_switch(v) for v in range(2, N + 1)]
    truth = checks.sign_bits(k, PAIRS)
    assert checks.truth_in_coset(k, truth ^ basis[0] ^ basis[3], basis, PAIRS)
    # One flipped pair is not a cut of the complete graph, so not a switch.
    assert not checks.truth_in_coset(k, truth ^ 1, basis, PAIRS)

    sol = sd.solve_pma(sd.exact_minors(sd.SignedKernel(k), 4))
    particular = checks.sign_bits(np.asarray(sol.kernel.mat), sol.pairs)
    assert checks.truth_in_coset(k, particular, sol.free_switches, sol.pairs)
    assert not checks.truth_in_coset(k, particular ^ 1, sol.free_switches, sol.pairs)


def test_z_bounds_reject_a_shifted_estimate():
    k = laws.learn_law(5, np.random.default_rng(1))
    truth = checks.principal_minors(k, checks.subsets(5, 4))
    count = 20_000
    batch = sd.sample_enumerate(sd.SignedKernel(k), count, seed=3)
    estimates = dict(sd.estimate_required_minors(batch, 4).items())
    assert checks.z_violations(estimates, truth, count) == []
    masks = np.array([sum(1 << (i - 1) for i in s) for s in batch.samples], dtype=np.uint64)
    assert checks.frequencies(masks, list(truth)) == estimates
    p = truth[(1, 2)]
    estimates[(1, 2)] = p + 7 * np.sqrt(p * (1 - p) / count)
    assert checks.z_violations(estimates, truth, count) == [(1, 2)]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_speed_probe_takes_the_median_over_the_operation():
    probe = speed.SpeedProbe()
    probe.ends = [float(t) for t in range(20)]
    probe.durations = [1.0] * 10 + [3.0] * 10
    assert probe.unit(12.0, 18.5) == 3.0
    assert probe.unit(0.0, 2.0) == 1.0   # widened to MIN_SAMPLES around the window
    with speed.SpeedProbe(period=0.001) as live:
        deadline = time.monotonic() + 5
        while len(live.durations) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert len(live.durations) >= 3 and not live._thread.is_alive()
