"""The three benchmark workloads and the loop that times them.

A run repeats whole passes over a fixed, seed-made list of inputs until
its time is up, so every pass attempts the same operations and the
deterministic figures (solution dimensions, layer counts) are the same
however long the run.  In a traced run each operation runs twice on the
same input: once untraced, for the tracing overhead, and once traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import tempfile
import time
import warnings

import numpy as np

import checks
import laws
import speed
import tracing

import signed_dpp as sd
from signed_dpp import cli


def follows_generator_law(mat: np.ndarray, n: int, lam: float) -> bool:
    """Shape, diagonal range, magnitude range and |K_ij| = |K_ji| of
    ``generate_admissible``'s documented law."""
    mu = 0.9 * lam / (n - 1)
    off = np.abs(mat[~np.eye(n, dtype=bool)]) if mat.shape == (n, n) else np.zeros(0)
    return bool(mat.shape == (n, n)
                and np.all((np.diag(mat) >= lam) & (np.diag(mat) <= 1 - lam))
                and np.all((off >= 0.2 * mu * (1 - 1e-12)) & (off <= mu * (1 + 1e-12)))
                and np.array_equal(np.abs(mat), np.abs(mat.T)))


def _skipped(caught) -> int:
    category = getattr(sd, "AmbiguousSignWarning", None)
    return sum(1 for w in caught if category and issubclass(w.category, category))


class Run:
    """Attempted and failed operations, timings and check results."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.tracer = tracing.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.op_s: list[float] = []
        self.op_windows: list[tuple[float, float]] = []
        self.op_ref: list[float] = []
        self.traced_ops = 0
        self.overhead_s: list[float] = []
        self.draws = 0
        self.draw_s = 0.0
        self.first_pass_dims: list[int] = []
        self.skipped = 0
        self.minors_read = 0
        self.recon_dev = 0.0
        self.passes = 0

    def check(self, ok: bool, what: str) -> None:
        if not ok and what not in self.errors:
            self.errors.append(what)

    def attempt(self, op, check, timed: bool = True):
        """Run ``op`` (untraced, then traced in a traced run) and check it.

        ``op`` returns (output, stats); ``check(output, stats, traced)``
        validates it.  An exception is a failed operation, and the checks
        speak only of operations that did not fail.  Untimed operations
        are still attempted twice in a traced run, so the failed share
        does not depend on the mode.
        """
        untraced = None
        for traced in ((False, True) if self.trace else (False,)):
            self.attempted += 1
            scope = self.tracer if (traced and timed) else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with scope:
                    out, stats = op()
            except Exception as exc:   # noqa: BLE001 - any raise is a failed operation
                self.failed += 1
                message = f"{type(exc).__name__}: {exc}"
                if message not in self.failures:
                    self.failures.append(message)
                continue
            took = time.perf_counter() - start
            if timed and traced:
                self.traced_ops += 1
                if untraced is not None:
                    self.overhead_s.append(took - untraced)
            elif timed:
                untraced = took
                self.op_s.append(took)
                self.op_windows.append((start, start + took))
                self.draws += stats.get("draws", 0)
                self.draw_s += stats.get("draw_s", 0.0)
            check(out, stats, traced)

    def record_solution(self, dim: int, stats: dict, traced: bool) -> None:
        if self.passes == 0 and not traced:
            self.first_pass_dims.append(dim)
        if traced:
            self.skipped += stats.get("skipped", 0)
            self.minors_read += stats.get("minors_read", 0)


# ---------------------------------------------------------------------------
# pma-exact: the exact round trip at N = 32

class PmaExact:
    name = "pma-exact"
    n = 32
    lam = 0.3
    kernels = 2
    min_passes = 1
    # generate_admissible at this size is the benchmark's one known
    # failing operation; its seed is fixed so it fails the same way
    # whatever the workload seed.
    gen_seed = 32

    def __init__(self):
        self._truth: dict[int, dict] = {}

    def build(self, seed: int):
        return [laws.generator_law(self.n, self.lam, laws.stream(self.name, seed, i))
                for i in range(self.kernels)]

    def run_pass(self, run: Run, inputs) -> None:
        run.attempt(self._generate, lambda k, stats, traced: self._check_generated(run, k),
                    timed=False)
        for index, mat in enumerate(inputs):
            run.attempt(lambda: self._roundtrip(mat),
                        lambda out, stats, traced: self._check(run, index, mat, out, stats, traced))

    def _generate(self):
        return sd.generate_admissible(self.n, self.lam, self.gen_seed), {}

    def _check_generated(self, run: Run, k) -> None:
        # Reached only once generation succeeds at this size.
        run.check(follows_generator_law(np.asarray(k.mat), self.n, self.lam),
                  "generate_admissible output violates its documented law")

    def _roundtrip(self, mat):
        k = sd.SignedKernel(mat)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            minors = sd.exact_minors(k, 4)
            sol = sd.solve_pma(minors)
            read = len(getattr(minors, "queried", ()))
            report = sd.verify(sol.kernel, minors)
        return (minors, sol, report), {"skipped": _skipped(caught), "minors_read": read}

    def _check(self, run: Run, index, mat, out, stats, traced) -> None:
        minors, sol, report = out
        if index not in self._truth:
            self._truth[index] = checks.principal_minors(mat, checks.subsets(self.n, 4))
        truth = self._truth[index]
        h = np.asarray(sol.kernel.mat)
        run.check(not checks.minor_errors(dict(minors.items()), truth),
                  "exact_minors differs from numpy determinants")
        run.check(checks.conjugation_distance(h, mat) <= checks.CONJUGATION_TOL,
                  "solve_pma output is not D K D or D K^T D")
        run.check(sol.null_dimension == self.n, "solution dimension is not N")
        run.check(checks.truth_in_coset(mat, checks.sign_bits(h, sol.pairs),
                                        sol.free_switches, sol.pairs),
                  "true sign pattern outside the solution coset")
        run.check(bool(report.passed), "verify failed on the exact reconstruction")
        run.recon_dev = max(run.recon_dev, checks.max_deviation(h, truth))
        run.record_solution(sol.null_dimension, stats, traced)


# ---------------------------------------------------------------------------
# learn: samples -> learned kernel at N = 7

class Learn:
    name = "learn"
    n = 7
    kernels = 24
    draws = 100_000
    sign_tol = 5e-3
    min_passes = 1
    # Five z = 6 half-widths of a single estimated minor, 6 * 0.5 / sqrt(draws).
    recon_tol = 5 * checks.Z * 0.5 / np.sqrt(draws)

    def __init__(self):
        self._truth: dict[int, dict] = {}

    def build(self, seed: int):
        out = []
        for i in range(self.kernels):
            gen = laws.stream(self.name, seed, i)
            mat = laws.learn_law(self.n, gen)
            out.append((mat, int(gen.integers(2 ** 32))))
        return out

    def run_pass(self, run: Run, inputs) -> None:
        for index, (mat, sample_seed) in enumerate(inputs):
            run.attempt(lambda: self._learn(mat, sample_seed),
                        lambda out, stats, traced: self._check(run, index, mat, out, stats, traced))

    def _learn(self, mat, sample_seed):
        k = sd.SignedKernel(mat)
        start = time.perf_counter()
        batch = sd.sample_enumerate(k, self.draws, sample_seed)
        draw_s = time.perf_counter() - start
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = sd.estimate_required_minors(batch, 4)
            sol = sd.solve_pma(est, sign_tol=self.sign_tol)
            read = len(getattr(est, "queried", ()))
        stats = {"draws": len(batch), "draw_s": draw_s,
                 "skipped": _skipped(caught), "minors_read": read}
        return (len(batch), est, sol), stats

    def _check(self, run: Run, index, mat, out, stats, traced) -> None:
        count, est, sol = out
        if index not in self._truth:
            self._truth[index] = checks.principal_minors(mat, checks.subsets(self.n, self.n))
        truth = self._truth[index]
        low = {s: v for s, v in truth.items() if len(s) <= 4}
        h = np.asarray(sol.kernel.mat)
        run.check(count == self.draws, "sample_enumerate returned the wrong count")
        estimates = dict(est.items())
        run.check(set(estimates) == set(low)
                  and not checks.z_violations(estimates, low, self.draws),
                  "estimated minors outside their binomial z-bounds")
        run.check(checks.truth_in_coset(mat, checks.sign_bits(h, sol.pairs),
                                        sol.free_switches, sol.pairs),
                  "true sign pattern outside the learned solution coset")
        dev = checks.max_deviation(h, truth)
        run.check(dev <= self.recon_tol, f"learned kernel deviates by {dev:.3g}")
        run.recon_dev = max(run.recon_dev, dev)
        run.record_solution(sol.null_dimension, stats, traced)


# ---------------------------------------------------------------------------
# cli-sequential: the CLI pipeline at N = 16, in process

FILES = ("k.json", "samples.txt", "est.json", "minors.json", "h.json", "h.json.solutions.json")


def _read_kernel(data: bytes) -> np.ndarray:
    obj = json.loads(data)
    return np.array(obj["rows"], dtype=float).reshape(obj["n"], obj["n"])


def _read_minors(data: bytes) -> dict:
    obj = json.loads(data)["minors"]
    return {tuple(int(t) for t in key.split(",")): float(v) for key, v in obj.items()}


def _read_coset(kernel: bytes, sidecar: bytes):
    h = _read_kernel(kernel)
    obj = json.loads(sidecar)
    pairs = [tuple(int(t) for t in p.split(",")) for p in obj["pairs"]]
    basis = [sum(bit << t for t, bit in enumerate(row)) for row in obj["null_basis"]]
    return h, pairs, basis


def _read_sample_masks(data: bytes) -> np.ndarray:
    lines = data.decode("utf-8").splitlines()
    return np.array([0 if line == "-" else sum(1 << (int(t) - 1) for t in line.split(" "))
                     for line in lines], dtype=np.uint64)


class CliSequential:
    name = "cli-sequential"
    n = 16
    lam = 0.3
    kernels = 2
    draws = 10_000
    # Outputs of a pass are compared byte for byte with the first pass.
    min_passes = 2

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._outputs: dict[int, dict[str, bytes]] = {}
        # The CLI's thread pool runs at its default size.
        os.environ.pop("SIGNED_DPP_THREADS", None)

    def build(self, seed: int):
        out = []
        for i in range(self.kernels):
            gen = laws.stream(self.name, seed, i)
            out.append((int(gen.integers(2 ** 31)), int(gen.integers(2 ** 31))))
        return out

    def run_pass(self, run: Run, inputs) -> None:
        for index, (gen_seed, sample_seed) in enumerate(inputs):
            run.attempt(lambda: self._pipeline(gen_seed, sample_seed),
                        lambda out, stats, traced: self._check(run, index, out, stats, traced))

    def _pipeline(self, gen_seed: int, sample_seed: int):
        d = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)
        try:
            p = {name: os.path.join(d, name) for name in FILES}
            steps = [
                ["gen", "--n", str(self.n), "--lambda", str(self.lam),
                 "--seed", str(gen_seed), "--out", p["k.json"]],
                ["sample", "--kernel", p["k.json"], "--count", str(self.draws),
                 "--seed", str(sample_seed), "--method", "sequential",
                 "--out", p["samples.txt"]],
                ["estimate", "--samples", p["samples.txt"], "--n", str(self.n),
                 "--max-order", "4", "--out", p["est.json"]],
                ["minors", "--kernel", p["k.json"], "--max-order", "4",
                 "--out", p["minors.json"]],
                ["pma", "--minors", p["minors.json"], "--out", p["h.json"]],
                ["verify", "--kernel", p["h.json"], "--minors", p["minors.json"]],
            ]
            draw_s = 0.0
            log = io.StringIO()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for argv in steps:
                    start = time.perf_counter()
                    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                        code = cli.main(argv)
                    if argv[0] == "sample":
                        draw_s = time.perf_counter() - start
                    if code != 0:
                        raise RuntimeError(f"signed-dpp {argv[0]} exited {code}: "
                                           f"{log.getvalue().strip()[-300:]}")
            outputs = {}
            for name in FILES:
                with open(p[name], "rb") as fh:
                    outputs[name] = fh.read()
        finally:
            shutil.rmtree(d, ignore_errors=True)
        stats = {"draws": self.draws, "draw_s": draw_s, "skipped": _skipped(caught)}
        return (outputs, log.getvalue()), stats

    def _check(self, run: Run, index, out, stats, traced) -> None:
        outputs, log = out
        first = self._outputs.get(index)
        if first is not None:
            run.check(outputs == first, "CLI outputs differ between identical runs")
        else:
            self._outputs[index] = outputs
            self._check_outputs(run, outputs, log)
        run.record_solution(len(json.loads(outputs["h.json.solutions.json"])["null_basis"]),
                            stats, traced)

    def _check_outputs(self, run: Run, outputs, log) -> None:
        n = self.n
        k = _read_kernel(outputs["k.json"])
        run.check(follows_generator_law(k, n, self.lam), "gen output violates the documented law")
        subs = checks.subsets(n, 4)
        truth = checks.principal_minors(k, subs)
        run.check(not checks.minor_errors(_read_minors(outputs["minors.json"]), truth),
                  "minors output differs from numpy determinants")
        masks = _read_sample_masks(outputs["samples.txt"])
        freq = checks.frequencies(masks, subs)
        run.check(len(masks) == self.draws and not checks.z_violations(freq, truth, self.draws),
                  "sequential-sampler frequencies outside their binomial z-bounds")
        est = _read_minors(outputs["est.json"])
        run.check(est == freq, "estimate output differs from the sample frequencies")
        h, pairs, basis = _read_coset(outputs["h.json"], outputs["h.json.solutions.json"])
        run.check(checks.conjugation_distance(h, k) <= checks.CONJUGATION_TOL,
                  "exact CLI reconstruction is not D K D or D K^T D")
        run.check(len(basis) == n, "exact CLI solution dimension is not N")
        run.check(checks.truth_in_coset(k, checks.sign_bits(h, pairs), basis, pairs),
                  "true sign pattern outside the exact CLI solution coset")
        run.check("PASS" in log, "verify did not report PASS")
        run.recon_dev = max(run.recon_dev, checks.max_deviation(h, truth))


# ---------------------------------------------------------------------------

def make(name: str, workdir: str):
    if name == "pma-exact":
        return PmaExact()
    if name == "learn":
        return Learn()
    return CliSequential(workdir)


def measure(workload, inputs, seconds: float, trace: bool) -> Run:
    """Whole passes over ``inputs`` until ``seconds`` have elapsed."""
    run = Run(trace)
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while run.passes < workload.min_passes or time.perf_counter() - start < seconds:
            workload.run_pass(run, inputs)
            run.passes += 1
    run.op_ref = [(end - begin) / probe.unit(begin, end) for begin, end in run.op_windows]
    return run


def median(values) -> float:
    return statistics.median(values) if values else 0.0
