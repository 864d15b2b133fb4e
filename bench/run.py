"""Benchmark of the signed-DPP loop: exact PMA, learning, and the CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload pma-exact --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload, each in a fresh process.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run also
writes a BENCH_*.json record under .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("pma-exact", "learn", "cli-sequential")
SETUPS = 5

END_TO_END = {
    "setup_s": "s",
    "op_ref": "ref",
    "peak_rss_mb": "MB",
    "solution_dim": "count",
}

# Per-layer metric -> unit.  Times and counts are per traced operation.
PER_LAYER = {
    "pma.skeleton_s": "s",
    "pma.genericity_s": "s",
    "pma.extract_pi_s": "s",
    "pma.extract_pi_calls": "count",
    "pma.four_cycle_s": "s",
    "pma.four_cycle_calls": "count",
    "pma.sign_system_s": "s",
    "pma.solve_self_s": "s",
    "pma.verify_s": "s",
    "pma.skipped_decisions": "count",
    "pma.recon_dev": "prob",
    "gf2.solve_s": "s",
    "gf2.rows": "count",
    "gf2.rank": "count",
    "gf2.row_yield": "ratio",
    "graph.as_cycle_s": "s",
    "graph.as_cycle_calls": "count",
    "moments.minors_read": "count",
    "moments.estimate_s": "s",
    "moments.exact_minors_s": "s",
    "rng.substream_s": "s",
    "rng.substream_calls": "count",
    "kernel.generate_s": "s",
    "kernel.enumerate_pmf_s": "s",
    "kernel.atomic_write_s": "s",
    "sampler.enumerate_s": "s",
    "sampler.batch_build_s": "s",
    "sampler.sequential_s": "s",
    "sampler.format_s": "s",
    "sampler.parse_s": "s",
    "sampler.draws_per_s": "1/s",
    "cli.gen_s": "s",
    "cli.sample_s": "s",
    "cli.estimate_s": "s",
    "cli.minors_s": "s",
    "cli.pma_s": "s",
    "cli.verify_s": "s",
    "cli.bytes_written": "B",
    "numerics.det_s": "s",
    "numerics.det_calls": "count",
    "numerics.batched_det_s": "s",
    "trace.overhead_s": "s",
    "trace.absent": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import signed_dpp"], env=env, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout's git metadata, when there is any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))
    return {"git_sha": git_sha(), "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "src_lines": src_lines}


def per_layer(run) -> dict:
    ops = max(run.traced_ops, 1)
    tracer = run.tracer
    out = {name: 0.0 for name in PER_LAYER}
    for layer, seconds in tracer.self_s.items():
        if layer + "_s" in out:
            out[layer + "_s"] = seconds / ops
        if layer + "_calls" in out:
            out[layer + "_calls"] = tracer.calls[layer] / ops
    for name in ("gf2.rows", "gf2.rank", "cli.bytes_written"):
        out[name] = tracer.counts[name] / ops
    rows = tracer.counts["gf2.rows"]
    out["gf2.row_yield"] = tracer.counts["gf2.rank"] / rows if rows else 0.0
    out["pma.skipped_decisions"] = run.skipped / ops
    out["moments.minors_read"] = run.minors_read / ops
    out["pma.recon_dev"] = run.recon_dev
    out["sampler.draws_per_s"] = run.draws / run.draw_s if run.draw_s else 0.0
    out["trace.overhead_s"] = statistics.median(run.overhead_s) if run.overhead_s else 0.0
    out["trace.absent"] = float(len(tracer.absent))
    return out


def run_all(args) -> int:
    """Every workload in its own process; a summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signed_dpp" / "__init__.py").is_file():
        print(f"bench: no signed_dpp package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One processor for the whole run, so that the speed probe times the
    # processor the operations run on (see speed.py).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, str(OUT_DIR))
    setups = []
    for _ in range(SETUPS):
        imported = import_seconds()
        start = time.perf_counter()
        inputs = workload.build(args.seed)
        setups.append(imported + time.perf_counter() - start)
    run = workloads.measure(workload, inputs, args.seconds, bool(args.trace))

    e2e = {
        "setup_s": statistics.median(setups),
        "op_ref": workloads.median(run.op_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solution_dim": statistics.mean(run.first_pass_dims) if run.first_pass_dims else 0.0,
    }
    layers = per_layer(run) if args.trace else {}
    shown, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    metrics = {name: {"value": shown[name], "unit": units[name]} for name in units}

    wall_s = workloads.median(run.op_s)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "passes": run.passes,
              "attempted": run.attempted, "failed": run.failed,
              "correct": not run.errors, "errors": run.errors, "failures": run.failures,
              "op_wall_s": wall_s, "op_s": run.op_s, "op_ref": run.op_ref,
              "setups_s": setups, "end_to_end": e2e, "per_layer": layers,
              "absent": run.tracer.absent if run.tracer else [],
              "process_s": time.perf_counter() - _PROCESS_START}
    path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for message in run.failures:
        print(f"failed operation: {message}", file=sys.stderr)
    for message in run.errors:
        print(f"check failed: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} median operation wall time {wall_s:.4g} s (recorded, not a metric)")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
