"""Command-line pipeline: gen, sample, minors, estimate, pma, verify.

Exit codes: 0 success, 1 usage or input-parse failure, 2 domain failure
(inadmissible kernel, unrealizable minors, failed verification, ...).
Output files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import kernel, moments, pma, sampler
from .errors import FormatError, SignedDppError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="signed-dpp",
                     description="Signed determinantal point processes: "
                                 "generate, sample, estimate, reconstruct.")
    sub = parser.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    p = sub.add_parser("gen",
                       help="generate a random dense admissible kernel")
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="diagonal margin in (0, 1/2)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="kernel JSON output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sample",
                       help="draw i.i.d. subsets from a kernel")
    p.add_argument("--kernel", required=True, help="kernel JSON input path")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", choices=("exact", "sequential"), default="exact")
    p.add_argument("--out", required=True, help="samples text output path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("minors",
                       help="exact principal minors of a kernel")
    p.add_argument("--kernel", required=True)
    p.add_argument("--max-order", default="all",
                   help='order cap (integer) or "all"')
    p.add_argument("--out", required=True, help="minors JSON output path")
    p.set_defaults(func=cmd_minors)

    p = sub.add_parser("estimate",
                       help="estimate principal minors from samples")
    p.add_argument("--samples", required=True, help="samples text input path")
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("pma",
                       help="reconstruct a kernel from minors of orders 1..4")
    p.add_argument("--minors", required=True, help="minors JSON input path")
    p.add_argument("--out", required=True, help="kernel JSON output path")
    p.add_argument("--tol", type=float, default=pma.SIGN_TOL,
                   help="sign-decision tolerance (use the estimator "
                        "tolerance, e.g. 0.01, for noisy minors)")
    p.add_argument("--solution-set", action="store_true",
                   help="also enumerate every solution into <out>.set.json")
    p.set_defaults(func=cmd_pma)

    p = sub.add_parser("verify",
                       help="check a kernel against a minor list")
    p.add_argument("--kernel", required=True)
    p.add_argument("--minors", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)
    return parser


def cmd_gen(args) -> int:
    if not 0.0 < args.lam < 0.5:
        raise SystemExit(_usage(f"--lambda must lie in (0, 1/2), got {args.lam}"))
    if args.n < 1:
        raise SystemExit(_usage(f"--n must be positive, got {args.n}"))
    k = kernel.generate_admissible(args.n, args.lam, args.seed)
    kernel.write_kernel(args.out, k)
    return 0


def cmd_sample(args) -> int:
    if args.count < 0:
        raise SystemExit(_usage(f"--count must be nonnegative, got {args.count}"))
    k = kernel.read_kernel(args.kernel)
    if args.method == "exact":
        batch = sampler.sample_enumerate(k, args.count, args.seed)
    else:
        batch = sampler.sample_sequential_batch(k, args.count, args.seed)
    sampler.write_samples(args.out, batch)
    return 0


def cmd_minors(args) -> int:
    k = kernel.read_kernel(args.kernel)
    if args.max_order == "all":
        order: int | str = "all"
    else:
        try:
            order = int(args.max_order)
        except ValueError:
            raise SystemExit(_usage(
                f'--max-order must be an integer or "all", got {args.max_order!r}'))
    moments.write_minors(args.out, moments.exact_minors(k, order))
    return 0


def cmd_estimate(args) -> int:
    batch = sampler.read_samples(args.samples, args.n)
    minors = moments.estimate_required_minors(batch, args.max_order)
    moments.write_minors(args.out, minors)
    return 0


def cmd_pma(args) -> int:
    minors = moments.read_minors(args.minors)
    sol = pma.solve_pma(minors, sign_tol=args.tol)
    kernel.write_kernel(args.out, sol.kernel)
    kernel.atomic_write(args.out + ".solutions.json",
                         pma.solution_set_json(sol) + "\n")
    if args.solution_set:
        payload = json.dumps({"kernels": [kernel.kernel_to_dict(m)
                                          for m in pma.describe_solution_set(sol)]})
        kernel.atomic_write(args.out + ".set.json", payload + "\n")
    return 0


def cmd_verify(args) -> int:
    k = kernel.read_kernel(args.kernel)
    minors = moments.read_minors(args.minors)
    report = pma.verify(k, minors, args.tol)
    print(report)
    return 0 if report.passed else 2


def _usage(message: str) -> int:
    print(f"signed-dpp: error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 1
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 1
    except FormatError as exc:
        print(f"signed-dpp: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"signed-dpp: error: {exc}", file=sys.stderr)
        return 1
    except SignedDppError as exc:
        print(f"signed-dpp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
