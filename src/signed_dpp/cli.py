"""Command-line pipeline: gen, sample, minors, estimate, pma, verify.

Exit codes: 0 success, 1 usage or input-parse failure, 2 domain failure
(inadmissible kernel, unrealizable minors, failed verification, ...).
Output files are written atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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

    p = sub.add_parser("sample",
                       help="draw i.i.d. subsets from a kernel")
    p.add_argument("--kernel", required=True, help="kernel JSON input path")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", choices=("exact", "sequential"), default="exact",
                   help=f"exact enumerates all 2^N subsets (N <= {kernel.ENUMERATION_LIMIT}); "
                        f"sequential walks the items (N <= {sampler.MASK_ITEMS})")
    p.add_argument("--out", required=True, help="samples text output path")

    p = sub.add_parser("minors",
                       help="exact principal minors of a kernel")
    p.add_argument("--kernel", required=True)
    p.add_argument("--max-order", default="all",
                   help='order cap (integer) or "all"')
    p.add_argument("--out", required=True, help="minors JSON output path")

    p = sub.add_parser("estimate",
                       help="estimate principal minors from samples")
    p.add_argument("--samples", required=True, help="samples text input path")
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pma",
                       help="reconstruct a kernel from minors of orders 1..4")
    p.add_argument("--minors", required=True, help="minors JSON input path")
    p.add_argument("--out", required=True, help="kernel JSON output path")
    p.add_argument("--tol", type=float, default=0.0,
                   help="noise floor for sign decisions (each has its own rounding bound); "
                        "for estimated minors match their noise, e.g. 0.005 for 1e5 samples")
    p.add_argument("--solution-set", action="store_true",
                   help="also enumerate every solution into <out>.set.json")

    p = sub.add_parser("verify",
                       help="check a kernel against a minor list")
    p.add_argument("--kernel", required=True)
    p.add_argument("--minors", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it
    unchanged."""
    return build_parser()


def cmd_gen(args) -> int:
    if not 0.0 < args.lam < 0.5:
        return _usage(f"--lambda must lie in (0, 1/2), got {args.lam}")
    if args.n < 1:
        return _usage(f"--n must be positive, got {args.n}")
    k = kernel.generate_admissible(args.n, args.lam, args.seed)
    kernel.write_kernel(args.out, k)
    return 0


def cmd_sample(args) -> int:
    if args.count < 0:
        return _usage(f"--count must be nonnegative, got {args.count}")
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
            return _usage(
                f'--max-order must be an integer or "all", got {args.max_order!r}')
        if not 1 <= order <= k.n:
            return _usage(f"--max-order must lie in 1..{k.n}, got {order}")
    moments.write_minors(args.out, moments.exact_minors(k, order))
    return 0


def cmd_estimate(args) -> int:
    if args.n < 1:
        return _usage(f"--n must be positive, got {args.n}")
    if not 1 <= args.max_order <= 4:
        return _usage(f"--max-order must lie in 1..4, got {args.max_order}")
    batch = sampler.read_samples(args.samples, args.n)
    minors = moments.estimate_required_minors(batch, args.max_order)
    moments.write_minors(args.out, minors)
    return 0


def cmd_pma(args) -> int:
    if not 0 <= args.tol < math.inf:
        return _usage(f"--tol must be finite and >= 0, got {args.tol}")
    minors = moments.read_minors(args.minors)
    sol = pma.solve_pma(minors, sign_tol=args.tol)
    # Above the enumeration cap this raises before any file is written.
    members = pma.describe_solution_set(sol) if args.solution_set else None
    kernel.write_kernel(args.out, sol.kernel)
    kernel.atomic_write(args.out + ".solutions.json",
                         pma.solution_set_json(sol) + "\n")
    if members is not None:
        payload = json.dumps({"kernels": [kernel.kernel_to_dict(m) for m in members]})
        kernel.atomic_write(args.out + ".set.json", payload + "\n")
    return 0


def cmd_verify(args) -> int:
    if not 0 <= args.tol < math.inf:
        return _usage(f"--tol must be finite and >= 0, got {args.tol}")
    k = kernel.read_kernel(args.kernel)
    minors = moments.read_minors(args.minors)
    report = pma.verify(k, minors, args.tol)
    print(report)
    return 0 if report.passed else 2


def _usage(message: str) -> int:
    print(f"signed-dpp: error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Looked up on each call, not bound into the parser that is built
        # once, so a wrapper set on the module's cmd_* attribute is called.
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        # argparse's exits: --help (0) and usage errors (1)
        return int(exc.code) if isinstance(exc.code, int) else 1
    except (FormatError, OSError) as exc:
        print(f"signed-dpp: error: {exc}", file=sys.stderr)
        return 1
    except SignedDppError as exc:
        print(f"signed-dpp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
