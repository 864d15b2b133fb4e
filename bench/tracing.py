"""Per-layer tracing from outside the program.

While a Tracer is active, each traced public function is replaced, by
module attribute, with a timing wrapper; every alias of it in the
package's modules is replaced too, so calls through ``from x import f``
names are seen.  Leaving the block puts the originals back.  A name
missing from the code under test is reported as absent, not as an
error, so the tracer keeps working when a later version drops a
function.

Self time is a call's duration minus the duration of the traced calls
nested in it on the same thread.  Calls made in worker threads have no
parent there, so their time is counted both in their own layer and in
the enclosing call of the thread that waits for them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "signed_dpp"


def _gf2_counts(tracer, args, result):
    rows = getattr(args[0], "rows", None) if args else None
    if rows is not None:
        tracer.counts["gf2.rows"] += len(rows)
    rank = getattr(result, "rank", None)
    if rank is not None:
        tracer.counts["gf2.rank"] += int(rank)


def _write_counts(tracer, args, result):
    if len(args) > 1 and isinstance(args[1], str):
        tracer.counts["cli.bytes_written"] += len(args[1].encode("utf-8"))


# (layer, module, attribute path, optional hook on (tracer, args, result))
TARGETS = [
    ("pma.skeleton", "pma", "recover_skeleton", None),
    ("pma.genericity", "pma", "check_genericity", None),
    ("pma.extract_pi", "pma", "extract_pi", None),
    ("pma.four_cycle", "pma", "disambiguate_four_cycles", None),
    ("pma.sign_system", "pma", "build_sign_system", None),
    ("pma.solve_self", "pma", "solve_pma", None),
    ("pma.verify", "pma", "verify", None),
    ("gf2.solve", "gf2", "gf2_solve", _gf2_counts),
    ("graph.as_cycle", "graph", "as_cycle", None),
    ("rng.substream", "rng", "stream", None),
    ("rng.substream", "rng", "Substreams.generator", None),
    ("kernel.generate", "kernel", "generate_admissible", None),
    ("kernel.enumerate_pmf", "kernel", "enumerate_pmf", None),
    ("kernel.atomic_write", "kernel", "atomic_write", _write_counts),
    ("sampler.enumerate", "sampler", "sample_enumerate", None),
    ("sampler.batch_build", "sampler", "SampleBatch.__post_init__", None),
    ("sampler.sequential", "sampler", "sample_sequential_batch", None),
    ("sampler.format", "sampler", "format_samples", None),
    ("sampler.parse", "sampler", "parse_samples", None),
    ("moments.estimate", "moments", "estimate_required_minors", None),
    ("moments.exact_minors", "moments", "exact_minors", None),
    ("numerics.det", "numerics", "det", None),
    ("numerics.batched_det", "numerics", "batched_det", None),
    ("cli.gen", "cli", "cmd_gen", None),
    ("cli.sample", "cli", "cmd_sample", None),
    ("cli.estimate", "cli", "cmd_estimate", None),
    ("cli.minors", "cli", "cmd_minors", None),
    ("cli.pma", "cli", "cmd_pma", None),
    ("cli.verify", "cli", "cmd_verify", None),
]


class Tracer:
    """Call counts, self time and hook counts per layer, while active."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += took
                with tracer._lock:
                    tracer.calls[layer] += 1
                    tracer.self_s[layer] += took - nested
            if hook is not None:
                with tracer._lock:
                    hook(tracer, args, result)
            return result

        return wrapper

    def _patch(self, owner, name, new):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        self.absent = []
        for layer, module, path, hook in self.targets:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.absent.append(f"{module}.{path}")
                continue
            *parents, name = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(name) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module}.{path}")
                continue
            wrapped = self._wrap(layer, original, hook)
            if parents:
                self._patch(owner, name, wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        return False
