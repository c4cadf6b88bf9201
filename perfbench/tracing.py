"""In-process replay of CLI invocations, optionally traced layer by layer.

Run as a child of run.py:

    python3 perfbench/tracing.py --plan PLAN.json --workers N --traced 0|1 --out OUT.json

It replays each planned argv through `localpow.cli.run` in this process and
writes each report and its time to OUT.json.  With --traced 1 it first wraps
the public functions of each layer module (no localpow source changes); each
wrapped call becomes a span with a name, start, end, parent span and
invocation id.  Spans stay in memory and are written once, at the end, next
to OUT.json.  Work inside pool workers is measured only at the `_parallel`
boundary: the pool is swapped for one that times each chunk and counts the
pickled bytes of its arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import pickle
import sys
import time
import traceback
from array import array
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

# Modules inside the kernels layer: calls between their functions are the
# layer's own work, so they are never rewired.
_BACKEND_MODULES = ("localpow.kernels.pure", "localpow.kernels._native")

# Bytes of one int object below 2**30 on 64-bit CPython.
_INT_BYTES = 28


class Recorder:
    """Spans kept in flat arrays, plus per-name self time, total time and counts."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_invocation = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, time covered by child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.imbalance = 1.0
        self.invocation = 0

    def wrap(self, name: str, fn, on_return=None):
        rec = self
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(rec.span_start)
            rec.span_name.append(name_id)
            rec.span_parent.append(rec.stack[-1][0] if rec.stack else -1)
            rec.span_invocation.append(rec.invocation)
            frame = [span, 0.0]
            rec.stack.append(frame)
            rec.span_end.append(0.0)
            start = clock()
            rec.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec.stack.pop()
                rec.span_end[span] = end
                took = end - start
                rec.self_s[name] += took - frame[1]
                rec.total_s[name] += took
                rec.calls[name] += 1
                if rec.stack:
                    rec.stack[-1][1] += took
            if on_return is not None:
                on_return(rec, args, result)
            return result

        return traced

    def write_spans(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            invocation=np.frombuffer(self.span_invocation, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


# ------------------------------------------------------------ layer wrappers


def _count_primes_arg(metric):
    def on_return(rec, args, _result):
        rec.counts[metric] += len(args[0])

    return on_return


def _count_cache(rec, args, _result):
    primes = args[0].primes
    rec.counts["modular.primes"] += len(primes)
    rec.counts["modular.prime_list_bytes"] += sys.getsizeof(primes) + _INT_BYTES * len(primes)


def _count_values(rec, args, _result):
    rec.counts["powermap.values_built_w1"] += args[1]


# (module, attribute, span name, count hook).  Every localpow module that
# imported the same function object by name is rewired too.
TARGETS = (
    ("localpow.modular", "PrimeCache.__init__", "modular.prime_cache", _count_cache),
    ("localpow.kernels", "sieve", "kernels.sieve", None),
    ("localpow.kernels", "count_primes", "kernels.count_primes", None),
    ("localpow.kernels", "z_b_rows", "kernels.z_b_rows", _count_primes_arg("kernels.z_b_rows_primes")),
    ("localpow.kernels", "omega_members", "kernels.omega_members",
     _count_primes_arg("kernels.omega_members_primes")),
    ("localpow.kernels", "factorize", "kernels.factorize", None),
    ("localpow.kernels", "discrete_log", "kernels.discrete_log", None),
    ("localpow.ratfact", "is_prime", "ratfact.is_prime", None),
    ("localpow.ratfact", "as_factored", "ratfact.as_factored", None),
    ("localpow.powermap", "local_exponent", "powermap.local_exponent", None),
    ("localpow.powermap", "_integer_values", "powermap.values", _count_values),
    ("localpow.chebotarev", "density_counts", "chebotarev.density_counts", None),
    ("localpow.chebotarev", "scan_density", "chebotarev.expected", None),
    ("localpow.chebotarev", "heuristic_scan", "chebotarev.heuristic_scan", None),
    ("localpow.bounds", "main_bound", "bounds.main_bound", None),
    ("localpow.bounds", "mertens_product", "bounds.checks", None),
    ("localpow.bounds", "chebyshev_check", "bounds.checks", None),
    ("localpow._parallel", "density_counts_parallel", "parallel", None),
    ("localpow._parallel", "omega_members_parallel", "parallel", None),
    ("localpow._parallel", "sf_scan_parallel", "parallel", None),
    ("localpow._parallel", "tf_scan_parallel", "parallel", None),
    ("localpow.cli", "run", "cli", None),
)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.undo:
            owner, attr, value = self.undo.pop()
            setattr(owner, attr, value)


def _localpow_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if (name == "localpow" or name.startswith("localpow.")) and name not in _BACKEND_MODULES
    ]


def install(rec: Recorder, patches: Patches) -> None:
    for module_name, attr, span, hook in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            patches.set(cls, method, rec.wrap(span, getattr(cls, method), hook))
            continue
        original = getattr(module, attr)
        wrapped = rec.wrap(span, original, hook)
        for mod in _localpow_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    patches.set(mod, name, wrapped)
    TracedPool.recorder = rec
    TracedPool.patches = patches
    patches.set(importlib.import_module("localpow._parallel"), "ProcessPoolExecutor", TracedPool)


# ------------------------------------------------------------ pool boundary

_worker_restored = False


def _timed_chunk(fn_and_job):
    """Run one chunk in a pool worker; returns (seconds, result)."""
    global _worker_restored
    if not _worker_restored:
        # Forked workers inherit the wrappers; chunk work is timed whole.
        TracedPool.patches.restore()
        _worker_restored = True
    fn, job = fn_and_job
    t0 = time.perf_counter()
    out = fn(job)
    return time.perf_counter() - t0, out


class TracedPool(ProcessPoolExecutor):
    """Process pool that times each chunk and counts what it sends."""

    recorder: Recorder | None = None
    patches: Patches | None = None

    def map(self, fn, *iterables, **kwargs):
        (jobs,) = iterables
        jobs = list(jobs)
        rec = self.recorder
        rec.counts["parallel.chunks"] += len(jobs)
        rec.counts["parallel.sent_bytes"] += sum(len(pickle.dumps(job)) for job in jobs)
        if fn.__name__ == "_tf_chunk":
            # each tf chunk job (primes, f_json, shift_bound) tabulates
            # f(1 .. shift_bound + its largest prime)
            rec.counts["powermap.values_built"] += sum(job[2] + job[0][-1] for job in jobs if job[0])
        results = super().map(_timed_chunk, [(fn, job) for job in jobs], **kwargs)
        return self._unwrap(results)

    def _unwrap(self, results):
        times = []
        for took, out in results:
            times.append(took)
            yield out
        if times:
            mean = sum(times) / len(times)
            if mean > 0:
                self.recorder.imbalance = max(self.recorder.imbalance, max(times) / mean)


# ------------------------------------------------------------ replay


def replay(plan, workers: int, traced: bool) -> tuple[dict, Recorder]:
    """Run each planned argv through cli.run: (per-invocation results and totals, spans)."""
    from localpow import cli

    rec = Recorder()
    patches = Patches()
    if traced:
        install(rec, patches)
    run = cli.run
    done = []
    try:
        for i, item in enumerate(plan):
            rec.invocation = i
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = run(list(item["argv"]) + ["--workers", str(workers)])
            except Exception:  # an uncaught error is a failed invocation, as in a subprocess
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - t0
            done.append(
                {"label": item["label"], "exit": code, "stdout": buf.getvalue(), "seconds": seconds}
            )
    finally:
        patches.restore()
    return {
        "invocations": done,
        "self_s": dict(rec.self_s),
        "total_s": dict(rec.total_s),
        "calls": dict(rec.calls),
        "counts": dict(rec.counts),
        "imbalance": rec.imbalance,
        "spans": len(rec.span_start),
    }, rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)
    result, rec = replay(plan, args.workers, bool(args.traced))
    if args.traced:
        rec.write_spans(args.out.removesuffix(".json") + "-spans.npz")
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
