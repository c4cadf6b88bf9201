"""Process pool for the per-prime scans.

A scan that tests each prime up to x splits the range 2..x into
contiguous chunks, one per worker.  A chunk builds its scan's decider
once (density arguments, witness rows with their character tables,
sf-scan verdicts, whose f is pickled as itself, or tf-scan's keys) and
applies it to its part of the range.  The density decider hands that part
to `chebotarev.density_counts`, whose kernel generates its own primes
(`kernels.class_counts_range`); the other three generate every prime one
segment at a time and decide each segment (`_per_segment`).  Results
merge in range order, so the output is independent of the worker count;
the heuristic's float terms add up exactly, as ints.  An exact sf-scan
runs in this process.

The per-prime loops live in `chebotarev` and `powermap`, and the scans of
both call back into this module.  This module and `powermap` import each
other as modules and look names up at call time, so the cycle resolves in
any import order and a name replaced on a module (as `perfbench/tracing.py`
does) takes effect everywhere.  `chebotarev` is imported inside
`_density_decider` only, so an sf-scan or tf-scan never loads it, nor the
`lattice` module it imports.

A scan fans out only where the work pays for the pool: `_run_chunks`
cuts at most one chunk per `FAN_OUT_SPAN` of x, and never more chunks
than workers or cores.  A scan that gets one chunk runs in this process,
whatever `workers` asks for.

The pool class loads only when a scan fans out: `ProcessPoolExecutor` is a
module attribute that the module `__getattr__` (PEP 562) imports on first
use, as `concurrent.futures` does for its own pool classes, and
`_run_chunks` reads it from the module, so a class set on the module in its
place is the one that runs.  A one-process run never imports
`concurrent.futures.process` or `multiprocessing`.
"""

from __future__ import annotations

import os
import sys
from functools import reduce
from operator import iadd

from . import kernels, powermap

# Numbers a scan must cover per chunk before it fans out.  On a 2-core
# x86-64 VM (pure kernels, two runs of the table in CHANGES.md) --workers 2
# lost 5–45 ms against --workers 1 on the empirical sf-scan, heuristic and
# density c4 scans at x <= 3·10^5, came out between -17 and +32 ms at
# 5·10^5 and gained 31–156 ms at 10^6: below about 5·10^5, starting the
# pool and pickling its jobs cost more than the second core saves.
FAN_OUT_SPAN = 2**18


def __getattr__(name: str):
    # the stdlib pool class, imported the first time it is asked for
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run_chunks(fn, numbers: range, workers: int, *rest) -> list:
    """fn((chunk, *rest)) for each contiguous chunk of a range, results in chunk order.

    There are at most as many chunks as workers, as cores, and as whole
    `FAN_OUT_SPAN`s in the range's last number, their lengths differing by
    at most 1; one chunk runs in this process on the whole range.
    """
    chunks = 1
    if len(numbers) > 1:
        chunks = min(workers, os.cpu_count() or 1, (numbers.stop - 1) // FAN_OUT_SPAN)
    if chunks > 1:
        size, extra = divmod(len(numbers), chunks)
        ends = [i * size + min(i, extra) for i in range(chunks + 1)]
        jobs = [(numbers[a:b], *rest) for a, b in zip(ends, ends[1:])]
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=len(jobs)) as pool:
            return list(pool.map(fn, jobs))
    return [fn((numbers, *rest))]


def _merge(parts) -> list:
    # field by field, in order: counts add up, member lists concatenate
    return [reduce(iadd, column) for column in zip(*parts)]


def _per_segment(decide):
    # a range's result from decide(primes) on [2] and each segment of its odd
    # primes, in order, with decide([]) the scan's empty result
    def run(numbers):
        two = [[2]] if numbers.start <= 2 < numbers.stop else []
        odd = kernels.prime_segments(numbers.start, numbers.stop, 2)
        return _merge([decide([]), *map(decide, two), *map(decide, odd)])

    return run


def _chunk(job):
    numbers, decider, args = job
    return decider(*args)(numbers)  # the decider is built once per chunk


def _scan(numbers, workers, decider, *args) -> tuple:
    # decider(*args) applied to the range, cut into chunks across processes
    return tuple(_merge(_run_chunks(_chunk, numbers, workers, decider, args)))


def _density_decider(ell, nums, dens, mode):
    from . import chebotarev

    return lambda numbers: chebotarev.density_counts(numbers, ell, nums, dens, mode)


def density_counts_parallel(numbers, ell, nums, dens, mode, workers: int = 1):
    """(counted, skipped, hits) over the primes p ≡ 1 (mod ell) in a range, across processes."""
    return _scan(numbers, workers, _density_decider, ell, nums, dens, mode)


# Every float 1.0/(p - 1)**2 at a prime p < 2^63 is a whole multiple of
# 2^-HEURISTIC_BITS, so 2^HEURISTIC_BITS times it is an exact int
HEURISTIC_BITS = 178


def _omega_decider(rows, witnesses, values):
    characters = None if witnesses is None else powermap._character_tables(witnesses, values)
    scale = 2.0**HEURISTIC_BITS

    def decide(primes):
        counted, skipped, settled, members = powermap.power_members(primes, rows, characters)
        scaled = sum([int(scale / (p - 1) ** 2) for p in primes])
        return counted, skipped, settled, len(members), scaled

    return _per_segment(decide)


def omega_members_parallel(numbers, rows, witnesses, values, workers: int = 1):
    """(counted, skipped, settled, members, 2^HEURISTIC_BITS·Σ 1/(p-1)^2) over a range's primes."""
    return _scan(numbers, workers, _omega_decider, rows, witnesses, values)


def _sf_decider(f, mode, bound, domain):
    return _per_segment(powermap._verdicts(f, mode, bound, domain))


def sf_scan_parallel(f, numbers, mode, bound, domain, workers: int = 1):
    """([(p, k_p) of members], unknown count) over a range's primes, in order."""
    workers = workers if mode == "empirical" else 1  # an exact verdict costs less than IPC
    return _scan(numbers, workers, _sf_decider, f, mode, bound, domain)


def _tf_decider(keys, d, bound):
    return _per_segment(lambda primes: (powermap.tf_members(primes, keys, d, bound),))


def tf_scan_parallel(numbers, keys, d: int, shift_bound: int, workers: int = 1):
    """The primes of a range passing the shift check of f's keys and exponent d, in order."""
    (members,) = _scan(numbers, workers, _tf_decider, keys, d, shift_bound)
    return members
