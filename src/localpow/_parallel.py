"""Process pool for the per-prime scans.

A scan's primes, or for the density scan the range of numbers it draws
its primes from, are split into contiguous chunks and each chunk is handed
to a worker; a density worker generates the primes of its own range.  A
heuristic chunk gets the witness rows, factored too for the prefilter, and
only an empirical sf-scan chunk gets f, pickled as itself.  Results merge
in chunk order, so the output is independent of the worker count; floats
(heuristic sums, observed densities) are summed in the parent from the
merged integers.  An exact sf-scan and the shift scan run in this process.

The per-prime loops live in `chebotarev` and `powermap`, and the scans of
both call back into this module.  This module and `powermap` import each
other as modules and look names up at call time, so the cycle resolves in
any import order and a name replaced on a module (as `perfbench/tracing.py`
does) takes effect everywhere.  `chebotarev` is imported inside
`_density_chunk` only, so an sf-scan or tf-scan never loads it, nor the
`lattice` module it imports.

A scan fans out only where the work pays for the pool: `_run_chunks`
cuts at most one chunk per `FAN_OUT_SPAN` of the largest number the scan
covers (x for a density range, the last prime for a prime list), and never
more chunks than workers or cores.  A scan that gets one chunk runs in this
process, whatever `workers` asks for.

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


def chunked(seq, n: int):
    """Split a nonempty seq into at most n contiguous chunks, sizes differing by <= 1."""
    n = min(n, len(seq))
    size, extra = divmod(len(seq), n)
    ends = [i * size + min(i, extra) for i in range(n + 1)]
    return [seq[a:b] for a, b in zip(ends, ends[1:])]


def _run_chunks(fn, seq, workers: int, *rest) -> list:
    """fn((chunk, *rest)) for each contiguous chunk of seq, results in chunk order.

    seq ascends.  There are at most as many chunks as workers, as cores, and
    as whole `FAN_OUT_SPAN`s in seq[-1]; one chunk runs in this process on
    the whole of seq.
    """
    chunks = 1
    if len(seq) > 1:
        chunks = min(workers, os.cpu_count() or 1, seq[-1] // FAN_OUT_SPAN)
    if chunks > 1:
        jobs = [(chunk, *rest) for chunk in chunked(seq, chunks)]
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=len(jobs)) as pool:
            return list(pool.map(fn, jobs))
    return [fn((seq, *rest))]


def _merge_counts(parts):
    return tuple(sum(col) for col in zip(*parts))


def _density_chunk(args):
    from . import chebotarev

    numbers, ell, nums, dens, mode = args
    # p ≡ 1 (mod ell) is p ≡ 1 (mod 2·ell) for every odd p, and 2 is never 1 mod ell
    segments = kernels.prime_segments(numbers.start, numbers.stop, 2 * ell)
    counts = [chebotarev.density_counts(primes, ell, nums, dens, mode) for primes in segments]
    return _merge_counts([(0, 0, 0), *counts])


def density_counts_parallel(numbers, ell, nums, dens, mode, workers: int = 1):
    """(counted, skipped, hits) over the primes p ≡ 1 (mod ell) in a range, across processes.

    Each worker generates the primes of its chunk of the range itself.
    """
    return _merge_counts(
        _run_chunks(_density_chunk, numbers, workers, ell, nums, dens, mode)
    )


def _omega_chunk(args):
    counted, skipped, settled, members = powermap.power_members(*args)
    return counted, skipped, settled, len(members)


def omega_members_parallel(primes, rows, witnesses, values, workers: int = 1):
    """`powermap.power_members` across processes, with its members counted."""
    return _merge_counts(
        _run_chunks(_omega_chunk, primes, workers, rows, witnesses, values)
    )


def _sf_chunk(args):
    primes, f, mode, bound, domain = args
    return powermap.sf_members(f, primes, mode, bound, domain)


def sf_scan_parallel(f, primes, mode, bound, domain, workers: int = 1):
    """([(p, k_p) of members], unknown count), chunk results concatenated in order.

    Only an empirical scan fans out: an exact verdict costs less than
    sending its prime to a worker.
    """
    members = []
    unknown = 0
    workers = workers if mode == "empirical" else 1
    for part_members, part_unknown in _run_chunks(
        _sf_chunk, primes, workers, f, mode, bound, domain
    ):
        members.extend(part_members)
        unknown += part_unknown
    return members, unknown


def tf_scan_parallel(f, primes, shift_bound: int):
    """Primes passing the shift-periodicity check, in ascending order, in this process.

    Each worker would build its own value table, which costs more than the
    check loop.  The name stays because `perfbench/tracing.py` wraps it.
    """
    return powermap.tf_members(f, primes, shift_bound)
