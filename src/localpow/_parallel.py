"""Process pool for the per-prime scans.

Primes are split into contiguous chunks and each chunk is handed to a
worker; only integer counters and per-prime rows cross process boundaries,
and results merge in chunk order, so the output is independent of the
worker count.  Float accumulations (heuristic sums, observed densities)
always happen in the parent from the merged integers.  The shift scan
keeps its entry point here but runs in-process, on one value table.

The per-prime loops live in `chebotarev` and `powermap`, and the scans of
both call back into this module.  The modules of each cycle import each
other as modules and look names up at call time, so the cycles resolve in
any import order and a name replaced on a module (as `perfbench/tracing.py`
does) takes effect everywhere.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from . import chebotarev, kernels, powermap


def chunked(seq, n: int):
    """Split into at most n contiguous chunks with sizes differing by <= 1."""
    n = max(1, min(n, len(seq)))
    size, extra = divmod(len(seq), n)
    out = []
    start = 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        if end > start:
            out.append(seq[start:end])
        start = end
    return out


def _run_chunks(fn, primes, workers: int, *rest) -> list:
    """fn((chunk, *rest)) for each contiguous chunk of primes, results in chunk order.

    There are at most as many chunks as cores; one chunk runs in this
    process on the whole list.
    """
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(primes) > 1:
        jobs = [(part, *rest) for part in chunked(primes, workers)]
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            return list(pool.map(fn, jobs))
    return [fn((primes, *rest))]


def _merge_counts(parts):
    return tuple(sum(col) for col in zip(*parts))


def _density_chunk(args):
    primes, ell, nums, dens, mode = args
    return chebotarev.density_counts(primes, ell, nums, dens, mode)


def density_counts_parallel(primes, ell, nums, dens, mode, workers: int = 1):
    """(counted, skipped, hits) over the primes, split across processes."""
    return _merge_counts(_run_chunks(_density_chunk, primes, workers, ell, nums, dens, mode))


def _omega_chunk(args):
    primes, ns, fnums, fdens = args
    return kernels.omega_members(primes, ns, fnums, fdens)


def omega_members_parallel(primes, ns, fnums, fdens, workers: int = 1):
    """(counted, skipped, members) over the primes, split across processes."""
    return _merge_counts(_run_chunks(_omega_chunk, primes, workers, ns, fnums, fdens))


def _sf_chunk(args):
    primes, f_json, mode, bound, domain = args
    f = powermap.MultiplicativeMap.from_json(f_json)
    return powermap.sf_members(f, primes, mode, bound, domain)


def sf_scan_parallel(f_json, primes, mode, bound, domain, workers: int = 1):
    """([(p, k_p) of members], unknown count), chunk results concatenated in order."""
    members = []
    unknown = 0
    for part_members, part_unknown in _run_chunks(
        _sf_chunk, primes, workers, f_json, mode, bound, domain
    ):
        members.extend(part_members)
        unknown += part_unknown
    return members, unknown


def _tf_chunk(args):
    primes, f_json, shift_bound = args
    f = powermap.MultiplicativeMap.from_json(f_json)
    return powermap.tf_members(f, primes, shift_bound)


def tf_scan_parallel(f_json, primes, shift_bound: int, workers: int = 1):
    """Primes passing the shift-periodicity check, in ascending order.

    One chunk in this process, whatever `workers` asks for: the value table
    f(1 .. shift_bound + the largest prime) costs more than the check loop,
    and every worker would build its own.
    """
    return _tf_chunk((primes, f_json, shift_bound))
