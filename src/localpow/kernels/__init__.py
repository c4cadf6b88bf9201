"""Prime and scan kernels: compiled fast path with a pure-Python fallback.

Both backends implement the same functions with identical outputs; the
compiled one is picked when its extension module imported cleanly.  Set
LOCALPOW_PURE=1 to force the fallback.  `count_primes` is pure under every
backend: its sublinear sum beats the compiled sieve count.
"""

import os

from . import pure as _pure

if os.environ.get("LOCALPOW_PURE") == "1":
    _impl = _pure
else:
    try:
        from . import _native as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

BACKEND = _impl.BACKEND

sieve = _impl.sieve
count_primes = _pure.count_primes

if _impl is _pure:
    is_prime = _pure.is_prime
    factorize = _pure.factorize
    primitive_root = _pure.primitive_root
    discrete_log = _pure.discrete_log
    solve_exponent_system = _pure.solve_exponent_system
    z_b_rows = _pure.z_b_rows
    omega_members = _pure.omega_members
else:
    # The compiled kernels work in 64-bit words; anything wider routes to
    # the pure backend so both present one unlimited-precision contract.
    _I64_MAX = 2**63 - 1

    def _fits(values):
        return all(-_I64_MAX <= v <= _I64_MAX for v in values)

    def is_prime(n):
        if n <= _I64_MAX:
            return _impl.is_prime(n)
        return _pure.is_prime(n)

    def factorize(n):
        if n <= _I64_MAX:
            return _impl.factorize(n)
        return _pure.factorize(n)

    def primitive_root(p):
        if p <= _I64_MAX:
            return _impl.primitive_root(p)
        return _pure.primitive_root(p)

    def discrete_log(g, h, p):
        if p <= _I64_MAX:
            return _impl.discrete_log(g, h, p)
        return _pure.discrete_log(g, h, p)

    def solve_exponent_system(a, b, m):
        if len(a) <= 64 and m <= _I64_MAX:
            return _impl.solve_exponent_system(a, b, m)
        return _pure.solve_exponent_system(a, b, m)

    def z_b_rows(primes, ell, nums, dens):
        if (
            len(nums) <= 16
            and max(primes, default=0) <= _I64_MAX
            and _fits(nums)
            and _fits(dens)
        ):
            return _impl.z_b_rows(primes, ell, nums, dens)
        return _pure.z_b_rows(primes, ell, nums, dens)

    def omega_members(primes, ns, fnums, fdens):
        # the compiled kernel reads the witnesses as unsigned words
        if (
            len(ns) <= 16
            and max(primes, default=0) <= _I64_MAX
            and all(0 <= n <= _I64_MAX for n in ns)
            and _fits(fnums)
            and _fits(fdens)
        ):
            return _impl.omega_members(primes, ns, fnums, fdens)
        return _pure.omega_members(primes, ns, fnums, fdens)

__all__ = [
    "BACKEND",
    "sieve",
    "count_primes",
    "is_prime",
    "factorize",
    "primitive_root",
    "discrete_log",
    "solve_exponent_system",
    "z_b_rows",
    "omega_members",
]
