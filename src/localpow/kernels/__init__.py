"""Prime and scan kernels: compiled fast path with a pure-Python fallback.

The compiled backend is used exactly when its extension module,
`localpow.kernels._native`, imports; it is built from the hand-written C
source `_native.c`, and `pure.py` is its specification.  It exports only the
three kernels the scans spend their time in: `sieve`, `class_counts` and
`omega_members`.  `count_primes`, `prime_segments`, `is_prime`, `factorize`,
`discrete_log` and `z_b_rows` are pure under every backend: the sublinear
prime count beats a compiled sieve count, the segments of one residue class
cost a slice per base prime, `z_b_rows` is left to single primes
(`frobenius_vector`) and to tests, and factorizations and logs run only at
the primes a scan's kernel keeps and in single calls.
"""

from . import pure as _pure

try:
    from . import _native as _impl
except ImportError:
    _impl = _pure

BACKEND = _impl.BACKEND

sieve = _impl.sieve
count_primes = _pure.count_primes
prime_segments = _pure.prime_segments
is_prime = _pure.is_prime
factorize = _pure.factorize
discrete_log = _pure.discrete_log
z_b_rows = _pure.z_b_rows

if _impl is _pure:
    class_counts = _pure.class_counts
    omega_members = _pure.omega_members
else:
    # The compiled kernels work in 64-bit words; anything wider routes to
    # the pure backend so both present one unlimited-precision contract.
    _I64_MAX = 2**63 - 1

    def _fits(values):
        return all(-_I64_MAX <= v <= _I64_MAX for v in values)

    def class_counts(primes, ell, nums, dens, k):
        if (
            len(nums) <= 16
            and max(primes, default=0) <= _I64_MAX
            and _fits(nums)
            and all(0 <= d <= _I64_MAX for d in dens)
        ):
            return _impl.class_counts(primes, ell, nums, dens, k)
        return _pure.class_counts(primes, ell, nums, dens, k)

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
    "prime_segments",
    "is_prime",
    "factorize",
    "discrete_log",
    "z_b_rows",
    "class_counts",
    "omega_members",
]
