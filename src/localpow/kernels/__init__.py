"""Prime and scan kernels: compiled fast path with a pure-Python fallback.

The compiled backend is used exactly when its extension module,
`localpow.kernels._native`, imports; it is built from the hand-written C
source `_native.c`, and `pure.py` is its specification.  It exports only the
three kernels the scans spend their time in: `sieve`, `class_counts` and
`omega_members`.  It works in 64-bit words and raises `OverflowError` on any
argument it cannot hold; such a call is rerun on pure, so both backends
present one unlimited-precision contract.  `count_primes`, `prime_segments`,
`is_prime`, `factorize`, `discrete_log` and `z_b_rows` are pure under every
backend: the sublinear prime count beats a compiled sieve count, the
segments of one residue class cost a slice per base prime, `z_b_rows` is
left to single primes (`frobenius_vector`) and to tests, taking its logs in
about sqrt(ell) steps by the solver `omega_members` uses for one prime
order, and factorizations and logs run per value, not per prime: the scans'
kernels solve their own.  One pivot test serves both Frobenius scans:
`class_counts` decides a c4 prime by `omega_members`' projection solver,
taken at q = ell.  `factorize` is the package's one factorizer
(every `ratfact` value, p - 1 for a primitive root, an exact scan's gcd):
trial division to 10^4, then Brent's rho with a fixed step budget per
walk, past which it raises ArithmeticError(message, cofactor, budget).

`class_counts` and `omega_members` check none of their primes: every p
must be prime, and for `class_counts` p ≡ 1 (mod ell).  A composite p, or
one off that class, gets an unspecified result, which may differ by
backend.
"""

import functools

from . import pure as _pure

try:
    from . import _native as _impl
except ImportError:
    _impl = _pure

BACKEND = _impl.BACKEND


def _compiled(name):
    """The backend's kernel `name`, rerun on pure where it raises OverflowError."""
    native_fn, pure_fn = getattr(_impl, name), getattr(_pure, name)
    if native_fn is pure_fn:
        return pure_fn

    @functools.wraps(pure_fn)
    def kernel(*args):
        try:
            return native_fn(*args)
        except OverflowError:
            pass  # an argument the compiled kernel's 64-bit words cannot hold
        return pure_fn(*args)

    return kernel


sieve = _compiled("sieve")
class_counts = _compiled("class_counts")
omega_members = _compiled("omega_members")
count_primes = _pure.count_primes
prime_segments = _pure.prime_segments
is_prime = _pure.is_prime
factorize = _pure.factorize
discrete_log = _pure.discrete_log
z_b_rows = _pure.z_b_rows

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
