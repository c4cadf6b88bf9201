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
kernels solve their own.  One pivot test serves both per-prime Frobenius
kernels: `class_counts` decides a c4 prime by `omega_members`' projection
solver, taken at q = ell.  `class_counts_range` counts the primes of a
range, which it generates itself: on the pure backend at ell = 3 by cubic
reciprocity (`pure.cubic_class_counts`), which reads each prime's
characters from tables and takes no power mod p, and otherwise, as on the
compiled backend, by `class_counts` a segment at a time (at 10^8 in-process
the compiled kernel took 2.44 s on c4 (2,3,5,7) to the walk's 1.81 s, and
1.76 s on split (2,5) to 2.02 s, on a 2-vCPU x86-64 VM).  `factorize` is
the package's one factorizer (every `ratfact` value, p - 1 for a primitive
root, an exact scan's gcd): trial division to 10^4, then Brent's rho with
a fixed step budget per walk, past which it raises
ArithmeticError(message, cofactor, budget).

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


def class_counts_method(ell: int, nums, dens) -> str:
    """How `class_counts_range` decides its primes at these arguments, for a progress line."""
    if _impl is _pure and ell == 3 and _pure.cubic_factors(nums, dens) is not None:
        return "cubic reciprocity"
    return "power residue characters"


def class_counts_range(lo: int, hi: int, ell: int, nums, dens, k: int) -> tuple[int, int, int]:
    """`class_counts` over the primes p ≡ 1 (mod 2·ell) in [lo, hi), generated here.

    For an odd ell these are the primes p ≡ 1 (mod ell).  On the pure
    backend at ell = 3 they are walked by their primary pi and decided by
    cubic reciprocity (`pure.cubic_class_counts`), unless that kernel
    declines the tuple; otherwise each segment of `prime_segments` goes to
    `class_counts`, as on the compiled backend.
    """
    if class_counts_method(ell, nums, dens) == "cubic reciprocity":
        return _pure.cubic_class_counts(lo, hi, nums, dens, k)

    def decide(primes):
        return class_counts(primes, ell, nums, dens, k)

    # decide([]) makes its checks before any prime; map holds no segment
    # past its call, so one segment's primes are freed before the next
    # is struck
    return tuple(map(sum, zip(decide([]), *map(decide, prime_segments(lo, hi, 2 * ell)))))


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
    "class_counts_range",
    "class_counts_method",
    "omega_members",
]
