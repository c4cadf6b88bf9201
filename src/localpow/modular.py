"""Prime lists, primitive roots, discrete logs, and power-residue classes."""

from __future__ import annotations

import sys
from math import gcd

from . import kernels
from .errors import (
    CongruenceClassError,
    DomainError,
    EqualPrimeError,
    NonUnitError,
    NotPrimeError,
    OddPrimeRequiredError,
    WrongLengthError,
)
from .ratfact import as_factored, is_prime


def check_table_limit(limit: int) -> None:
    """Reject a sieve or value-table limit beyond what a sequence can index."""
    if limit >= sys.maxsize:
        raise DomainError(
            f"cannot sieve or tabulate that far: limits stop below {sys.maxsize}",
            limit=limit,
        )


class PrimeCache:
    """Ascending list of all primes up to a limit."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        check_table_limit(self.limit)
        self.primes = kernels.sieve(self.limit)


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p == 2:
        return 1
    qs = as_factored(p - 1).support()  # CompositeCofactorError past rho's budget
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
        g += 1
    return g


def discrete_log(g: int, h: int, p: int) -> int:
    """Exponent x in [0, p-2] with g^x ≡ h (mod p)."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if h % p == 0:
        raise NonUnitError(f"{h} is 0 mod {p}", p=p)
    if g % p == 0:
        raise NonUnitError(f"base {g} is 0 mod {p}", p=p)
    try:
        return kernels.discrete_log(g, h, p)
    except ValueError as exc:
        raise DomainError(f"{h} is not a power of {g} mod {p}", p=p) from exc


def require_odd_prime(ell: int) -> None:
    """Reject all but an odd prime ell: NotPrimeError, or OddPrimeRequiredError at 2."""
    if not is_prime(ell):
        raise NotPrimeError(f"{ell} is not prime")
    if ell == 2:
        raise OddPrimeRequiredError("ell must be an odd prime")


def validate_split(p: int, ell: int) -> None:
    """Reject all but an odd prime ell and a prime p ≠ ell with p ≡ 1 (mod ell)."""
    require_odd_prime(ell)
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p == ell:
        raise EqualPrimeError(f"p = ell = {p} is excluded", p=p)
    if p % ell != 1:
        raise CongruenceClassError(f"{p} is not 1 mod {ell}", p=p, ell=ell)


def ell_power_class(c, ell: int, p: int) -> tuple[int, bool]:
    """z_c = c^((p-1)/ell) mod p and whether c is an ell-th power residue."""
    c = as_factored(c)
    validate_split(p, ell)
    r = c.reduce_mod(p)  # raises NonUnitError when ord_p(c) != 0
    z = pow(r, (p - 1) // ell, p)
    return z, z == 1


def solve_power_congruences(a, b, m: int):
    """Smallest k in [0, m-1] with k*a_i ≡ b_i (mod m) for all i, else None."""
    if len(a) != len(b):
        raise WrongLengthError(f"got {len(a)} coefficients and {len(b)} targets")
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    # k ≡ r (mod mod) solves the congruences read so far; the next one says
    # k ≡ r_i (mod m_i), and the two merge by CRT
    r, mod = 0, 1
    for ai, bi in zip(a, b):
        ai, bi = ai % m, bi % m
        g = gcd(ai, m)
        if bi % g:
            return None
        mi = m // g
        ri = bi // g * pow(ai // g, -1, mi) % mi if mi > 1 else 0
        gg = gcd(mod, mi)
        if (ri - r) % gg:
            return None
        lcm = mod // gg * mi
        step = mi // gg
        t = (ri - r) // gg * pow(mod // gg, -1, step) % step if step > 1 else 0
        r = (r + mod * t) % lcm
        mod = lcm
    return r
