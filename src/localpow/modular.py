"""Prime lists, primitive roots, discrete logs, and power-residue classes."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from . import kernels
from .errors import (
    CacheLimitError,
    CongruenceClassError,
    DomainError,
    EqualPrimeError,
    NonUnitError,
    NotPrimeError,
    OddPrimeRequiredError,
    WrongLengthError,
)
from .ratfact import as_factored, is_prime


class PrimeCache:
    """Ascending list of all primes up to a limit."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.primes = kernels.sieve(self.limit)

    def up_to(self, x: int) -> list[int]:
        """All cached primes <= x."""
        if x > self.limit:
            raise CacheLimitError(
                f"prime cache covers {self.limit}, need {x}", limit=self.limit, needed=x
            )
        return self.primes[: bisect_right(self.primes, x)]

    def between(self, lo: int, hi: int) -> list[int]:
        """All cached primes in [lo, hi]."""
        if hi > self.limit:
            raise CacheLimitError(
                f"prime cache covers {self.limit}, need {hi}", limit=self.limit, needed=hi
            )
        return self.primes[bisect_left(self.primes, lo) : bisect_right(self.primes, hi)]

    def pi(self, x: int) -> int:
        """Prime counting function from the cache."""
        if x > self.limit:
            raise CacheLimitError(
                f"prime cache covers {self.limit}, need {x}", limit=self.limit, needed=x
            )
        return bisect_right(self.primes, x)

    def __len__(self) -> int:
        return len(self.primes)


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return kernels.primitive_root(p)


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


def ell_power_class(c, ell: int, p: int) -> tuple[int, bool]:
    """z_c = c^((p-1)/ell) mod p and whether c is an ell-th power residue."""
    c = as_factored(c)
    if not is_prime(ell):
        raise NotPrimeError(f"{ell} is not prime")
    if ell == 2:
        raise OddPrimeRequiredError("ell must be an odd prime")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p == ell:
        raise EqualPrimeError(f"p = ell = {p} is excluded", p=p)
    if p % ell != 1:
        raise CongruenceClassError(f"{p} is not 1 mod {ell}", p=p, ell=ell)
    r = c.reduce_mod(p)  # raises NonUnitError when ord_p(c) != 0
    z = pow(r, (p - 1) // ell, p)
    return z, z == 1


def solve_power_congruences(a, b, m: int):
    """Smallest k in [0, m-1] with k*a_i ≡ b_i (mod m) for all i, else None."""
    if len(a) != len(b):
        raise WrongLengthError(f"got {len(a)} coefficients and {len(b)} targets")
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    return kernels.solve_exponent_system([x % m for x in a], [y % m for y in b], m)
