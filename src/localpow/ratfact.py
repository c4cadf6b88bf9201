"""Exact arithmetic on nonzero rationals kept in fully factored form.

A value is a sign together with a finite prime -> nonzero-exponent table, so
prime valuations, numerators/denominators, and unit residues mod p are all
read off directly.  0 is unrepresentable on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import (
    CompositeCofactorError,
    ExactRangeError,
    NonUnitError,
    NotPrimeError,
    ZeroValueError,
)
from .kernels import is_prime

DEFAULT_TRIAL_BOUND = 10**6

# num and den are built as integers only below 2^MAX_VALUE_BITS: a value such
# as 2^(2^64) would exhaust memory long before its product was done.
MAX_VALUE_BITS = 2**20


def _factor_abs(n: int) -> dict[int, int]:
    # Trial division up to DEFAULT_TRIAL_BOUND; a surviving cofactor must
    # itself be prime or the input is rejected (no silent heavy factoring).
    exps: dict[int, int] = {}
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            exps[p] = e
    i = 5
    top = min(DEFAULT_TRIAL_BOUND, isqrt(n))
    while i <= top:
        for q in (i, i + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                exps[q] = e
        i += 6
        top = min(DEFAULT_TRIAL_BOUND, isqrt(n))
    if n > 1:
        # Cofactor exceeds every trial divisor.  Once the trial passed its
        # square root it is prime; otherwise Miller-Rabin decides.
        if i * i <= n and not is_prime(n):
            raise CompositeCofactorError(
                f"cofactor {n} is composite and exceeds the trial bound "
                f"{DEFAULT_TRIAL_BOUND}",
                cofactor=n,
                bound=DEFAULT_TRIAL_BOUND,
            )
        exps[n] = exps.get(n, 0) + 1
    return exps


class FactoredRational:
    """sign * prod p^e with prime keys and nonzero integer exponents."""

    __slots__ = ("sign", "_exp")

    def __init__(self, sign: int = 1, exponents: dict[int, int] | None = None):
        if sign not in (1, -1):
            raise ZeroValueError(f"sign must be +1 or -1, got {sign}")
        exp = dict(exponents or {})
        for q, e in exp.items():
            if e == 0:
                raise ZeroValueError(f"exponent of {q} must be nonzero")
            if not is_prime(q):
                raise NotPrimeError(f"{q} is not prime")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "_exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("FactoredRational is immutable")

    @classmethod
    def _raw(cls, sign: int, exp: dict[int, int]) -> "FactoredRational":
        # Internal constructor for already-validated prime keys.
        self = object.__new__(cls)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "_exp", exp)
        return self

    def __reduce__(self):
        # unpickled through _raw: the keys are neither re-checked nor re-factored
        return FactoredRational._raw, (self.sign, self._exp)

    @classmethod
    def factor(cls, numerator: int, denominator: int = 1) -> "FactoredRational":
        if numerator == 0 or denominator == 0:
            raise ZeroValueError("0 has no factored form")
        sign = -1 if (numerator < 0) != (denominator < 0) else 1
        a, b = abs(numerator), abs(denominator)
        g = gcd(a, b)
        a //= g
        b //= g
        exp = _factor_abs(a)
        for q, e in _factor_abs(b).items():
            exp[q] = -e  # a and b are coprime, so no key collides
        return cls._raw(sign, exp)

    # -- queries ----------------------------------------------------------

    @property
    def exponents(self) -> dict[int, int]:
        return dict(self._exp)

    def support(self) -> list[int]:
        return sorted(self._exp)

    def ord(self, p: int) -> int:
        """Exponent of p in the factorization (0 if absent)."""
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        return self._exp.get(p, 0)

    def _part(self, side: int) -> int:
        # numerator (side 1) or denominator (side -1) as an integer
        out = 1
        bits = 0  # a lower bound on log2(out)
        for q, e in self._exp.items():
            e *= side
            if e > 0:
                bits += (q.bit_length() - 1) * e
                if bits >= MAX_VALUE_BITS:
                    raise ExactRangeError(
                        f"{self} is at least 2^{bits}; exact values stop "
                        f"below about 2^{MAX_VALUE_BITS}",
                        limit=MAX_VALUE_BITS,
                    )
                out *= q**e
        return out

    @property
    def num(self) -> int:
        return self._part(1)

    @property
    def den(self) -> int:
        return self._part(-1)

    def value(self) -> Fraction:
        return Fraction(self.sign * self.num, self.den)

    def is_unit(self) -> bool:
        """True when the value is +1 or -1."""
        return not self._exp

    def reduce_mod(self, p: int) -> int:
        """Unit residue of the value mod p (denominator inverted mod p)."""
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if self._exp.get(p, 0) != 0:
            raise NonUnitError(
                f"not a p-adic unit: ord_{p} = {self._exp[p]}", p=p, ord=self._exp[p]
            )
        r = self.sign % p
        for q, e in self._exp.items():
            r = r * pow(q, e, p) % p
        return r

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        if not isinstance(other, FactoredRational):
            return NotImplemented
        exp = dict(self._exp)
        for q, e in other._exp.items():
            s = exp.get(q, 0) + e
            if s:
                exp[q] = s
            else:
                exp.pop(q, None)
        return FactoredRational._raw(self.sign * other.sign, exp)

    def __pow__(self, k: int) -> "FactoredRational":
        if k == 0:
            return FactoredRational._raw(1, {})
        sign = self.sign if k % 2 else 1
        return FactoredRational._raw(sign, {q: e * k for q, e in self._exp.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FactoredRational)
            and self.sign == other.sign
            and self._exp == other._exp
        )

    def __hash__(self):
        return hash((self.sign, frozenset(self._exp.items())))

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        if not self._exp:
            return "1" if self.sign > 0 else "-1"
        parts = [f"{q}^{e}" if e != 1 else str(q) for q, e in sorted(self._exp.items())]
        body = "*".join(parts)
        return body if self.sign > 0 else "-" + body

    def __repr__(self) -> str:
        return f"FactoredRational({self.sign}, {dict(sorted(self._exp.items()))})"


ONE = FactoredRational._raw(1, {})


def as_factored(x) -> FactoredRational:
    """Coerce an int, Fraction, 'a/b' string, or FactoredRational."""
    if isinstance(x, FactoredRational):
        return x
    if isinstance(x, int):
        return FactoredRational.factor(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return FactoredRational.factor(x.numerator, x.denominator)
    raise TypeError(f"cannot interpret {x!r} as a factored rational")
