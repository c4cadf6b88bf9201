"""Frobenius classes in Kummer extensions and their empirical densities.

For a prime p ≡ 1 (mod ell) that is unramified for the tuple c, the class
data is the vector z_j = c_j^((p-1)/ell) in the ell-th roots of unity mod p,
encoded as an exponent vector mod ell.  A scan compares the observed
frequency of the proportionality class (the trace every local power map
forces) with the exact count over the relation-constrained vector space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from . import _parallel, kernels
from .errors import (
    ConfigError,
    CongruenceClassError,
    DomainError,
    EmptyTupleError,
    EnumerationBoundError,
    EqualPrimeError,
    NotPrimeError,
    OddPrimeRequiredError,
    RamifiedPrimeError,
    WrongLengthError,
)
from .lattice import build_lattice, kummer_degree, row_space_mod_ell
from .modular import PrimeCache
from .ratfact import as_factored, is_prime

DEFAULT_ENUMERATION_BOUND = 13


@dataclass
class FrobeniusSample:
    """Class data of one split prime: roots of unity and normalized exponents."""

    p: int
    ell: int
    z_vector: tuple[int, ...]
    b_vector: tuple[int, ...]  # projectively normalized (first nonzero -> 1)


@dataclass
class ClassSpec:
    """Which proportionality class to count: full fiber or a subspace of it."""

    ell: int
    k: int  # half-length; vectors have 2k coordinates
    subgroup: object = "full"  # "full" or a basis of the constrained subspace


def cyclotomic_frobenius(p: int, n: int) -> int:
    """Frobenius of p in the n-th cyclotomic field, as a residue mod n."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if n < 3:
        raise DomainError(f"modulus must be >= 3, got {n}")
    if gcd(p, n) != 1:
        raise RamifiedPrimeError(f"{p} divides {n}", p=p, n=n)
    return p % n


def _validate_split(p: int, ell: int) -> None:
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


def _normalize(b: tuple[int, ...], ell: int) -> tuple[int, ...]:
    # scale so the first nonzero coordinate is 1; the zero vector stays zero
    for x in b:
        if x % ell:
            inv = pow(x, -1, ell)
            return tuple(y * inv % ell for y in b)
    return tuple(x % ell for x in b)


def frobenius_vector(p: int, ell: int, c) -> FrobeniusSample:
    """z- and b-vectors of the Frobenius at a split unramified prime."""
    entries = [as_factored(x) for x in c]
    if not entries:
        raise EmptyTupleError("tuple must be nonempty")
    _validate_split(p, ell)
    nums = [x.sign * x.num for x in entries]
    dens = [x.den for x in entries]
    _, zs, bs = kernels.z_b_rows([p], ell, nums, dens)[0]
    if zs is None:
        raise RamifiedPrimeError(
            f"{p} divides a numerator or denominator of the tuple", p=p
        )
    return FrobeniusSample(p, ell, tuple(zs), _normalize(tuple(bs), ell))


def _proportional(vec, k: int, ell: int) -> bool:
    # is the second half a lambda-multiple of the first half mod ell?
    b = [x % ell for x in vec[:k]]
    f = [x % ell for x in vec[k:]]
    lam = None
    for i in range(k):
        if b[i]:
            lam = f[i] * pow(b[i], -1, ell) % ell
            break
    if lam is None:
        return all(x == 0 for x in f)
    return all((f[i] - lam * b[i]) % ell == 0 for i in range(k))


def in_C4(sample, ell: int | None = None) -> bool:
    """Membership of a 4-coordinate vector (b1, b2, f1, f2) in the power-map class."""
    if isinstance(sample, FrobeniusSample):
        vec, ell = sample.b_vector, sample.ell
    else:
        vec = tuple(sample)
        if ell is None:
            raise ConfigError("ell is required for a bare vector")
    if len(vec) != 4:
        raise WrongLengthError(f"need 4 coordinates, got {len(vec)}")
    return _proportional(vec, 2, ell)


def class_ratio(spec: ClassSpec, enumeration_bound: int = DEFAULT_ENUMERATION_BOUND):
    """(size_C, fiber, group, conditional_density) for the proportionality class."""
    ell, k = spec.ell, spec.k
    if not is_prime(ell) or ell == 2:
        raise OddPrimeRequiredError("ell must be an odd prime")
    if spec.subgroup == "full" and k == 2:
        size = ell**3 - ell + 1
        fiber = ell**4
    else:
        if ell > enumeration_bound:
            raise EnumerationBoundError(
                f"ell = {ell} exceeds the enumeration bound {enumeration_bound}",
                ell=ell,
                bound=enumeration_bound,
            )
        if spec.subgroup == "full":
            vectors = product(range(ell), repeat=2 * k)
            fiber = ell ** (2 * k)
            size = sum(1 for v in vectors if _proportional(v, k, ell))
        else:
            basis = [tuple(v) for v in spec.subgroup]
            fiber = ell ** len(basis)
            size = 0
            for coeffs in product(range(ell), repeat=len(basis)):
                v = [0] * (2 * k)
                for coef, bas in zip(coeffs, basis):
                    for i in range(2 * k):
                        v[i] = (v[i] + coef * bas[i]) % ell
                if _proportional(v, k, ell):
                    size += 1
    group = (ell - 1) * fiber
    return size, fiber, group, Fraction(size, fiber)


def density_counts(primes, ell: int, nums, dens, mode: str):
    """(counted, skipped, hits) over a prime list; merges by addition."""
    counted = skipped = hits = 0
    for _, zs, bs in kernels.z_b_rows(primes, ell, nums, dens):
        if zs is None:
            skipped += 1
            continue
        counted += 1
        if mode == "c4":
            if _proportional(bs, len(bs) // 2, ell):
                hits += 1
        elif all(z == 1 for z in zs):
            hits += 1
    return counted, skipped, hits


@dataclass
class DensityScan:
    ell: int
    x: int
    mode: str
    counted: int
    skipped: int
    hits: int
    observed: float
    expected: Fraction
    deviation: float
    dim_v: int
    degree: int


def scan_density(
    ell: int,
    c,
    x: int,
    cache: PrimeCache | None = None,
    mode: str = "c4",
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
    workers: int = 1,
) -> DensityScan:
    """Observed vs expected frequency of a Frobenius event over p ≡ 1 (mod ell).

    mode "c4" counts the proportionality class of 4-tuples (n1, n2, f1, f2);
    mode "split" counts primes where every tuple entry is an ell-th power.
    The inputs are checked and the expected value computed before any prime
    is scanned or, without a cache, sieved; `workers` processes split the
    scan without changing it.
    """
    entries = [as_factored(v) for v in c]
    if not entries:
        raise EmptyTupleError("tuple must be nonempty")
    if mode not in ("c4", "split"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "c4" and len(entries) != 4:
        raise WrongLengthError(f"c4 mode needs a 4-tuple, got {len(entries)}")
    dim_v, degree, d = kummer_degree(entries, ell)
    if mode == "c4":
        lat = build_lattice(entries)
        if d == lat.m:
            cspec = ClassSpec(ell, lat.m // 2, "full")
        else:
            cspec = ClassSpec(
                ell, lat.m // 2, tuple(row_space_mod_ell(lat.matrix, lat.m, ell))
            )
        _, _, _, expected = class_ratio(cspec, enumeration_bound)
    else:
        expected = Fraction(1, ell**d)
    if cache is None:
        cache = PrimeCache(x)
    primes = [p for p in cache.up_to(x) if p % ell == 1]
    nums = [e.sign * e.num for e in entries]
    dens = [e.den for e in entries]
    counted, skipped, hits = _parallel.density_counts_parallel(
        primes, ell, nums, dens, mode, workers
    )
    observed = hits / counted if counted else 0.0
    return DensityScan(
        ell=ell,
        x=x,
        mode=mode,
        counted=counted,
        skipped=skipped,
        hits=hits,
        observed=observed,
        expected=expected,
        deviation=abs(observed - float(expected)),
        dim_v=dim_v,
        degree=degree,
    )


@dataclass
class HeuristicScan:
    x: int
    witnesses: tuple[int, ...]
    counted: int
    skipped: int
    members: int
    heuristic_sum: float


def heuristic_sum(primes) -> float:
    """Sum of 1/(p-1)^2 over the given primes, in ascending order."""
    total = 0.0
    for p in primes:
        total += 1.0 / (p - 1) ** 2
    return total


def heuristic_scan(
    f, witnesses, x: int, cache: PrimeCache | None = None, workers: int = 1
) -> HeuristicScan:
    """Count primes where (f(n_j)) looks like a power of (n_j) mod p.

    The expectation (for witnesses with f(n) outside ±n^Z) is that the count
    stays below the sum of 1/(p-1)^2.  The witnesses are checked before any
    prime is scanned or, without a cache, sieved; `workers` processes split
    the scan without changing it.
    """
    ns = [int(n) for n in witnesses]
    if len(ns) != 3:
        raise WrongLengthError(f"need a triple of witnesses, got {len(ns)}")
    values = [as_factored(f(n)) for n in ns]
    fnums = [v.sign * v.num for v in values]
    fdens = [v.den for v in values]
    if cache is None:
        cache = PrimeCache(x)
    primes = cache.up_to(x)
    total = heuristic_sum(primes)
    counted, skipped, members = _parallel.omega_members_parallel(
        primes, ns, fnums, fdens, workers
    )
    return HeuristicScan(
        x=x,
        witnesses=tuple(ns),
        counted=counted,
        skipped=skipped,
        members=members,
        heuristic_sum=total,
    )
