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
from math import gcd, lcm, prod

from . import _parallel, kernels, powermap
from .errors import (
    ConfigError,
    DomainError,
    EmptyTupleError,
    EnumerationBoundError,
    NotPrimeError,
    OddPrimeRequiredError,
    RamifiedPrimeError,
    WrongLengthError,
)
from .lattice import build_lattice, kummer_degree, row_space_mod_ell
from .modular import PrimeCache, validate_split
from .ratfact import as_factored, is_prime

DEFAULT_ENUMERATION_BOUND = 13

# heuristic_scan's prefilter leaves out an equation whose table of quadratic
# characters would have more entries than this
MAX_CHARACTER_MODULUS = 2**20


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
    validate_split(p, ell)
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
    mode: str = "c4",
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
    workers: int = 1,
) -> DensityScan:
    """Observed vs expected frequency of a Frobenius event over p ≡ 1 (mod ell).

    mode "c4" counts the proportionality class of 4-tuples (n1, n2, f1, f2);
    mode "split" counts primes where every tuple entry is an ell-th power.
    The inputs are checked and the expected value computed before any prime
    is sieved; `workers` processes split the scan without changing it.
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
    primes = [p for p in PrimeCache(x).primes if p % ell == 1]
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
    settled: int = 0  # counted primes the quadratic characters rule out


def heuristic_sum(primes) -> float:
    """Sum of 1/(p-1)^2 over the given primes, in ascending order."""
    total = 0.0
    for p in primes:
        total += 1.0 / (p - 1) ** 2
    return total


def _character_bits(v, m: int) -> int:
    """The quadratic character of the value v at the odd primes p, by p mod m.

    Byte r of the result, as m little-endian bytes, is 1 where (v/p) = -1
    for the primes p ≡ r (mod m) that do not divide v; m is a multiple of
    4·|squarefree part of v|.  By reciprocity (v/p) is a product of (-1/p),
    (2/p) and (p/q) over the odd q of odd exponent, periodic mod 4, 8 and q;
    the sign flips once more for each such q ≡ 3 (mod 4).
    """
    patterns = []
    minus = v.sign < 0
    for q, e in v.exponents.items():
        if e % 2 == 0:
            continue
        if q == 2:
            patterns.append(b"\0\0\0\1\0\1\0\0")
            continue
        minus ^= q % 4 == 3
        nonresidue = bytearray(b"\1") * q
        nonresidue[0] = 0
        for y in range(1, q // 2 + 1):
            nonresidue[y * y % q] = 0
        patterns.append(nonresidue)
    if minus:
        patterns.append(b"\0\0\0\1")
    bits = 0
    for pattern in patterns:
        bits ^= int.from_bytes(pattern * (m // len(pattern)), "little")
    return bits


# code (n/p) = -1 plus 2·[(f/p) = -1] -> bit 1 "(f/p) = 1" | bit 2 "(f/p) = (n/p)"
_CHARACTER_MASKS = bytes((3, 1, 0, 2)) + bytes(252)


def _character_prefilter(primes, witnesses, values) -> list[int]:
    """The primes where the witnesses' quadratic characters allow a common power.

    If n^t ≡ f(n) (mod p) for each witness n, with p ∤ 2·n·f(n), then
    (f(n)/p) = (n/p)^t: every (f(n)/p) = 1 (t even) or every (f(n)/p) =
    (n/p) (t odd).  The primes that fail both are left out; those dividing 2,
    a witness or a value are kept.  The witnesses come factored; all primes
    are kept when they are None (the witnesses do not factor).
    """
    if witnesses is None:
        return primes
    keep = {2}
    tables = []
    for w, v in zip(witnesses, values):
        keep.update(w.support(), v.support())
        m = lcm(*(4 * prod(q for q, e in u.exponents.items() if e % 2) for u in (w, v)))
        if m <= MAX_CHARACTER_MODULUS:
            codes = _character_bits(w, m) + 2 * _character_bits(v, m)
            tables.append((m, codes.to_bytes(m, "little").translate(_CHARACTER_MASKS)))
    if not tables:
        return primes
    kept = []
    for p in primes:
        bits = 3
        for m, table in tables:
            bits &= table[p % m]
        if bits or p in keep:
            kept.append(p)
    return kept


def heuristic_scan(f, witnesses, x: int, workers: int = 1) -> HeuristicScan:
    """Count primes where (f(n_j)) looks like a power of (n_j) mod p.

    The expectation (for witnesses with f(n) outside ±n^Z) is that the count
    stays below the sum of 1/(p-1)^2.  The witnesses are checked before any
    prime is sieved; `workers` processes split the scan without changing it.
    """
    ns = [int(n) for n in witnesses]
    if len(ns) != 3:
        raise WrongLengthError(f"need a triple of witnesses, got {len(ns)}")
    # each witness is factored once, for a map's values and for the prefilter
    args = ns
    try:
        factored = [as_factored(n) for n in ns]
        if isinstance(f, powermap.MultiplicativeMap):
            args = factored  # a plain callable still gets the int
    except DomainError:  # a map raises it again in f(n); a plain callable runs unfiltered
        factored = None
    values = [as_factored(f(a)) for a in args]
    fnums = [v.sign * v.num for v in values]
    fdens = [v.den for v in values]
    primes = PrimeCache(x).primes
    total = heuristic_sum(primes)
    kept = _character_prefilter(primes, factored, values)
    counted, skipped, members = _parallel.omega_members_parallel(
        kept, ns, fnums, fdens, workers
    )
    settled = len(primes) - len(kept)
    return HeuristicScan(
        x=x,
        witnesses=tuple(ns),
        counted=counted + settled,
        skipped=skipped,
        members=members,
        heuristic_sum=total,
        settled=settled,
    )
