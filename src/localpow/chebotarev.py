"""Frobenius classes in Kummer extensions and their empirical densities.

For a prime p ≡ 1 (mod ell) that is unramified for the tuple c, the class
data is the vector z_j = c_j^((p-1)/ell) in the ell-th roots of unity mod p,
encoded as an exponent vector mod ell.  A scan compares the observed
frequency of the proportionality class (the trace every local power map
forces) with the exact count over the relation-constrained vector space; it
decides each prime from the z_j themselves (`kernels.class_counts`), with at
most one log of order ell a prime, by the projection solver of the
simultaneous-power test, or at ell = 3 on the pure backend from the logs of
the z_j that cubic reciprocity reads off each prime's primary pi
(`kernels.class_counts_range`).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import fsum, gcd

from . import _parallel, kernels, powermap
from .errors import (
    ConfigError,
    DomainError,
    EmptyTupleError,
    ExactRangeError,
    NotPrimeError,
    RamifiedPrimeError,
    WrongLengthError,
)
from .lattice import build_lattice, row_space_mod_ell
from .modular import check_table_limit, require_odd_prime, validate_split
from .ratfact import as_factored, is_prime

# class_ratio does one small row reduction per λ mod ell, 20–30 µs each at
# k = 2 on a 2-core x86-64 machine, so it stops here (about a minute)
CLASS_RATIO_ELL_LIMIT = 2 * 10**6


class FrobeniusSample(namedtuple("FrobeniusSample", "p ell z_vector b_vector")):
    """Class data of one split prime: roots of unity and normalized exponents.

    b_vector is projectively normalized: its first nonzero entry is 1.
    """

    __slots__ = ()


class ClassSpec(namedtuple("ClassSpec", "ell k subgroup", defaults=("full",))):
    """Which proportionality class to count: full fiber or a subspace of it.

    Vectors have 2k coordinates; subgroup is "full" or a basis of the
    constrained subspace.
    """

    __slots__ = ()


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
    require_odd_prime(ell)
    if len(vec) != 4:
        raise WrongLengthError(f"need 4 coordinates, got {len(vec)}")
    return _proportional(vec, 2, ell)


def class_ratio(spec: ClassSpec):
    """(size_C, fiber, group, conditional_density) for the proportionality class.

    The class is the union over λ mod ell of G_λ = {(b, λb)}, spaces that
    meet pairwise only in 0, so the span W of the basis meets it in
    1 + Σ_λ (ell^dim(W ∩ G_λ) − 1) vectors, with dim(W ∩ G_λ) =
    dim W + k − rank(W ∪ G_λ).  Each vector of W is reached by
    ell^(n − dim W) of the ell^n = fiber coefficient tuples of an n-vector
    basis, a dependent one too; "full" is the identity basis.  An ell above
    CLASS_RATIO_ELL_LIMIT raises ExactRangeError before any reduction.
    """
    ell, k = spec.ell, spec.k
    require_odd_prime(ell)
    if k < 1:
        raise DomainError(f"the half-length k must be at least 1, got {k}")
    width = 2 * k
    if spec.subgroup == "full":
        basis = [tuple(int(i == j) for j in range(width)) for i in range(width)]
    else:
        basis = [tuple(v) for v in spec.subgroup]
    for v in basis:
        if len(v) != width:
            raise WrongLengthError(f"basis vectors need {width} coordinates, got {len(v)}")
    if ell > CLASS_RATIO_ELL_LIMIT:
        msg = f"the class is counted only up to ell = {CLASS_RATIO_ELL_LIMIT}, got {ell}"
        raise ExactRangeError(msg, ell=ell, limit=CLASS_RATIO_ELL_LIMIT)
    w = row_space_mod_ell(basis, width, ell)
    meets = 1
    for lam in range(ell):
        graph = [
            tuple(int(j == i) + lam * (j == k + i) for j in range(width))
            for i in range(k)
        ]
        rank = len(row_space_mod_ell(w + graph, width, ell))
        meets += ell ** (len(w) + k - rank) - 1
    fiber = ell ** len(basis)
    size = ell ** (len(basis) - len(w)) * meets
    group = (ell - 1) * fiber
    return size, fiber, group, Fraction(size, fiber)


def density_counts(primes, ell: int, nums, dens, mode: str):
    """(counted, skipped, hits) over primes p ≡ 1 (mod ell); merges by addition.

    primes is a list of such primes, or a range of numbers, whose primes
    p ≡ 1 (mod ell) the kernel generates itself (`kernels.class_counts_range`).
    Mode "c4" counts the proportionality class of the two halves of the
    tuple, any other mode the primes where every entry is an ell-th power.
    """
    k = len(nums) // 2 if mode == "c4" else 0
    if isinstance(primes, range):
        return kernels.class_counts_range(primes.start, primes.stop, ell, nums, dens, k)
    return kernels.class_counts(primes, ell, nums, dens, k)


DensityScan = namedtuple(
    "DensityScan",
    # decided_by: how the kernel decided the primes, for the progress line
    "ell x mode counted skipped hits observed expected deviation dim_v degree decided_by",
)


def scan_density(
    ell: int,
    c,
    x: int,
    mode: str = "c4",
    workers: int = 1,
) -> DensityScan:
    """Observed vs expected frequency of a Frobenius event over p ≡ 1 (mod ell).

    mode "c4" counts the proportionality class of 4-tuples (n1, n2, f1, f2);
    mode "split" counts primes where every tuple entry is an ell-th power.
    The inputs are checked and the expected value computed before any prime
    is generated; `workers` processes split the range 2..x and each
    generates the primes of its part, without changing the result.
    """
    entries = [as_factored(v) for v in c]
    if not entries:
        raise EmptyTupleError("tuple must be nonempty")
    if mode not in ("c4", "split"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "c4" and len(entries) != 4:
        raise WrongLengthError(f"c4 mode needs a 4-tuple, got {len(entries)}")
    require_odd_prime(ell)
    lat = build_lattice(entries)
    # the row space is V^perp: its rank d gives the Kummer degree ell^d, and
    # it is the space of exponent vectors the Frobenius ranges over
    rows = row_space_mod_ell(lat.matrix, lat.m, ell)
    d = len(rows)
    if mode == "c4":
        _, _, _, expected = class_ratio(ClassSpec(ell, lat.m // 2, rows))
    else:
        expected = Fraction(1, ell**d)
    check_table_limit(x)  # a range past sys.maxsize has no length to split
    nums = [e.sign * e.num for e in entries]
    dens = [e.den for e in entries]
    counted, skipped, hits = _parallel.density_counts_parallel(
        range(2, x + 1), ell, nums, dens, mode, workers
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
        dim_v=lat.m - d,
        degree=ell**d,
        decided_by=kernels.class_counts_method(ell, nums, dens),
    )


HeuristicScan = namedtuple(
    "HeuristicScan",
    [
        "x",
        "witnesses",
        "counted",
        "skipped",
        "members",
        "heuristic_sum",
        "settled",  # counted primes the quadratic characters rule out
    ],
    defaults=(0,),
)


def heuristic_sum(primes) -> float:
    """Sum of the floats 1/(p-1)^2 over the given primes, correctly rounded, in any order."""
    return fsum(1.0 / (p - 1) ** 2 for p in primes)


def heuristic_scan(f, witnesses, x: int, workers: int = 1) -> HeuristicScan:
    """Count primes where (f(n_j)) looks like a power of (n_j) mod p.

    The expectation (for witnesses with f(n) outside ±n^Z) is that the count
    stays below the sum of 1/(p-1)^2, `heuristic_sum` of the primes, added
    exactly by the chunks that decide them.  The witnesses are checked
    before any prime is generated; `workers` processes split the range 2..x
    without changing the result.
    `powermap.power_members` decides the primes, its quadratic-character
    prefilter on whenever the witnesses factor.
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
    rows = [(n, v.sign * v.num, v.den) for n, v in zip(ns, values)]
    check_table_limit(x)  # a range past sys.maxsize has no length to split
    numbers = range(2, x + 1)
    counted, skipped, settled, members, scaled = _parallel.omega_members_parallel(
        numbers, rows, factored, values, workers
    )
    return HeuristicScan(
        x=x,
        witnesses=tuple(ns),
        counted=counted + settled,
        skipped=skipped,
        members=members,
        heuristic_sum=scaled / 2**_parallel.HEURISTIC_BITS,  # int / int, correctly rounded
        settled=settled,
    )
