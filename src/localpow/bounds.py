"""Evaluators for the explicit discriminant, density, and counting bounds.

Everything here is a direct numeric transcription of a closed-form bound:
cyclotomic discriminants (exact for small conductors, logarithmic beyond),
the divisor bound for radical-extension discriminants, the applicability
inequality for the effective density theorem, the Y/Z cutoff schedule with
its documented small-x vacuity, Mertens and Chebyshev products over sieved
primes, and the headline count bound.
"""

from __future__ import annotations

from collections import namedtuple
from math import ceil, e, exp, isfinite, log, sqrt

from . import kernels
from .errors import (
    ConfigError,
    DomainError,
    ExactRangeError,
    ScheduleDomainError,
    WrongLengthError,
)
from .modular import PrimeCache, require_odd_prime
from .ratfact import as_factored

EXACT_DISCRIMINANT_LIMIT = 10**4

# main_bound counts pi(x) itself only up to here (about 2 minutes); a larger
# x needs pi_x from the caller
PI_COUNT_LIMIT = 10**12


class BoundConfig(namedtuple("BoundConfig", "M c1 c2 implied_constant")):
    """Tunable constants; the sources leave c1, c2, and the implied constant open."""

    __slots__ = ()

    def __new__(
        cls,
        M: float = log(4),
        c1: float = 1.0,
        c2: float = 1.0,
        implied_constant: float = 1.0,
    ):
        self = super().__new__(cls, M, c1, c2, implied_constant)
        for name, value in zip(self._fields, self):
            if not (isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        return self

    def to_json(self) -> dict:
        return self._asdict()


def euler_phi(n: int) -> int:
    """Euler's totient of an integer n >= 1.

    A DomainError refuses n < 1, and a CompositeCofactorError an n whose
    composite cofactor rho does not split within its budget.
    """
    if n < 1:
        raise DomainError(f"euler_phi needs n >= 1, got {n}")
    phi = 1
    for p, k in as_factored(n).exponents.items():
        phi *= (p - 1) * p ** (k - 1)
    return phi


def cyclotomic_discriminant(n: int) -> int:
    """Exact discriminant of the n-th cyclotomic field (n <= 10^4)."""
    if n < 1:
        raise DomainError(f"conductor must be >= 1, got {n}")
    if n > EXACT_DISCRIMINANT_LIMIT:
        raise ExactRangeError(
            f"exact mode covers n <= {EXACT_DISCRIMINANT_LIMIT}; use the log form",
            n=n,
            limit=EXACT_DISCRIMINANT_LIMIT,
        )
    if n <= 2:
        return 1
    phi = euler_phi(n)
    denom = 1
    for p, _ in kernels.factorize(n):
        denom *= p ** (phi // (p - 1))
    return (-1) ** (phi // 2) * n**phi // denom


def squarefree_cyclotomic_log(primes) -> tuple[float, float]:
    """(phi, log|disc|) for the cyclotomic field of conductor prod(primes).

    The primes must be distinct; everything stays in log scale so huge
    conductors are fine.
    """
    phi = 1.0
    log_n = 0.0
    for p in primes:
        phi *= p - 1
        log_n += log(p)
    log_disc = phi * log_n - phi * sum(log(p) / (p - 1) for p in primes)
    return phi, log_disc


def kummer_disc_log_bound(ell: int, d: int, c) -> float:
    """log of the divisor bound for the discriminant of the degree-ell radical field."""
    require_odd_prime(ell)
    if d < 0:
        raise DomainError(f"d must be >= 0, got {d}")
    if d == 0:
        return (ell - 2) * log(ell)
    entries = [as_factored(x) for x in c]
    if len(entries) != d:
        raise WrongLengthError(f"need {d} tuple entries, got {len(entries)}")
    total = sum(log(x.num * x.den) for x in entries)
    return (ell - 1) ** 2 * ell ** (d - 1) * (total + (d + 1) * log(ell))


def chebotarev_condition(
    x: float, degree: int, max_term: float, cfg: BoundConfig | None = None
) -> bool:
    """sqrt(log x / degree) >= c2 * max(log|d|, |d|^(1/degree)), checked literally."""
    cfg = cfg or BoundConfig()
    if x < 2:
        raise DomainError(f"x must be >= 2, got {x}")
    if degree < 1:
        raise DomainError(f"degree must be >= 1, got {degree}")
    return sqrt(log(x) / degree) >= cfg.c2 * max_term


MINIMAL_SCHEDULE_X = exp(exp(e))


YZSchedule = namedtuple("YZSchedule", "x Y Z cap y_le_z z_within_cap")


def yz_schedule(x: float, cfg: BoundConfig | None = None) -> YZSchedule:
    """Cutoffs Y = lll x/(llll x)^2 and Z = ll x/(3M+1), with the cap on Z.

    Needs all four iterated logs positive, i.e. x > e^(e^e) ~ 3.81e6.  At
    every feasible x the schedule comes out with Y > Z; the flags report
    rather than hide that.
    """
    cfg = cfg or BoundConfig()
    if not isfinite(x):
        raise DomainError(f"x must be a finite number, got {x}")
    if x <= MINIMAL_SCHEDULE_X:
        raise ScheduleDomainError(
            f"x must exceed e^(e^e) ~ {MINIMAL_SCHEDULE_X:.1f}",
            minimal_x=MINIMAL_SCHEDULE_X,
        )
    l1 = log(x)
    l2 = log(l1)
    l3 = log(l2)
    l4 = log(l3)
    y = l3 / (l4 * l4)
    z = l2 / (3 * cfg.M + 1)
    try:
        cap = (l1 / (6 * cfg.c2 * l2) ** 2) ** (1 / 15)
    except OverflowError:
        raise ConfigError(f"c2 = {cfg.c2} overflows the cap on Z") from None
    return YZSchedule(x=x, Y=y, Z=z, cap=cap, y_le_z=y <= z, z_within_cap=z <= cap)


def mertens_product(Y: float, Z: float) -> float:
    """prod (1 - 1/(ell-1)) over odd primes Y <= ell < Z."""
    if not (isfinite(Y) and isfinite(Z)):
        raise DomainError(f"Y and Z must be finite numbers, got Y={Y}, Z={Z}")
    if Y < 3:
        raise DomainError(f"Y must be >= 3 (ell = 2 gives a zero factor), got {Y}")
    if Z < Y:
        raise DomainError(f"need Y <= Z, got Y={Y}, Z={Z}")
    lo = ceil(Y)
    out = 1.0
    for p in PrimeCache(ceil(Z) - 1).primes:
        if p >= lo:
            out *= 1.0 - 1.0 / (p - 1)
    return out


def chebyshev_check(Z: float, cfg: BoundConfig | None = None):
    """(log prod_{p<=Z} p, M*Z, holds) for the primorial growth bound."""
    cfg = cfg or BoundConfig()
    if not isfinite(Z):
        raise DomainError(f"Z must be a finite number, got {Z}")
    if Z < 2:
        raise DomainError(f"Z must be >= 2, got {Z}")
    theta = sum(log(p) for p in PrimeCache(int(Z)).primes)
    bound = cfg.M * Z
    return theta, bound, theta <= bound


def chebyshev_sweep(z_max: int, cfg: BoundConfig | None = None):
    """Check theta(p) <= M*p at every prime p <= z_max; returns (holds, first_violation).

    Between primes theta is flat while M*Z grows, so checking at primes
    covers every real Z in [2, z_max].
    """
    cfg = cfg or BoundConfig()
    theta = 0.0
    for p in PrimeCache(z_max).primes:
        theta += log(p)
        if theta > cfg.M * p:
            return False, p
    return True, None


def cyclotomic_max_term(Y: float, Z: float, cfg: BoundConfig | None = None):
    """max(log|d|, |d|^(1/phi)) for the conductor prod of odd primes in [Y, Z).

    Returns (max_term, M*Z*e^(M*Z), holds); the second value is the closed
    bound the max-term is asserted to stay under.
    """
    cfg = cfg or BoundConfig()
    lo = max(3, ceil(Y))
    primes = [p for p in PrimeCache(ceil(Z) - 1).primes if p >= lo]
    phi, log_disc = squarefree_cyclotomic_log(primes)
    max_term = max(log_disc, exp(log_disc / phi))
    bound = cfg.M * Z * exp(cfg.M * Z)
    return max_term, bound, max_term <= bound


def iterated_log_ratio(log_x: float) -> float:
    """llll x / lll x given log x, so astronomically large x stay probeable.

    The factor increases until lll x passes e (around x = e^(e^(e^e))) and
    decreases beyond; desk-scale x sit on the increasing side.
    """
    if log_x <= e:
        raise ScheduleDomainError(
            f"log x must exceed e, got {log_x}", minimal_x=MINIMAL_SCHEDULE_X
        )
    l3 = log(log(log_x))
    if l3 <= 0:
        raise ScheduleDomainError(
            f"lll x must be positive, got {l3}", minimal_x=MINIMAL_SCHEDULE_X
        )
    return log(l3) / l3


MainBound = namedtuple(
    "MainBound",
    [
        "x",
        "pi_x",
        "b_f",
        "ratio",  # llll x / lll x
        "main_term",  # implied_constant * ratio * pi(x)
        "total",  # main_term + b_f
        "split_term",  # (log Y / log Z) * pi(x)
        "tail_term",  # pi(x) / (Y log Y)
        "schedule",  # a YZSchedule
        "config",
    ],
    defaults=(BoundConfig(),),
)


def main_bound(
    x: float,
    b_f: float,
    cfg: BoundConfig | None = None,
    pi_x: int | None = None,
) -> MainBound:
    """Headline count bound (llll x/lll x)*pi(x)*C + b_f with its two range terms."""
    cfg = cfg or BoundConfig()
    sched = yz_schedule(x, cfg)
    if not isfinite(b_f):
        raise DomainError(f"b_f must be a finite number, got {b_f}")
    if pi_x is None:
        if x > PI_COUNT_LIMIT:
            raise DomainError(
                f"pi(x) is counted only up to x = {PI_COUNT_LIMIT}; pass pi_x beyond it",
                x=x,
                limit=PI_COUNT_LIMIT,
            )
        pi_x = kernels.count_primes(int(x))
    ratio = iterated_log_ratio(log(x))
    main_term = cfg.implied_constant * ratio * pi_x
    split_term = log(sched.Y) / log(sched.Z) * pi_x
    tail_term = pi_x / (sched.Y * log(sched.Y))
    return MainBound(
        x=x,
        pi_x=pi_x,
        b_f=b_f,
        ratio=ratio,
        main_term=main_term,
        total=main_term + b_f,
        split_term=split_term,
        tail_term=tail_term,
        schedule=sched,
        config=cfg,
    )
