import random

import pytest
import sympy

from localpow.errors import (
    CacheLimitError,
    CongruenceClassError,
    DomainError,
    EqualPrimeError,
    NonUnitError,
    NotPrimeError,
    OddPrimeRequiredError,
    WrongLengthError,
)
from localpow.modular import (
    PrimeCache,
    discrete_log,
    ell_power_class,
    primitive_root,
    solve_power_congruences,
)


def test_cache_contents_match_sympy():
    cache = PrimeCache(10000)
    assert cache.up_to(10000) == list(sympy.primerange(2, 10001))
    assert cache.pi(10000) == sympy.primepi(10000)
    assert cache.between(100, 150) == list(sympy.primerange(100, 151))
    assert len(cache) == cache.pi(10000)


def test_cache_limit_error_reports_needed():
    cache = PrimeCache(100)
    with pytest.raises(CacheLimitError) as exc:
        cache.up_to(200)
    assert exc.value.details["limit"] == 100
    assert exc.value.details["needed"] == 200
    with pytest.raises(CacheLimitError):
        cache.pi(101)
    with pytest.raises(CacheLimitError):
        cache.between(50, 150)


def test_primitive_root_requires_prime():
    with pytest.raises(NotPrimeError):
        primitive_root(8)
    assert primitive_root(7) == 3


def test_discrete_log_validation():
    with pytest.raises(NotPrimeError):
        discrete_log(2, 3, 9)
    with pytest.raises(NonUnitError):
        discrete_log(2, 13, 13)
    with pytest.raises(NonUnitError):
        discrete_log(13, 2, 13)
    # 2 is a primitive root mod 13, 3 has order 3: 2 outside <3>
    with pytest.raises(DomainError):
        discrete_log(3, 2, 13)


def test_discrete_log_solves():
    rng = random.Random(301)
    primes = [p for p in range(3, 2000) if sympy.isprime(p)]
    for _ in range(100):
        p = rng.choice(primes)
        g = rng.randint(1, p - 1)
        h = pow(g, rng.randint(0, p - 2), p)
        assert pow(g, discrete_log(g, h, p), p) == h


def test_ell_power_class_oracle():
    for p in range(7, 500):
        if not sympy.isprime(p) or p % 3 != 1:
            continue
        z, splits = ell_power_class(2, 3, p)
        assert z == pow(2, (p - 1) // 3, p)
        cube = any(pow(x, 3, p) == 2 % p for x in range(1, p))
        assert splits == cube == (z == 1)


def test_ell_power_class_rational_value():
    # 7/4 mod 13: residue 7 * 4^-1 = 5, z = 5^4 mod 13
    z, splits = ell_power_class("7/4", 3, 13)
    assert z == pow(5, 4, 13)
    assert splits == (z == 1)


def test_ell_power_class_errors():
    with pytest.raises(OddPrimeRequiredError):
        ell_power_class(2, 2, 7)
    with pytest.raises(NotPrimeError):
        ell_power_class(2, 9, 19)
    with pytest.raises(NotPrimeError):
        ell_power_class(2, 3, 25)
    with pytest.raises(EqualPrimeError):
        ell_power_class(2, 3, 3)
    with pytest.raises(CongruenceClassError):
        ell_power_class(2, 3, 5)
    with pytest.raises(NonUnitError):
        ell_power_class(13, 3, 13)


def test_solve_power_congruences_brute_force():
    rng = random.Random(302)
    for _ in range(300):
        width = rng.randint(1, 4)
        ms = [rng.randint(1, 40) for _ in range(width)]
        a = [rng.randint(0, 60) for _ in range(width)]
        b = [rng.randint(0, 60) for _ in range(width)]
        m = ms[0] * max(1, ms[1] if width > 1 else 1)
        m = max(2, m % 400)
        brute = next(
            (k for k in range(m) if all((ai * k - bi) % m == 0 for ai, bi in zip(a, b))),
            None,
        )
        assert solve_power_congruences(a, b, m) == brute


def test_solve_power_congruences_validation():
    with pytest.raises(WrongLengthError):
        solve_power_congruences([1, 2], [1], 5)
    with pytest.raises(DomainError):
        solve_power_congruences([1], [1], 0)
    assert solve_power_congruences([], [], 5) == 0
