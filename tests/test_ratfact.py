import pickle
import random
from fractions import Fraction

import pytest
import sympy

from localpow.errors import (
    CompositeCofactorError,
    NonUnitError,
    NotPrimeError,
    ZeroValueError,
)
from localpow import ratfact
from localpow.ratfact import DEFAULT_TRIAL_BOUND, ONE, FactoredRational, as_factored, is_prime


def test_factor_matches_sympy_on_random_integers():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(2, 10**6)
        x = FactoredRational.factor(n)
        assert x.exponents == dict(sympy.factorint(n))
        assert x.sign == 1
        assert x.value() == n


def test_factor_negative_and_rational():
    rng = random.Random(102)
    for _ in range(100):
        num = rng.randint(1, 10**5) * rng.choice((1, -1))
        den = rng.randint(1, 10**5)
        x = FactoredRational.factor(num, den)
        assert x.value() == Fraction(num, den)


def test_zero_has_no_factored_form():
    with pytest.raises(ZeroValueError):
        FactoredRational.factor(0)
    with pytest.raises(ZeroValueError):
        FactoredRational(0, {})
    with pytest.raises(ZeroValueError):
        FactoredRational(1, {2: 0})


def test_composite_keys_rejected():
    with pytest.raises(NotPrimeError):
        FactoredRational(1, {4: 1})
    with pytest.raises(NotPrimeError):
        FactoredRational(1, {1: 2})


def test_composite_cofactor_error_carries_details():
    p, q = 1000000007, 1000000009
    with pytest.raises(CompositeCofactorError) as exc:
        FactoredRational.factor(p * q)
    assert exc.value.details["cofactor"] == p * q
    assert exc.value.details["bound"] == DEFAULT_TRIAL_BOUND
    # a single prime cofactor is fine: Miller-Rabin certifies it
    assert FactoredRational.factor(p).exponents == {p: 1}


def test_reduce_mod_matches_fraction_arithmetic():
    rng = random.Random(103)
    primes = [p for p in range(3, 300) if is_prime(p)]
    for _ in range(200):
        num = rng.randint(1, 10**4) * rng.choice((1, -1))
        den = rng.randint(1, 10**4)
        x = FactoredRational.factor(num, den)
        p = rng.choice(primes)
        if num % p == 0 or den % p == 0:
            with pytest.raises(NonUnitError):
                x.reduce_mod(p)
            continue
        v = x.value()
        assert x.reduce_mod(p) == v.numerator * pow(v.denominator, -1, p) % p


def test_reduce_mod_requires_prime_modulus():
    with pytest.raises(NotPrimeError):
        as_factored(3).reduce_mod(10)


def test_mul_and_pow_match_fraction_arithmetic():
    rng = random.Random(104)
    for _ in range(200):
        a = FactoredRational.factor(
            rng.randint(1, 999) * rng.choice((1, -1)), rng.randint(1, 999)
        )
        b = FactoredRational.factor(
            rng.randint(1, 999) * rng.choice((1, -1)), rng.randint(1, 999)
        )
        assert (a * b).value() == a.value() * b.value()
        k = rng.randint(-3, 3)
        assert (a**k).value() == a.value() ** k


def test_pow_zero_is_one():
    assert as_factored(-12) ** 0 == ONE
    assert ONE.value() == 1


def test_equality_and_hash():
    a = as_factored("7/4")
    b = FactoredRational.factor(7, 4)
    assert a == b
    assert hash(a) == hash(b)
    assert a != as_factored("-7/4")


def test_str_forms():
    assert str(ONE) == "1"
    assert str(as_factored(-1)) == "-1"
    assert str(as_factored(12)) == "2^2*3"
    assert str(as_factored("7/4")) == "2^-2*7"


def test_pickle_roundtrip(monkeypatch):
    rng = random.Random(105)
    values = [ONE, as_factored(-12), as_factored("-5/12"), as_factored(3**10000)]
    for _ in range(50):
        values.append(
            FactoredRational.factor(
                rng.randint(1, 10**6) * rng.choice((1, -1)), rng.randint(1, 10**6)
            )
        )
    blobs = [pickle.dumps(x) for x in values]

    def refuse(*args):
        raise AssertionError("unpickling re-checked or re-factored a value")

    # a value comes back through _raw: its keys are not re-tested for primality
    monkeypatch.setattr(ratfact, "is_prime", refuse)
    monkeypatch.setattr(ratfact, "_factor_abs", refuse)
    for x, blob in zip(values, blobs):
        y = pickle.loads(blob)
        assert type(y) is FactoredRational
        assert (y.sign, y.exponents) == (x.sign, x.exponents)
    with pytest.raises(AttributeError):
        y.sign = -1  # still immutable after the round trip


def test_as_factored_coercions():
    assert as_factored(18).exponents == {2: 1, 3: 2}
    assert as_factored("7/4") == FactoredRational.factor(7, 4)
    assert as_factored(Fraction(-5, 9)).value() == Fraction(-5, 9)
    x = as_factored(10)
    assert as_factored(x) is x
    with pytest.raises(TypeError):
        as_factored(1.5)


def test_ord_num_den_support():
    x = as_factored("12/35")
    assert x.ord(2) == 2 and x.ord(3) == 1 and x.ord(5) == -1 and x.ord(7) == -1
    assert x.ord(11) == 0
    assert x.num == 12 and x.den == 35
    assert x.support() == [2, 3, 5, 7]
    with pytest.raises(NotPrimeError):
        x.ord(6)


def test_is_prime_matches_sympy():
    for n in range(2, 2000):
        assert is_prime(n) == sympy.isprime(n)
    rng = random.Random(106)
    for _ in range(50):
        n = rng.randint(2, 2**63)
        assert is_prime(n) == sympy.isprime(n)


def test_immutability():
    x = as_factored(6)
    with pytest.raises(AttributeError):
        x.sign = -1
