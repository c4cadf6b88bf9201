import random
from fractions import Fraction

import pytest

from localpow.errors import (
    ConfigError,
    DomainError,
    EmptyTupleError,
    FunctionSpecError,
    NotPrimeError,
    OddPrimeRequiredError,
    WitnessSearchExhausted,
)
from localpow.modular import PrimeCache
from localpow.powermap import (
    MultiplicativeMap,
    construct_prescribed,
    evaluate,
    extend_to_Q,
    find_witness,
    local_exponent,
    nu_vote,
    scan_Sf,
    scan_Tf,
    shift_and_quasi_check,
)
from localpow.ratfact import as_factored


def table_f():
    return MultiplicativeMap.table({2: 5, 3: 7, 5: 11}, default_exponent=1)


def test_global_power_evaluation():
    f = MultiplicativeMap.global_power(3)
    assert f(6).value() == 216
    assert f(-2).value() == -8
    assert f(Fraction(2, 5)).value() == Fraction(8, 125)
    assert f.sign_value == -1
    assert MultiplicativeMap.global_power(2).sign_value == 1


def test_table_evaluation_is_completely_multiplicative():
    f = table_f()
    rng = random.Random(401)
    assert f(12).value() == 25 * 7  # f(2)^2 f(3)
    for _ in range(100):
        a = Fraction(rng.randint(1, 400) * rng.choice((1, -1)), rng.randint(1, 400))
        b = Fraction(rng.randint(1, 400) * rng.choice((1, -1)), rng.randint(1, 400))
        assert evaluate(f, a * b).value() == (f(a) * f(b)).value()


def test_overrides_must_be_prime_keyed():
    with pytest.raises(NotPrimeError):
        MultiplicativeMap.table({4: 3})
    with pytest.raises(ConfigError):
        MultiplicativeMap(overrides={2: 3}, kind="global_power")


def test_function_spec_json_roundtrip():
    f = table_f()
    g = MultiplicativeMap.from_json(f.to_json())
    assert g.to_json() == f.to_json()
    p = MultiplicativeMap.from_json({"kind": "power", "exponent": 2})
    assert p(10).value() == 100
    with pytest.raises(FunctionSpecError):
        MultiplicativeMap.from_json({"kind": "nope"})
    with pytest.raises(FunctionSpecError):
        MultiplicativeMap.from_json({"kind": "table", "overrides": {"4": "3"}})


def test_exact_scan_small_table():
    f = table_f()
    cache = PrimeCache(100)
    members, unknown = scan_Sf(f, 100, cache, mode="exact")
    assert [(v.p, v.k_p) for v in members] == [(2, 0), (3, 1)]
    assert unknown == 0


def test_exact_verdict_case_analysis():
    # p = 3: k_3 = 1, needs f(2) = 2 and f(5) = 5 mod 3; 5 = 2, 11 = 2 hold
    f = table_f()
    v = local_exponent(f, 3)
    assert v.member == "yes" and v.k_p == 1
    # p = 7: k_7 = 1, f(2) = 5 != 2 mod 7
    assert local_exponent(f, 7).member == "no"
    # override at p itself is exempt: p = 5 still fails on f(2) = 5 = 0 mod 5
    assert local_exponent(f, 5).member == "no"


def test_exact_p2_unit_rule():
    assert local_exponent(MultiplicativeMap.table({3: 5}), 2).member == "yes"
    assert local_exponent(MultiplicativeMap.table({3: 4}), 2).member == "no"
    # an even value at q = 2 itself is fine
    assert local_exponent(MultiplicativeMap.table({2: 4}), 2).member == "yes"


def test_global_power_is_everywhere_local():
    f = MultiplicativeMap.global_power(2)
    cache = PrimeCache(200)
    members, unknown = scan_Sf(f, 200, cache, mode="exact")
    assert [v.p for v in members] == cache.up_to(200)
    assert unknown == 0
    for v in members:
        if v.p > 2:
            assert v.k_p == 2 % (v.p - 1)


def test_empirical_agrees_with_exact_on_structured_maps():
    rng = random.Random(402)
    cache = PrimeCache(300)
    fs = [
        MultiplicativeMap.global_power(2),
        MultiplicativeMap.global_power(5),
        table_f(),
        MultiplicativeMap.table({2: 8}, default_exponent=3),
    ]
    for f in fs:
        for p in cache.up_to(300):
            exact = local_exponent(f, p, mode="exact")
            emp = local_exponent(f, p, mode="empirical", bound=60)
            if emp.member == "unknown":
                continue
            assert emp.member == exact.member, (f.to_json(), p)
            if emp.member == "yes" and p > 2:
                assert emp.k_p == exact.k_p


def test_empirical_callable_function():
    # black-box f(n) = n^3 given as a plain callable
    f = lambda n: as_factored(n) ** 3
    v = local_exponent(f, 11, mode="empirical", bound=30)
    assert v.member == "yes" and v.k_p == 3
    with pytest.raises(ConfigError):
        local_exponent(f, 11, mode="empirical", domain="rational")
    with pytest.raises(ConfigError):
        local_exponent(f, 11, mode="exact")


def test_rational_domain_sign_check():
    # sign_value -1 with even default exponent: parity mismatch at every odd p
    f = MultiplicativeMap.table({}, default_exponent=2, sign_value=-1)
    assert local_exponent(f, 11, domain="positive").member == "yes"
    assert local_exponent(f, 11, domain="rational").member == "no"
    assert (
        local_exponent(f, 11, mode="empirical", domain="rational", bound=30).member
        == "no"
    )
    g = MultiplicativeMap.global_power(3)
    assert local_exponent(g, 11, domain="rational").member == "yes"


def test_shift_and_quasi_check_identity_map():
    f = MultiplicativeMap.global_power(1)
    shift_ok, quasi_ok = shift_and_quasi_check(f, 7, 50)
    assert shift_ok and quasi_ok


def test_scan_tf_power_maps():
    cache = PrimeCache(200)
    # f(n) = n: f(n+p) - f(n) = p, divisible by every p
    assert scan_Tf(MultiplicativeMap.global_power(1), 200, cache) == cache.up_to(200)
    # f(n) = n^2: (n+p)^2 - n^2 = p(2n+p)
    assert scan_Tf(MultiplicativeMap.global_power(2), 200, cache) == cache.up_to(200)
    # the table map shifts correctly mod 2 (all values odd) but not mod 3:
    # f(6) = f(2)f(3) = 35 while f(3) = 7, and 35 - 7 = 28 is not divisible by 3
    f = table_f()
    assert scan_Tf(f, 200, cache, shift_bound=60) == [2]


def test_scans_split_across_workers_unchanged():
    f = table_f()
    cache = PrimeCache(300)
    for mode in ("exact", "empirical"):
        one = scan_Sf(f, 300, cache, mode=mode)
        assert scan_Sf(f, 300, cache, mode=mode, workers=2) == one
        assert one == sf_members_oracle(f, cache.up_to(300), mode)
    g = MultiplicativeMap.global_power(2)
    assert scan_Tf(g, 300, cache, workers=2) == scan_Tf(g, 300, cache) == cache.up_to(300)
    with pytest.raises(ConfigError):
        scan_Tf(lambda n: n, 300, cache)


def sf_members_oracle(f, primes, mode):
    verdicts = [local_exponent(f, p, mode=mode) for p in primes]
    members = [v for v in verdicts if v.member == "yes"]
    return members, sum(v.member == "unknown" for v in verdicts)


def test_extend_to_q_and_nu_vote():
    f = extend_to_Q({2: 5}, 1, 1)
    assert f(-3).value() == -3
    assert extend_to_Q({}, 2, 0)(-3).value() == 9
    with pytest.raises(ConfigError):
        extend_to_Q({}, 1, 2)
    verdicts, _ = scan_Sf(MultiplicativeMap.global_power(3), 100, PrimeCache(100))
    assert nu_vote(verdicts) == 1
    verdicts, _ = scan_Sf(MultiplicativeMap.global_power(2), 100, PrimeCache(100))
    assert nu_vote(verdicts) == 0


def test_find_witness_on_table_map():
    f = table_f()
    assert find_witness(f, 3) == [2, 3, 5]
    # a pure power map admits no witness at all
    with pytest.raises(WitnessSearchExhausted) as exc:
        find_witness(MultiplicativeMap.global_power(2), 1, search_limit=60)
    assert exc.value.details["found"] == 0


def test_find_witness_falls_back_to_pairs():
    # f(2) = 8, f(3) = 27: single primes look like cubes, 6 does not (f(6) = 216 = 6^3)
    f = MultiplicativeMap.table({2: 32, 3: 27}, default_exponent=3)
    # f(2) = 32 = 2^5 is a power of 2, f(3) = 27 = 3^3; f(6) = 864 not a power of 6
    w = find_witness(f, 1)
    assert w == [6]
    assert not (as_factored(864).value().numerator in (6**k for k in range(10)))


def test_construct_prescribed_local_exponents():
    g = construct_prescribed([5, 13], {5: 2, 13: 4})
    for n in range(1, 200):
        assert g(n) % 5 == pow(n, 2, 5)
        assert g(n) % 13 == pow(n, 4, 13)
        assert 1 <= g(n) <= g.modulus
    assert g.modulus == 65


def test_construct_prescribed_validation():
    with pytest.raises(EmptyTupleError):
        construct_prescribed([], {})
    with pytest.raises(OddPrimeRequiredError):
        construct_prescribed([2], {2: 0})
    with pytest.raises(DomainError):
        construct_prescribed([5], {5: 4})
    with pytest.raises(NotPrimeError):
        construct_prescribed([6], {6: 1})
