import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localpow import _parallel, kernels
from localpow.errors import (
    ConfigError,
    DomainError,
    EmptyTupleError,
    ExactRangeError,
    FunctionSpecError,
    LocalPowError,
    NonIntegralValueError,
    NotPrimeError,
    OddPrimeRequiredError,
    WitnessSearchExhausted,
    ZeroValueError,
)
from localpow.modular import PrimeCache
from localpow.powermap import (
    MAX_TABLE_SLOTS,
    MultiplicativeMap,
    _integer_values,
    _integer_values_per_n,
    _table_bits,
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
from localpow.ratfact import FactoredRational, as_factored


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
    for f in (table_f(), MultiplicativeMap.global_power(0)):
        with pytest.raises(NotPrimeError):
            f.value_at_prime(4)
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
    # integer fields: JSON integers or integer strings, nothing int() would round
    g = MultiplicativeMap.from_json(
        {"kind": "table", "default_exponent": "2", "sign_value": -1, "overrides": {"3": 5}}
    )
    assert (g.default_exponent, g.sign_value, g(3).value()) == (2, -1, 5)
    for spec in (
        {"kind": "power", "exponent": 1.5},
        {"kind": "power", "exponent": False},
        {"kind": "power", "exponent": None},
        {"kind": "power", "exponent": "2.0"},
        {"kind": "table", "default_exponent": 2.0},
        {"kind": "table", "sign_value": True},
        {"kind": "table", "overides": {"2": "5"}},
        {"kind": "power", "exponent": 2, "overrides": {"2": "5"}},
    ):
        with pytest.raises(FunctionSpecError):
            MultiplicativeMap.from_json(spec)


def test_exact_scan_small_table():
    f = table_f()
    members, unknown = scan_Sf(f, 100, mode="exact")
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
    members, unknown = scan_Sf(f, 200, mode="exact")
    assert [v.p for v in members] == PrimeCache(200).primes
    assert unknown == 0
    for v in members:
        if v.p > 2:
            assert v.k_p == 2 % (v.p - 1)


def test_empirical_agrees_with_exact_on_structured_maps():
    rng = random.Random(402)
    fs = [
        MultiplicativeMap.global_power(2),
        MultiplicativeMap.global_power(5),
        table_f(),
        MultiplicativeMap.table({2: 8}, default_exponent=3),
    ]
    for f in fs:
        for p in PrimeCache(300).primes:
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
    # below 2 no prime is tabulated, so every verdict would be unknown
    with pytest.raises(DomainError):
        local_exponent(f, 11, mode="empirical", bound=1)
    with pytest.raises(ConfigError):
        local_exponent(f, 11, mode="empirical", domain="rational")
    with pytest.raises(ConfigError):
        local_exponent(f, 11, mode="exact")
    # every value at a prime <= bound is read, so a zero is never hidden
    # behind an earlier "no" (f(2) = 8 is not 2 mod 11)
    g = lambda n: 0 if n == 29 else 8 if n == 2 else n
    with pytest.raises(ZeroValueError):
        local_exponent(g, 11, mode="empirical", bound=30)


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
    # a bound below 1 checks no n, so it would pass every prime
    for bound in (0, -5):
        with pytest.raises(DomainError):
            shift_and_quasi_check(f, 7, bound)


def test_scan_tf_power_maps():
    primes = PrimeCache(200).primes
    # f(n) = n: f(n+p) - f(n) = p, divisible by every p
    assert scan_Tf(MultiplicativeMap.global_power(1), 200) == primes
    # f(n) = n^2: (n+p)^2 - n^2 = p(2n+p)
    assert scan_Tf(MultiplicativeMap.global_power(2), 200) == primes
    # the table map shifts correctly mod 2 (all values odd) but not mod 3:
    # f(6) = f(2)f(3) = 35 while f(3) = 7, and 35 - 7 = 28 is not divisible by 3
    f = table_f()
    assert scan_Tf(f, 200, shift_bound=60) == [2]
    # a bound below 1 checks no n: every prime would pass
    for bound in (0, -5):
        with pytest.raises(DomainError):
            scan_Tf(MultiplicativeMap.table({3: 5}), 100, shift_bound=bound)


def test_scans_split_across_workers_unchanged():
    f = table_f()
    primes = PrimeCache(300).primes
    for mode in ("exact", "empirical"):
        one = scan_Sf(f, 300, mode=mode)
        assert scan_Sf(f, 300, mode=mode, workers=2) == one
        assert one == sf_members_oracle(f, primes, mode)
    g = MultiplicativeMap.global_power(2)
    assert scan_Tf(g, 300) == primes
    with pytest.raises(ConfigError):
        scan_Tf(lambda n: n, 300)


def test_pool_is_capped_at_the_core_count(monkeypatch):
    sizes = []

    class InProcessPool:
        # records the pool size asked for and maps in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    f = table_f()
    one = scan_Sf(f, 2000)
    assert sizes == []  # one worker runs in this process
    assert scan_Sf(f, 2000, workers=500) == one
    assert sizes == [2]
    # an unknown core count allows one chunk, run in this process
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert scan_Sf(f, 2000, workers=500) == one
    assert sizes == [2]
    # a tf scan builds one value table in this process
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    scan_Tf(f, 2000)
    assert sizes == [2]


def test_maps_pickle_as_themselves():
    for f in (
        MultiplicativeMap.global_power(3),
        MultiplicativeMap.table({2: Fraction(5, 9), 7: -3}, default_exponent=2, sign_value=-1),
    ):
        g = pickle.loads(pickle.dumps(f))
        assert type(g) is MultiplicativeMap
        assert vars(g) == vars(f)
        assert g.to_json() == f.to_json()


def test_scans_take_overrides_too_wide_for_text():
    # 3^10000 has 4772 digits, past the int-to-text limit a JSON copy of f
    # would hit; the scans hand f to their workers as itself
    f = MultiplicativeMap.table({2: 3**10000})
    primes = PrimeCache(100).primes
    one = scan_Sf(f, 100)
    assert scan_Sf(f, 100, workers=2) == one
    assert one == sf_members_oracle(f, primes, "exact")
    vals = _integer_values_per_n(f, 50 + 2)
    expected = [
        p for p in primes if p <= 50 and all((vals[n + p] - vals[n]) % p == 0 for n in (1, 2))
    ]
    assert scan_Tf(f, 50, shift_bound=2) == expected


def test_rejected_library_scans_sieve_nothing(monkeypatch):
    def refuse(self, limit):
        # fails fast instead of sieving and scanning to 10^7
        raise AssertionError(f"sieved to {limit} before rejecting")

    monkeypatch.setattr(PrimeCache, "__init__", refuse)
    f = table_f()
    with pytest.raises(DomainError):
        scan_Tf(f, 10**7, shift_bound=0)
    # a value table past the cap is refused before any prime is sieved
    for x, shift_bound in ((100, MAX_TABLE_SLOTS), (MAX_TABLE_SLOTS, 1), (100, 10**12)):
        with pytest.raises(DomainError) as err:
            scan_Tf(f, x, shift_bound=shift_bound)
        assert err.value.details["limit"] == x + shift_bound
    # so is a table of too many bytes: n^32768 to 10^5 + 100 is about 6 GiB,
    # and a non-integral override above the table takes no part in it
    for f_wide in (
        MultiplicativeMap.global_power(32768),
        MultiplicativeMap.table({1000003: Fraction(1, 2)}, default_exponent=32768),
    ):
        with pytest.raises(ExactRangeError) as err:
            scan_Tf(f_wide, 10**5)
        assert err.value.details["limit"] == 10**5 + 100
    with pytest.raises(ConfigError):
        scan_Sf(f, 10**7, mode="bogus")
    with pytest.raises(DomainError):
        scan_Sf(f, 10**7, mode="empirical", bound=1)


def sf_members_oracle(f, primes, mode):
    verdicts = [local_exponent(f, p, mode=mode) for p in primes]
    members = [v for v in verdicts if v.member == "yes"]
    return members, sum(v.member == "unknown" for v in verdicts)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
PROPERTY_LIMIT = 400
PROPERTY_PRIMES = PrimeCache(PROPERTY_LIMIT).primes


@st.composite
def table_maps(draw):
    """f(q) = q^k times a small rational twist at up to four primes <= 30."""
    k = draw(st.integers(-3, 4))
    keys = draw(st.lists(st.sampled_from(SMALL_PRIMES), unique=True, max_size=4))
    twists = st.one_of(
        st.just(Fraction(1)),
        st.just(Fraction(-1)),
        st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)),
    )
    overrides = {q: Fraction(q) ** k * draw(twists) for q in keys}
    sign = draw(st.sampled_from((1, -1)))
    return MultiplicativeMap.table(overrides, default_exponent=k, sign_value=sign)


def exact_oracle(f, p, domain):
    """(member, k_p) by the exact case analysis, from the public FactoredRational API."""
    if p == 2:
        # k_p lives in Z/1Z; f must map 2-adic units to 2-adic units
        if any(v.ord(2) != 0 for q, v in f.overrides.items() if q != 2):
            return "no", None
        return "yes", 0
    k_p = f.default_exponent % (p - 1)
    if domain == "rational" and (f.sign_value - (-1) ** k_p) % p != 0:
        return "no", None
    for q, v in f.overrides.items():
        if q == p:
            continue  # ord_p(q) != 0 exempts the override
        if v.ord(p) != 0 or v.reduce_mod(p) != pow(q, k_p, p):
            return "no", None
    return "yes", k_p


@settings(max_examples=80, deadline=None)
@given(table_maps(), st.sampled_from(("positive", "rational")))
def test_exact_scan_matches_case_analysis(f, domain):
    members, unknown = scan_Sf(f, PROPERTY_LIMIT, domain=domain)
    expected = []
    for p in PROPERTY_PRIMES:
        member, k_p = exact_oracle(f, p, domain)
        if member == "yes":
            expected.append((p, k_p))
    assert [(v.p, v.k_p) for v in members] == expected
    assert unknown == 0


@settings(max_examples=40, deadline=None)
@given(table_maps(), st.sampled_from(("positive", "rational")))
def test_empirical_verdicts_agree_with_exact(f, domain):
    for p in PROPERTY_PRIMES:
        if p > 200:
            break
        emp = local_exponent(f, p, mode="empirical", domain=domain)
        if emp.member == "unknown":
            continue
        exact = local_exponent(f, p, domain=domain)
        assert (emp.member, emp.k_p) == (exact.member, exact.k_p), p


def values_or_error(build, f, top):
    # the table, or the type and JSON payload (message, n) of its error
    try:
        return build(f, top)
    except LocalPowError as exc:
        return type(exc), exc.payload()


@settings(max_examples=100, deadline=None)
@given(table_maps(), st.integers(0, PROPERTY_LIMIT))
def test_value_table_matches_per_n_oracle(f, top):
    expected = values_or_error(_integer_values_per_n, f, top)
    assert values_or_error(_integer_values, f, top) == expected


def test_value_table_range_error_at_a_composite():
    # f(n) = n^(2^19): f(2) and f(3) are in range, f(4) = 2^(2^20) is not
    f = MultiplicativeMap.global_power(2**19)
    assert _integer_values(f, 3) == _integer_values_per_n(f, 3)
    expected = values_or_error(_integer_values_per_n, f, 4)
    assert expected[0] is ExactRangeError
    assert values_or_error(_integer_values, f, 10) == expected
    # f(6) = 2·3^700000 is wider than 2^(2^20) yet in range; f(9) is not
    g = MultiplicativeMap.table({3: FactoredRational(1, {3: 700000})})
    assert _integer_values(g, 8) == _integer_values_per_n(g, 8)
    expected = values_or_error(_integer_values_per_n, g, 9)
    assert expected[0] is ExactRangeError
    assert values_or_error(_integer_values, g, 12) == expected


@settings(max_examples=100, deadline=None)
@given(table_maps(), st.integers(1, PROPERTY_LIMIT))
def test_table_bits_estimate_the_table(f, top):
    # the estimate is Σ log2|f(n)|, and log2|v| < bit_length(v) <= log2|v| + 1
    bits = _table_bits(f, top)
    try:
        vals = _integer_values(f, top)
    except NonIntegralValueError:
        assert bits is None
        return
    if bits is not None:
        widths = sum(abs(v).bit_length() for v in vals)
        assert widths - top - 1e-6 <= bits <= widths + 1e-6


def test_wide_tables_are_refused_before_they_are_built():
    f = MultiplicativeMap.global_power(32768)
    with pytest.raises(ExactRangeError) as err:
        shift_and_quasi_check(f, 99991, 100)
    assert err.value.details["limit"] == 99991 + 100
    # an exponent past a float's range is past the cap too
    with pytest.raises(ExactRangeError):
        shift_and_quasi_check(MultiplicativeMap.global_power(10**400), 2, 1)
    # a default exponent that no prime <= top takes adds nothing
    h = MultiplicativeMap.table({2: 1, 3: 1}, default_exponent=10**30)
    assert shift_and_quasi_check(h, 2, 1) == (True, True)
    # a table that fails at a prime keeps that error, however wide it is
    g = MultiplicativeMap.table({3: Fraction(1, 2)}, default_exponent=32768)
    with pytest.raises(NonIntegralValueError) as err:
        shift_and_quasi_check(g, 99991, 100)
    assert err.value.details["n"] == 3
    with pytest.raises(NonIntegralValueError):
        shift_and_quasi_check(MultiplicativeMap.global_power(-1), 99991, 100)


def test_non_integral_message_survives_the_int_to_text_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # 2^-32768 has a 9865-digit denominator: the message gives bit lengths
        with pytest.raises(NonIntegralValueError) as err:
            shift_and_quasi_check(MultiplicativeMap.global_power(-32768), 99991, 100)
        assert err.value.details["n"] == 2
        assert str(err.value) == (
            "f(2) = (1-bit integer)/(32769-bit integer) is not an integer"
        )
        # a value that formats keeps its message
        with pytest.raises(NonIntegralValueError) as err:
            shift_and_quasi_check(MultiplicativeMap.global_power(-1), 99991, 100)
        assert str(err.value) == "f(2) = 1/2 is not an integer"
    finally:
        sys.set_int_max_str_digits(old)


def count_is_prime_calls(monkeypatch) -> list:
    # rebind is_prime in every library module that imported it by name
    calls = []
    real = kernels.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("localpow") and not name.startswith("localpow.kernels"):
            if getattr(module, "is_prime", None) is real:
                monkeypatch.setattr(module, "is_prime", counting)
    return calls


def test_sf_scan_does_not_reprove_sieved_primes(monkeypatch):
    calls = count_is_prime_calls(monkeypatch)
    f = table_f()
    for mode in ("exact", "empirical"):
        counts = []
        for x in (10**3, 10**4):
            del calls[:]
            scan_Sf(f, x, mode=mode)
            counts.append(len(calls))
        # the checks made once per scan (the map's override keys) do not
        # grow with the 1229 primes below 10^4
        assert counts[0] == counts[1] <= 10, (mode, counts)


def test_extend_to_q_and_nu_vote():
    f = extend_to_Q({2: 5}, 1, 1)
    assert f(-3).value() == -3
    assert extend_to_Q({}, 2, 0)(-3).value() == 9
    with pytest.raises(ConfigError):
        extend_to_Q({}, 1, 2)
    verdicts, _ = scan_Sf(MultiplicativeMap.global_power(3), 100)
    assert nu_vote(verdicts) == 1
    verdicts, _ = scan_Sf(MultiplicativeMap.global_power(2), 100)
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
