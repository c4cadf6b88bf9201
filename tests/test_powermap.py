import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline, in_process_pool
from localpow import _parallel, kernels, powermap
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
    EMPIRICAL_BOUND,
    HEAD_WITNESSES,
    MAX_SHIFT_BOUND,
    LocalVerdict,
    MultiplicativeMap,
    _as_integer,
    _member_candidates,
    _verdicts,
    construct_prescribed,
    evaluate,
    extend_to_Q,
    find_witness,
    local_exponent,
    nu_vote,
    power_members,
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


def test_constructor_rejects_non_integer_fields():
    # each once became a different map: exponent 2, x^2 with sign -1, sign `true`
    for build in (
        lambda: MultiplicativeMap.table({2: 5}, default_exponent=2.7),
        lambda: MultiplicativeMap.global_power(2.5),
        lambda: MultiplicativeMap.table({2: 5}, sign_value=True),
        lambda: MultiplicativeMap.table({2: 5}, default_exponent=False),
        lambda: MultiplicativeMap.table({2: 5}, sign_value=-1.0),
    ):
        with pytest.raises(ConfigError, match="must be an integer"):
            build()
    with pytest.raises(ZeroValueError):
        MultiplicativeMap.table({2: 5}, sign_value=2)


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


def test_empirical_scan_of_global_powers_is_exact():
    # the tabulated q fix k_p whenever they generate the units mod p
    # together, though none does alone: p = 2791, p - 1 = 2·3^2·5·31
    p = 2791
    assert all(
        len({pow(q, i, p) for i in range(p - 1)}) < p - 1 for q in PrimeCache(50).primes
    )
    for k in (2, 3, 5):
        f = MultiplicativeMap.global_power(k)
        exact, _ = scan_Sf(f, 3000, mode="exact")
        empirical, unknown = scan_Sf(f, 3000, mode="empirical")
        assert [(v.p, v.k_p) for v in empirical] == [(v.p, v.k_p) for v in exact], k
        assert unknown == 0
        assert local_exponent(f, p, mode="empirical").k_p == k


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


def test_scans_split_across_workers_unchanged(monkeypatch):
    monkeypatch.setattr(_parallel, "FAN_OUT_SPAN", 100)  # so 300 crosses the pool
    f = table_f()
    primes = PrimeCache(300).primes
    for mode in ("exact", "empirical"):
        one = scan_Sf(f, 300, mode=mode)
        assert scan_Sf(f, 300, mode=mode, workers=2) == one
        assert one == sf_members_oracle(f, primes, mode)
    g = MultiplicativeMap.global_power(2)
    assert scan_Tf(g, 300) == scan_Tf(g, 300, workers=2) == primes
    assert scan_Tf(f, 300, workers=2) == scan_Tf(f, 300) == [2]
    with pytest.raises(ConfigError):
        scan_Tf(lambda n: n, 300)


def test_pool_is_capped_at_the_core_count(monkeypatch):
    sizes = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", in_process_pool(sizes))
    monkeypatch.setattr(_parallel, "FAN_OUT_SPAN", 100)  # 2000 would run in one chunk
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    f = table_f()
    one = scan_Sf(f, 2000, mode="empirical")
    assert sizes == []  # one worker runs in this process
    assert scan_Sf(f, 2000, mode="empirical", workers=500) == one
    assert sizes == [2]
    # an unknown core count allows one chunk, run in this process
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert scan_Sf(f, 2000, mode="empirical", workers=500) == one
    assert sizes == [2]
    # an exact sf scan runs in this process at any worker count; a tf scan
    # fans out like the empirical one
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    assert scan_Sf(f, 2000, workers=500) == scan_Sf(f, 2000)
    assert sizes == [2]
    assert scan_Tf(f, 2000, workers=500) == scan_Tf(f, 2000) == [2]
    assert sizes == [2, 2]


def test_a_scan_gets_one_chunk_per_span_of_its_largest_number(monkeypatch):
    sizes = []
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", in_process_pool(sizes))
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 4)
    span = _parallel.FAN_OUT_SPAN

    def ends(job):
        return job[0][0], job[0][-1]

    # under two spans of numbers, a range runs whole in this process
    for top in (span - 1, 2 * span - 1):
        assert _parallel._run_chunks(ends, range(2, top + 1), 4) == [(2, top)]
    assert sizes == []
    # two spans open two chunks, where four workers and four cores allow four
    assert _parallel._run_chunks(ends, range(2, 2 * span + 1), 4) == [
        (2, span + 1),
        (span + 2, 2 * span),
    ]
    assert sizes == [2]


def test_the_pool_class_resolves_on_the_module():
    # before any fan-out the module holds no pool class and the pool modules
    # are not loaded, yet the name resolves to the stdlib class
    script = (
        "import sys\n"
        "from localpow import _parallel\n"
        "assert 'ProcessPoolExecutor' not in vars(_parallel)\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "assert _parallel.ProcessPoolExecutor is ProcessPoolExecutor\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    from concurrent.futures import ProcessPoolExecutor

    assert _parallel.ProcessPoolExecutor is ProcessPoolExecutor
    # no other missing name resolves; `__path__` keeps it from passing as a package
    for name in ("ThreadPoolExecutor", "processpoolexecutor", "__path__"):
        with pytest.raises(AttributeError, match=name):
            getattr(_parallel, name)
        assert not hasattr(_parallel, name)


def test_maps_pickle_as_themselves():
    for f in (
        MultiplicativeMap.global_power(3),
        MultiplicativeMap.table({2: Fraction(5, 9), 7: -3}, default_exponent=2, sign_value=-1),
    ):
        g = pickle.loads(pickle.dumps(f))
        assert type(g) is MultiplicativeMap
        assert vars(g) == vars(f)
        assert g.to_json() == f.to_json()


def test_scans_take_overrides_too_wide_for_text(monkeypatch):
    # 3^10000 has 4772 digits, past the int-to-text limit a JSON copy of f
    # would hit; the scans hand f to their workers as itself
    monkeypatch.setattr(_parallel, "FAN_OUT_SPAN", 10)  # so 100 crosses the pool
    f = MultiplicativeMap.table({2: 3**10000})
    primes = PrimeCache(100).primes
    one = scan_Sf(f, 100)
    assert one == sf_members_oracle(f, primes, "exact")
    wide = scan_Sf(f, 100, mode="empirical")
    assert scan_Sf(f, 100, mode="empirical", workers=2) == wide
    vals = integer_values_per_n(f, 50 + 2)
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
    # a shift bound past the cap is refused before any prime is generated
    for shift_bound in (MAX_SHIFT_BOUND + 1, 10**12):
        with pytest.raises(DomainError) as err:
            scan_Tf(f, 100, shift_bound=shift_bound)
        assert err.value.details["bound"] == shift_bound
    # so is a non-integral value at a prime up to x + shift_bound, first or
    # not; one above it takes no part in the scan
    g = MultiplicativeMap.table({3: Fraction(1, 2), 101: Fraction(1, 3)})
    with pytest.raises(NonIntegralValueError) as err:
        scan_Tf(g, 10**7)
    assert err.value.details["n"] == 3
    with pytest.raises(NonIntegralValueError) as err:
        scan_Tf(MultiplicativeMap.table({1000003: Fraction(1, 2)}), 10**7)
    assert err.value.details["n"] == 1000003
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


def per_prime_scan(f, x, domain):
    # the exact verdict of every prime <= x, as scan_Sf gives it
    members, unknown = _verdicts(f, "exact", None, domain)(PrimeCache(x).primes)
    return [LocalVerdict(p, "yes", k_p, "exact") for p, k_p in members], unknown


def record_sieves(monkeypatch) -> list:
    # the limits of the prime lists built, or the last numbers of the
    # ranges whose primes are generated, from here on
    built = []
    init = PrimeCache.__init__
    segments = kernels.prime_segments

    def recording_init(self, limit):
        built.append(limit)
        init(self, limit)

    def recording_segments(lo, hi, s):
        built.append(hi - 1)
        return segments(lo, hi, s)

    monkeypatch.setattr(PrimeCache, "__init__", recording_init)
    monkeypatch.setattr(kernels, "prime_segments", recording_segments)
    return built


@st.composite
def gcd_tables(draw):
    """Overrides at keys up to 59 (some above x) with N_q = c or f(q) = q^k·twist.

    f(q) = q^k + c (k >= 0) or 1/(q^-k - c) (k < 0) makes N_q = c, so G is
    0 when every c is 0, 1 when some c is ±1, and otherwise has prime
    factors 3, 5 and 7 that need not be keys.
    """
    k = draw(st.integers(-3, 4))
    keys = draw(st.lists(st.sampled_from(PROPERTY_PRIMES[:17]), unique=True, max_size=4))
    overrides = {}
    for q in keys:
        twist = draw(st.sampled_from((None, -1, 2, Fraction(3, 5))))
        c = draw(st.sampled_from((0, 1, -1, 7, 15, -21, 105)))
        if twist is not None:
            overrides[q] = Fraction(q) ** k * twist
        elif k >= 0 and q**k + c:
            overrides[q] = q**k + c
        elif k < 0 and q**-k != c:
            overrides[q] = Fraction(1, q**-k - c)
    sign = draw(st.sampled_from((1, -1)))
    return MultiplicativeMap.table(overrides, default_exponent=k, sign_value=sign)


@settings(max_examples=150, deadline=None)
@given(
    gcd_tables(),
    st.sampled_from(("positive", "rational")),
    st.sampled_from((2, 3, 10, 50, PROPERTY_LIMIT)),
)
def test_gcd_scan_matches_the_per_prime_scan(f, domain, x):
    assert scan_Sf(f, x, domain=domain) == per_prime_scan(f, x, domain)


def test_gcd_candidates_in_each_case(monkeypatch):
    built = record_sieves(monkeypatch)
    # G = 0: f agrees with x^3 at every override, so every prime is tested;
    # in the rational domain the sign of f(-1) = 1 disagrees, and G = 2
    f = MultiplicativeMap.table({2: 8, 7: 343}, default_exponent=3)
    assert _member_candidates(f, 100, "positive") is None
    assert scan_Sf(f, 100) == per_prime_scan(f, 100, "positive")
    assert built == [100, 100]
    assert _member_candidates(f, 100, "rational") == [2, 7]
    assert [v.p for v in scan_Sf(f, 100, domain="rational")[0]] == [2]
    assert _member_candidates(MultiplicativeMap.global_power(2), 100, "positive") is None
    # G = 1 (N_2 = 1, N_3 = -1): only the override keys up to x remain
    for d, overrides in ((2, {2: 5, 3: 8, 61: 7}), (-1, {2: Fraction(1, 1), 3: Fraction(1, 4)})):
        g = MultiplicativeMap.table(overrides, default_exponent=d)
        assert _member_candidates(g, 10, "positive") == [2, 3]
        assert _member_candidates(g, 2, "positive") == [2]
        assert _member_candidates(g, 1, "positive") == []  # x below every key
    # N_2 = 105 = 3·5·7, whose factors are members, with k_p ≡ d (mod p - 1)
    for d, value in ((2, 4 + 105), (-1, Fraction(1, 2 - 105)), (-3, Fraction(1, 8 - 105))):
        g = MultiplicativeMap.table({2: value}, default_exponent=d)
        assert _member_candidates(g, 10, "positive") == [2, 3, 5, 7]
        members = scan_Sf(g, 10)
        assert [(v.p, v.k_p) for v in members[0]][1:] == [(p, d % (p - 1)) for p in (3, 5, 7)]
        assert members == per_prime_scan(g, 10, "positive")
    # the worked table: G = gcd(3, 4, 6) = 1, so 2, 3 and 5 are decided, to any x
    del built[:]
    with deadline(5):
        members, unknown = scan_Sf(table_f(), 10**15)
    assert [(v.p, v.k_p) for v in members] == [(2, 0), (3, 1)] and unknown == 0
    assert built == []


def test_gcd_scan_falls_back_where_g_is_out_of_reach(monkeypatch):
    built = record_sieves(monkeypatch)
    factored = []
    real_factorize = kernels.factorize
    monkeypatch.setattr(kernels, "factorize", lambda n: factored.append(n) or real_factorize(n))
    # a prime P = 2^89 + 509, so that f(2) = 2 + 15·(2^61 - 1)·P is prime too
    big = 15 * (2**61 - 1) * next(
        p for p in range(2**89 + 1, 2**90, 2)
        if kernels.is_prime(p) and kernels.is_prime(2 + 15 * (2**61 - 1) * p)
    )
    cases = (
        # G = 3^10000 - 2 has 15850 bits: too wide to factor
        (MultiplicativeMap.table({2: 3**10000}), 100),
        # N_2 = 3 - 2^(10^15) is too wide to build
        (MultiplicativeMap.from_json(
            {"kind": "table", "default_exponent": 10**15, "overrides": {"2": "3"}}
        ), 1000),
        # G = 3·5·(2^61 - 1)·P: 3 and 5 divide it, and rho would take
        # about 2^30 steps to split the two large primes
        (MultiplicativeMap.table({2: 2 + big}), 1000),
    )
    for f, x in cases:
        assert _member_candidates(f, x, "positive") is None
        with deadline(10):
            got = scan_Sf(f, x)
        assert got == per_prime_scan(f, x, "positive")
    assert [v.p for v in got[0]] == [2, 3, 5]  # the key 2 is exempt from N_2
    assert built == [x for _, x in cases for _ in range(2)]
    assert factored == []

    # a G within FACTOR_BITS that rho leaves unsplit falls back as well
    def spent(n):
        raise ArithmeticError("rho spent its budget", n, 1)

    monkeypatch.setattr(kernels, "factorize", spent)
    f = MultiplicativeMap.table({2: 5, 3: 7, 5: 11})
    assert _member_candidates(f, 100, "positive") is None
    assert scan_Sf(f, 100) == per_prime_scan(f, 100, "positive")


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


def integer_values_per_n(f, top: int) -> list[int]:
    # the per-n oracle: vals[n] = f(n) as an int for n <= top, one call of f per n
    vals = [0] * (top + 1)
    for n in range(1, top + 1):
        vals[n] = _as_integer(f(n), n)
    return vals


def shift_members_oracle(f, x, bound):
    # the primes p <= x with f(n+p) ≡ f(n) (mod p) for n <= bound, read
    # from the table f(1 .. x + bound)
    vals = integer_values_per_n(f, x + bound)
    return [
        p for p in PrimeCache(x).primes
        if all((vals[n + p] - vals[n]) % p == 0 for n in range(1, bound + 1))
    ]


def outcome(scan, *args):
    # the scan's result, or the type and JSON payload (message, n) of its error
    try:
        return scan(*args)
    except LocalPowError as exc:
        return type(exc), exc.payload()


@st.composite
def shift_maps(draw):
    """f(q) = q^d·t at up to four primes among 2..13 and 1009, above any x + bound.

    The twist t is 1 (no key), -1, a small integer, which a prime p <= x may
    divide, or now and then a fraction.  d = -1 comes with f(q) = t at every
    prime up to 13, so that the values up to 13 may all be integers.
    """
    d = draw(st.integers(-1, 3))
    keys = [2, 3, 5, 7, 11, 13] if d < 0 else draw(
        st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 1009)), unique=True, max_size=4)
    )
    small = st.integers(-30, 30).filter(bool)
    twists = st.one_of(
        st.sampled_from((1, -1)),
        small,
        small,
        st.builds(Fraction, st.integers(1, 5), st.integers(2, 3)),
    )
    overrides = {q: Fraction(q) ** max(d, 0) * draw(twists) for q in keys}
    return MultiplicativeMap.table(overrides, default_exponent=d)


@settings(max_examples=150, deadline=None)
@given(shift_maps(), st.integers(2, PROPERTY_LIMIT), st.sampled_from((1, 2, 5, 30, 100)))
def test_shift_scan_matches_the_per_n_table_check(f, x, bound):
    # the decider mod p against the exact table, primes p <= bound included,
    # errors included; d = -1 runs only where x + bound <= 13
    if f.default_exponent < 0:
        x, bound = min(x, 12), min(bound, 13 - min(x, 12))
    expected = outcome(shift_members_oracle, f, x, bound)
    assert outcome(scan_Tf, f, x, bound) == expected


def test_value_table_edges_match_the_per_n_oracle():
    # d = 0, with and without keys, and f(q) = -q^d
    for g in (
        MultiplicativeMap.global_power(0),
        MultiplicativeMap.table({3: 4}, 0),
        MultiplicativeMap.table({2: -4, 5: -25}, 2),
    ):
        assert scan_Tf(g, 300, 50) == shift_members_oracle(g, 300, 50)
    # d < 0 fails at the first prime off the overrides, here n = 5
    h = MultiplicativeMap.table({2: 4, 3: 9}, default_exponent=-1)
    expected = outcome(shift_members_oracle, h, 50, 10)
    assert expected[0] is NonIntegralValueError and expected[1]["n"] == 5
    assert outcome(scan_Tf, h, 50, 10) == expected
    # d < 0 with every prime up to x + bound overridden: no value fails
    h = MultiplicativeMap.table({2: 4, 3: 9, 5: 5, 7: 1}, default_exponent=-1)
    assert scan_Tf(h, 5, 2) == shift_members_oracle(h, 5, 2)


def test_wide_values_are_shift_checked_mod_p():
    # no value is built: n^32768 to 10^5 + 100 would take about 6 GiB, and
    # n^(2^19) has no exact value past n = 4; a non-integral override above
    # x + shift_bound takes no part in the scan
    primes = PrimeCache(10**5).primes
    for f_wide in (
        MultiplicativeMap.global_power(32768),
        MultiplicativeMap.table({1000003: Fraction(1, 2)}, default_exponent=32768),
    ):
        assert scan_Tf(f_wide, 10**5) == primes
    # mod p, n^(2^19) is n^d for d ≡ 2^19 (mod p - 1), d >= 1
    d = 2**19
    members = scan_Tf(MultiplicativeMap.table({2: 3}, default_exponent=d), 400)
    assert members == [
        p for p in PrimeCache(400).primes
        if shift_members_oracle(MultiplicativeMap.table({2: 3}, d % (p - 1) + p - 1), p, 100)[-1:]
        == [p]
    ]
    # the single-prime check reads f at n and n + p only, exactly
    assert shift_and_quasi_check(MultiplicativeMap.global_power(32768), 99991, 100) == (
        True,
        True,
    )
    # an exponent past a float's range has no exact value at 3
    with pytest.raises(ExactRangeError):
        shift_and_quasi_check(MultiplicativeMap.global_power(10**400), 2, 1)
    # a default exponent that no n or n + p read takes adds nothing
    h = MultiplicativeMap.table({2: 1, 3: 1}, default_exponent=10**30)
    assert shift_and_quasi_check(h, 2, 1) == (True, True)
    # a map that fails at a prime keeps that error, however wide it is
    g = MultiplicativeMap.table({3: Fraction(1, 2)}, default_exponent=32768)
    with pytest.raises(NonIntegralValueError) as err:
        shift_and_quasi_check(g, 99991, 100)
    assert err.value.details["n"] == 3
    with pytest.raises(NonIntegralValueError):
        shift_and_quasi_check(MultiplicativeMap.global_power(-1), 99991, 100)
    with pytest.raises(DomainError):
        shift_and_quasi_check(h, 2, MAX_SHIFT_BOUND + 1)


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


def test_empirical_scan_asks_the_kernel_once_per_chunk(monkeypatch):
    # one omega_members call per prime up to the largest tabulated q, whose
    # witnesses leave out q = p, and one call with parity codes for the
    # primes above it that the prefilter keeps; k_p is read from the
    # kernel's answer: no factorization and no discrete log
    f = table_f()
    primes = PrimeCache(3000).primes
    asked, factored, logs = [], [], []

    def recording_omega(primes, *witnesses):
        got = real_omega(primes, *witnesses)
        asked.append((primes, witnesses[3:], got[2]))
        return got

    real_omega = kernels.omega_members
    # at bound 2 the kernel sees only q = 2: a p where f(2) is a power of 2
    # is a member, and "unknown" unless 2 generates the units mod p
    expected = {None: (2, 0), 2: (167, 81)}
    for bound in (None, 2):
        largest = PrimeCache(bound or EMPIRICAL_BOUND).primes[-1]
        small = [p for p in primes if p <= largest]
        before = scan_Sf(f, 3000, mode="empirical", bound=bound)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "omega_members", recording_omega)
            patch.setattr(kernels, "factorize", lambda *args: factored.append(args))
            patch.setattr(kernels, "discrete_log", lambda *args: logs.append(args))
            members, unknown = scan_Sf(f, 3000, mode="empirical", bound=bound)
        assert (members, unknown) == before
        assert [(ps, rest) for ps, rest, _ in asked[:-1]] == [([p], ()) for p in small]
        chunk, (parities,), _ = asked[-1]
        assert chunk == sorted(set(chunk)) and chunk[0] > largest
        # the quadratic characters settle some primes before the kernel
        assert len(chunk) < len(primes) - len(small)
        assert len(parities) == len(chunk) and set(parities) <= {-1, 1, 2, 3}
        assert factored == logs == []
        kept = [p for _, _, answer in asked for p, _, _ in answer]
        assert len(kept) == len(members) + unknown
        assert (len(members), unknown) == expected[bound]
        del asked[:]


def empirical_oracle(f, p, bound, domain):
    """(member, k_p) of the empirical verdict by trying every k in [0, p - 2].

    "unknown" exactly when more than one k fits.
    """
    values = [(q, f(q).value()) for q in PrimeCache(bound).primes if q != p]
    ks = [
        k for k in range(p - 1)
        if all(
            v.denominator % p and (v.numerator - pow(q, k, p) * v.denominator) % p == 0
            for q, v in values
        )
    ]
    if not ks:
        return "no", None
    if len(ks) > 1:
        return "unknown", None  # the tabulated q do not fix k mod p - 1
    (k,) = ks
    if domain == "rational" and (f.sign_value - (-1) ** k) % p:
        return "no", None
    return "yes", k


@settings(max_examples=60, deadline=None)
@given(
    table_maps(),
    st.sampled_from(("positive", "rational")),
    st.sampled_from((2, 50, 60)),
)
def test_empirical_verdicts_match_the_brute_force(f, domain, bound):
    # bound 2 tabulates one prime, so most p are "unknown"; 60 tabulates 17
    for p in PrimeCache(200).primes:
        got = local_exponent(f, p, mode="empirical", bound=bound, domain=domain)
        assert (got.member, got.k_p) == empirical_oracle(f, p, bound, domain), p


@settings(max_examples=40, deadline=None)
@given(
    table_maps(),
    st.sampled_from(("positive", "rational")),
    st.sampled_from((2, None, 60)),
    st.integers(0, 46),
)
def test_empirical_scan_matches_the_brute_force(f, domain, bound, start):
    # a chunk of the primes to 200 from any start: those above the largest
    # tabulated q are decided in one prefiltered kernel call
    primes = PrimeCache(200).primes[start:]
    verdicts = [empirical_oracle(f, p, bound or EMPIRICAL_BOUND, domain) for p in primes]
    members, unknown = _verdicts(f, "empirical", bound, domain)(primes)
    assert members == [(p, k) for p, (member, k) in zip(primes, verdicts) if member == "yes"]
    assert unknown == sum(member == "unknown" for member, _ in verdicts)


def test_head_witnesses_reject_before_the_full_call(monkeypatch):
    # bound 331 tabulates 67 q, more than native's MAX_WIDTH (64).  The
    # oracle is each prime's verdict from one call with every tabulated q
    # but p, which is what a HEAD_WITNESSES larger than the table gives.
    # table_f's head already rejects most primes; q ↦ q^3 but for f(331) =
    # -331^3 passes every head and fails at 331 nearly everywhere
    bound = 331
    assert len(PrimeCache(bound).primes) > 64 >= HEAD_WITNESSES
    primes = PrimeCache(1000).primes
    maps = (
        table_f(),
        MultiplicativeMap.table({331: -(331**3)}, default_exponent=3),
        MultiplicativeMap.global_power(3),
    )
    widths, asked = [], []
    real_omega = kernels.omega_members

    def recording_omega(primes, ns, *rest):
        widths.append((len(ns), len(primes)))
        return real_omega(primes, ns, *rest)

    for f in maps:
        for domain in ("positive", "rational"):
            with monkeypatch.context() as patch:
                patch.setattr(powermap, "HEAD_WITNESSES", 10**9)
                verdicts = [local_exponent(f, p, "empirical", bound, domain) for p in primes]
            expected = (
                [(v.p, v.k_p) for v in verdicts if v.member == "yes"],
                sum(v.member == "unknown" for v in verdicts),
            )
            del widths[:]
            with monkeypatch.context() as patch:
                patch.setattr(kernels, "omega_members", recording_omega)
                assert _verdicts(f, "empirical", bound, domain)(primes) == expected
            # each call asks the head first; only the primes it keeps go on
            assert {width for width, _ in widths} <= {HEAD_WITNESSES, 66, 67}
            head = sum(n for width, n in widths if width == HEAD_WITNESSES)
            full = sum(n for width, n in widths if width > HEAD_WITNESSES)
            asked.append((head, full, len(expected[0]) + expected[1]))
    # table_f's head rejects most primes, and the full calls reject most of
    # what the cube map's head keeps
    assert all(found <= full <= head for head, full, found in asked)
    assert asked[0][1] < asked[0][0] / 10
    assert asked[2][2] < asked[2][1] / 10
    # power_members with the 67 rows gives one full-width call's members,
    # and with no rows (bound 2 leaves p = 2 none) still asks three columns
    for f in maps:
        rows = [(q, *f(q).value().as_integer_ratio()) for q in PrimeCache(bound).primes]
        counted, skipped, members = kernels.omega_members(
            primes, *([row[i] for row in rows] for i in range(3))
        )
        got = power_members(primes, rows)
        assert got[2:] == (0, members)
        assert got[0] + got[1] == counted + skipped
    calls = []

    def logged_omega(*args):
        calls.append(args)
        return real_omega(*args)

    with monkeypatch.context() as patch:
        patch.setattr(kernels, "omega_members", logged_omega)
        assert power_members([2], []) == (1, 0, 0, [(2, 0, 1)])
    assert calls == [([2], [], [], [])]


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
