import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localpow import _parallel, kernels, ratfact
from localpow.chebotarev import (
    ClassSpec,
    class_ratio,
    cyclotomic_frobenius,
    density_counts,
    frobenius_vector,
    heuristic_scan,
    heuristic_sum,
    in_C4,
    scan_density,
)
from localpow.errors import (
    ConfigError,
    DomainError,
    NotPrimeError,
    OddPrimeRequiredError,
    RamifiedPrimeError,
    WrongLengthError,
)
from localpow.lattice import row_space_mod_ell, build_lattice
from localpow.modular import PrimeCache, ell_power_class
from localpow.powermap import MultiplicativeMap, _character_bits
from localpow.ratfact import as_factored

PRIMES_10K = list(sympy.primerange(2, 10**4 + 1))


def test_cyclotomic_frobenius():
    assert cyclotomic_frobenius(7, 5) == 2
    assert cyclotomic_frobenius(11, 4) == 3
    with pytest.raises(RamifiedPrimeError):
        cyclotomic_frobenius(5, 10)


def test_frobenius_vector_worked_example():
    s = frobenius_vector(7, 3, (2, 3))
    assert s.z_vector == (4, 2)
    assert s.b_vector == (1, 2)


def test_frobenius_vector_consistent_with_power_classes():
    for p in PrimeCache(2000).primes:
        if p % 3 != 1 or p in (2, 3, 5, 7):
            continue
        s = frobenius_vector(p, 3, (2, 5, 7))
        for c, z in zip((2, 5, 7), s.z_vector):
            assert z == ell_power_class(c, 3, p)[0]


def test_b_vector_encodes_z_vector():
    # b is an exponent vector for the z entries against one root of unity
    s = frobenius_vector(31, 5, (2, 3, 6))
    z1, z2, z3 = s.z_vector
    b1, b2, b3 = s.b_vector
    # z3 = z1 * z2 because 6 = 2 * 3, so b3 = b1 + b2 up to normalization
    assert z3 == z1 * z2 % 31
    assert (b1 + b2 - b3) % 5 == 0


def test_frobenius_vector_ramified():
    with pytest.raises(RamifiedPrimeError):
        frobenius_vector(7, 3, (14,))


def test_normalization_is_projective():
    # scaling the tuple by an ell-th power leaves z alone; the b vector is
    # normalized so its first nonzero entry is 1
    for p in (13, 31, 43):
        s = frobenius_vector(p, 3, (2, 3, 5, 7))
        nz = [b for b in s.b_vector if b]
        if nz:
            assert nz[0] == 1


def test_in_c4_proportional_pairs():
    assert in_C4((1, 2, 2, 4), ell=5)
    assert in_C4((1, 2, 0, 0), ell=5)  # lambda = 0
    assert in_C4((0, 0, 0, 0), ell=5)
    assert not in_C4((0, 0, 1, 0), ell=5)  # b = 0 forces f = 0
    assert not in_C4((1, 2, 2, 5), ell=7)
    with pytest.raises(WrongLengthError):
        in_C4((1, 2, 3), ell=5)
    with pytest.raises(ConfigError):
        in_C4((1, 2, 3, 4))


def test_ell_must_be_an_odd_prime():
    for ell in (9, 0, 1, -3):
        with pytest.raises(NotPrimeError):
            in_C4((3, 1, 6, 2), ell=ell)
    with pytest.raises(NotPrimeError):
        class_ratio(ClassSpec(9, 2))
    with pytest.raises(OddPrimeRequiredError):
        in_C4((1, 0, 1, 0), ell=2)
    with pytest.raises(OddPrimeRequiredError):
        class_ratio(ClassSpec(2, 2))


def test_class_ratio_rejects_a_malformed_spec():
    with pytest.raises(WrongLengthError):
        class_ratio(ClassSpec(3, 2, [(1, 2)]))
    with pytest.raises(WrongLengthError):
        class_ratio(ClassSpec(3, 2, [(1, 2, 0, 0, 1)]))  # not cut to 4 coordinates
    with pytest.raises(DomainError):
        class_ratio(ClassSpec(3, -1))


def test_class_ratio_full_matches_enumeration():
    for ell in (3, 5):
        size, fiber, group, dens = class_ratio(ClassSpec(ell, 2))
        brute = sum(
            1
            for b1, b2, f1, f2 in product(range(ell), repeat=4)
            if any(
                (f1 - lam * b1) % ell == 0 and (f2 - lam * b2) % ell == 0
                for lam in range(ell)
            )
        )
        assert size == brute == ell**3 - ell + 1
        assert fiber == ell**4
        assert group == (ell - 1) * fiber
        assert dens == Fraction(size, fiber)


def test_class_ratio_lemma_bound():
    # conditional density over the group: size/group <= 2/(ell(ell-1))
    for ell in (3, 5, 7, 11, 13):
        size, fiber, group, _ = class_ratio(ClassSpec(ell, 2))
        assert Fraction(size, group) <= Fraction(2, ell * (ell - 1))


def test_class_ratio_subgroup_enumeration():
    # V-perp of (2,3,4,9): b-halves determine f-halves doubly
    lat = build_lattice(tuple(as_factored(x) for x in (2, 3, 4, 9)))
    for ell in (3, 17, 1009):
        basis = tuple(row_space_mod_ell(lat.matrix, lat.m, ell))
        size, fiber, group, dens = class_ratio(ClassSpec(ell, 2, basis))
        assert dens == 1  # every constrained vector is proportional


def _enumerated_class_ratio(spec):
    """The class counted vector by vector over every coefficient tuple."""
    ell, k = spec.ell, spec.k
    if spec.subgroup == "full":
        basis = [tuple(int(i == j) for j in range(2 * k)) for i in range(2 * k)]
    else:
        basis = list(spec.subgroup)
    size = 0
    for coeffs in product(range(ell), repeat=len(basis)):
        v = [sum(c * b[i] for c, b in zip(coeffs, basis)) % ell for i in range(2 * k)]
        # proportional: the second half is one λ-multiple of the first
        size += any(
            all((v[k + i] - lam * v[i]) % ell == 0 for i in range(k))
            for lam in range(ell)
        )
    fiber = ell ** len(basis)
    return size, fiber, (ell - 1) * fiber, Fraction(size, fiber)


ORACLE_TUPLES = 6000  # coefficient tuples the enumeration may visit


@st.composite
def class_specs(draw):
    """Class specs at small ell, with random bases: dependent, empty, or "full"."""
    ell = draw(st.sampled_from((3, 5, 7, 11, 13)))
    k = draw(st.integers(1, 3))
    most = max(n for n in range(8) if ell**n <= ORACLE_TUPLES)
    if 2 * k <= most and draw(st.booleans()):
        return ClassSpec(ell, k)
    entry = st.integers(-ell, 2 * ell)
    vectors = st.tuples(*[entry] * (2 * k))
    basis = draw(st.lists(vectors, max_size=min(most, 2 * k + 1)))
    if len(basis) >= 2 and draw(st.booleans()):
        # the last vector becomes a combination of the first two
        a, b = draw(st.integers(0, ell - 1)), draw(st.integers(0, ell - 1))
        basis[-1] = tuple(a * x + b * y for x, y in zip(basis[0], basis[1]))
    return ClassSpec(ell, k, tuple(basis))


@settings(max_examples=150, deadline=None)
@given(class_specs())
@example(ClassSpec(3, 2))
@example(ClassSpec(13, 3, ()))
@example(ClassSpec(5, 2, ((1, 0, 2, 0), (0, 1, 0, 2), (2, 2, 4, 4))))
def test_class_ratio_matches_the_enumeration(spec):
    assert class_ratio(spec) == _enumerated_class_ratio(spec)


def test_scan_density_c4_small_range_oracle():
    c = tuple(as_factored(x) for x in (2, 3, 5, 7))
    ds = scan_density(3, c, 10**4)
    counted = skipped = hits = 0
    for p in PRIMES_10K:
        if p % 3 != 1:
            continue
        try:
            s = frobenius_vector(p, 3, c)
        except RamifiedPrimeError:
            skipped += 1
            continue
        counted += 1
        hits += in_C4(s)
    assert (ds.counted, ds.skipped) == (counted, skipped)
    assert ds.observed == hits / counted
    assert ds.expected == Fraction(25, 81)
    assert ds.dim_v == 0 and ds.degree == 81


def test_scan_density_split_oracle():
    ds = scan_density(3, (as_factored(2),), 10**4, mode="split")
    hits = counted = 0
    for p in PRIMES_10K:
        if p % 3 != 1 or p == 2:
            continue
        counted += 1
        hits += ell_power_class(2, 3, p)[1]
    assert ds.counted == counted
    assert ds.observed == hits / counted
    assert ds.expected == Fraction(1, 3)


def test_scan_density_degenerate_expectation():
    # (2, 3, 4, 9): the relation forces every Frobenius into the class
    c = tuple(as_factored(x) for x in (2, 3, 4, 9))
    ds = scan_density(3, c, 10**4)
    assert ds.expected == 1
    assert ds.observed == 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((3, 5, 7)),
    st.sampled_from(("c4", "split")),
    st.lists(st.integers(-300, 300).filter(bool), min_size=4, max_size=4),
    st.lists(st.integers(1, 40), min_size=4, max_size=4),
    st.lists(st.integers(0, 400), max_size=4),
)
@example(3, "c4", [2, 3, 5, 7], [1, 1, 1, 1], [305])  # halves of the 611 primes
def test_density_counts_merge_by_addition(ell, mode, nums, dens, cuts):
    # any split of the prime list into contiguous chunks, empty ones included
    primes = [p for p in PRIMES_10K if p % ell == 1]
    ends = [0, *sorted(min(c, len(primes)) for c in cuts), len(primes)]
    parts = [
        density_counts(primes[a:b], ell, nums, dens, mode) for a, b in zip(ends, ends[1:])
    ]
    whole = density_counts(primes, ell, nums, dens, mode)
    assert whole == tuple(map(sum, zip(*parts)))
    assert whole[0] + whole[1] == len(primes)
    # ranges of numbers cut at the same primes, whose kernel generates them
    bounds = [2, *(primes[c] if c < len(primes) else 10**4 + 1 for c in ends[1:-1]), 10**4 + 1]
    ranges = [
        density_counts(range(a, b), ell, nums, dens, mode) for a, b in zip(bounds, bounds[1:])
    ]
    assert tuple(map(sum, zip(*ranges))) == whole


def test_heuristic_sum_oracle():
    primes = list(sympy.primerange(2, 101))
    expected = sum(1 / (p - 1) ** 2 for p in primes)
    assert abs(heuristic_sum(primes) - expected) < 1e-15
    assert abs(heuristic_sum(primes) - 1.373) < 0.001


def test_heuristic_scan_counts():
    f = MultiplicativeMap.table({2: 5, 3: 7, 5: 11}, default_exponent=1)
    hs = heuristic_scan(f, (2, 3, 5), 10**4)
    assert hs.counted + hs.skipped == len(PRIMES_10K)
    assert hs.skipped == 5  # 2, 3, 5, 7, 11 divide a witness or value
    assert hs.members == 0
    with pytest.raises(WrongLengthError):
        heuristic_scan(f, (2, 3), 10**4)
    # a witness that does not factor turns the prefilter off; 0 skips every prime
    hs = heuristic_scan(lambda n: 5, (0, 2, 3), 10**4)
    assert (hs.counted, hs.skipped, hs.settled) == (0, len(PRIMES_10K), 0)


def test_heuristic_scan_factors_each_witness_once(monkeypatch):
    calls = Counter()
    factorize = ratfact.factorize

    def counting(n):
        calls[n] += 1
        return factorize(n)

    monkeypatch.setattr(ratfact, "factorize", counting)
    witnesses = (10**12 + 39, 2, 3)  # a prime past the trial division
    f = MultiplicativeMap.table({2: 5, 3: 7, 5: 11}, default_exponent=1)
    heuristic_scan(f, witnesses, 100)
    assert [calls[n] for n in witnesses] == [1, 1, 1]
    # a plain callable is still called with the int
    seen = []
    heuristic_scan(lambda n: seen.append(n) or 5, witnesses, 100)
    assert seen == list(witnesses)


def test_heuristic_scan_fans_out_without_changing_it(monkeypatch):
    # two chunks through the process pool merge to the one-process scan,
    # field by field: the table map's members and the primes its prefilter
    # settles in each chunk, and a plain callable whose first witness does
    # not factor, so no prime is settled
    from concurrent.futures import ProcessPoolExecutor

    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(_parallel, "FAN_OUT_SPAN", 1000)  # 20000 would run in one chunk
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 2)
    p = sympy.nextprime(3 * 2**510)
    unfactored = p * sympy.nextprime(p + 2**500)  # past rho's budget
    cases = (
        (MultiplicativeMap.table({2: 8, 3: 27, 5: 11}, default_exponent=3), (2, 3, 5)),
        (lambda n: 4, (unfactored, 2, 3)),
    )
    scans = []
    for f, witnesses in cases:
        one = heuristic_scan(f, witnesses, 20000)
        assert heuristic_scan(f, witnesses, 20000, workers=2) == one
        scans.append(one)
    assert pools == [2, 2]
    # the callable's members are 5 and 331
    assert [(hs.members, hs.settled > 0) for hs in scans] == [(2, True), (2, False)]


def test_character_bits_follow_eulers_criterion():
    odd_primes = PRIMES_10K[1:]
    for a in range(-100, 101):
        if a == 0:
            continue
        m = 4 * abs(a)
        nonresidue = _character_bits(as_factored(a), m).to_bytes(m, "little")
        for p in odd_primes:
            if a % p:
                euler = pow(a, (p - 1) // 2, p)
                assert nonresidue[p % m] == (euler == p - 1), (a, p)


WITNESSES = st.one_of(
    st.integers(-60, 60).filter(bool),
    st.sampled_from((1, -1, 4, -9, 36, 49)),
)


@st.composite
def heuristic_maps(draw):
    """Table maps on the primes <= 60 with negative, rational and 2^70 values."""
    keys = draw(st.lists(st.sampled_from(PRIMES_10K[:17]), unique=True, max_size=5))
    values = st.one_of(
        st.integers(-40, 40).filter(bool).map(Fraction),
        st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12)),
        st.sampled_from((Fraction(2**70), Fraction(-(3**5)), Fraction(1, 2**70))),
    )
    return MultiplicativeMap.table(
        {q: draw(values) for q in keys},
        default_exponent=draw(st.integers(-2, 3)),
        sign_value=draw(st.sampled_from((1, -1))),
    )


@settings(max_examples=120, deadline=None)
@given(
    heuristic_maps(),
    st.tuples(WITNESSES, WITNESSES, WITNESSES),
    st.integers(2, 5000),
)
def test_heuristic_scan_prefilter_is_exact(f, witnesses, x):
    # the quadratic-character prefilter settles only primes the kernel
    # counts as non-members
    values = [as_factored(f(n)) for n in witnesses]
    hs = heuristic_scan(f, witnesses, x)
    counted, skipped, members = kernels.omega_members(
        PrimeCache(x).primes,
        list(witnesses),
        [v.sign * v.num for v in values],
        [v.den for v in values],
    )
    assert (hs.counted, hs.skipped, hs.members) == (counted, skipped, len(members))
    assert 0 <= hs.settled <= hs.counted - hs.members


def test_z_transport_power_compatibility():
    rng = random.Random(601)
    primes = [p for p in PrimeCache(10**5).primes if p > 3]
    for _ in range(300):
        ell = rng.choice((3, 5, 7))
        p = rng.choice(primes)
        if p % ell != 1:
            continue
        c = Fraction(rng.randint(2, 500), rng.randint(1, 500))
        if c.numerator % p == 0 or c.denominator % p == 0:
            continue
        k = rng.randint(1, 20)
        z_c, _ = ell_power_class(c, ell, p)
        z_ck, _ = ell_power_class(c**k, ell, p)
        assert z_ck == pow(z_c, k, p)
