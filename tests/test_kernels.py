import random
from bisect import bisect_right
from collections import Counter
from itertools import islice
from math import isqrt, prod
from unittest.mock import patch

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deadline
from localpow import kernels
from localpow.chebotarev import _proportional
from localpow.kernels import pure

try:
    from localpow.kernels import _native as native
except ImportError:
    native = None

# every check of a dispatched kernel runs on each importable backend; the
# kernels that are pure under every backend are checked on pure alone
BACKENDS = (pure,) if native is None else (pure, native)
needs_native = pytest.mark.skipif(native is None, reason="compiled backend not built")
# the kernels that reach the compiled backend when it is built
DISPATCHED = ("sieve", "class_counts", "omega_members")


@needs_native
def test_a_compiled_backend_is_selected():
    assert kernels.BACKEND == "native"
    for name in DISPATCHED:
        assert getattr(kernels, name) is not getattr(pure, name), name


def test_sieve_agreement_and_oracle():
    expected = list(sympy.primerange(2, 10001))
    for mod in BACKENDS:
        assert mod.sieve(10000) == expected
        for limit in range(-2, 200):
            assert mod.sieve(limit) == expected[: bisect_right(expected, limit)], limit


# every prime the prime_segments tests ask for, up to past the first
# SEGMENT boundary at the largest modulus
SEGMENT_ORACLE = pure.sieve(26 * pure.SEGMENT + 10**4)
MODULI = (2, 6, 10, 14, 22, 26)  # 2 and 2·ell for ell in 3, 5, 7, 11, 13


@st.composite
def segment_windows(draw):
    s = draw(st.sampled_from(MODULI))
    # lo and hi around 0, 1, 2, ell and 2·ell + 1, or anywhere below 3000
    near = st.sampled_from((0, 1, 2, s // 2, s + 1)).flatmap(
        lambda a: st.integers(a - 2, a + 2)
    )
    lo = draw(st.one_of(near, st.integers(0, 3000)))
    hi = draw(st.one_of(near, st.integers(0, 3000)))
    return s, lo, hi, draw(st.sampled_from((1, 2, 7, 64, pure.SEGMENT)))


def _segment_oracle(lo, hi, s):
    below = SEGMENT_ORACLE[: bisect_right(SEGMENT_ORACLE, hi - 1)]
    return [p for p in below if p >= lo and p % s == 1]


@settings(max_examples=300, deadline=None)
@given(segment_windows())
def test_prime_segments_match_the_sieve(window):
    # small segments make most windows cross several segment boundaries
    s, lo, hi, segment = window
    with patch.object(pure, "SEGMENT", segment):
        segments = list(kernels.prime_segments(lo, hi, s))
    assert [p for part in segments for p in part] == _segment_oracle(lo, hi, s)
    assert all(len(part) <= segment for part in segments)


@pytest.mark.parametrize("s", (2, 6, 26))
def test_prime_segments_cross_the_segment_boundary(s):
    # from lo <= s + 1 the first segment ends at the candidate s·SEGMENT + 1
    edge = s * (pure.SEGMENT + 1) + 1
    for lo in (0, 2, s + 1):
        for hi in (edge - s, edge, edge + 1, edge + s + 1):
            segments = list(kernels.prime_segments(lo, hi, s))
            assert len(segments) == 1 + (hi > edge), (lo, hi)
            assert [p for part in segments for p in part] == _segment_oracle(lo, hi, s)


def test_prime_segments_need_a_positive_modulus():
    for s in (0, -6):
        with pytest.raises(ValueError):
            list(kernels.prime_segments(2, 100, s))


def test_count_primes_oracle():
    for x in (1, 2, 10, 100, 6000, 10**5):
        assert pure.count_primes(x) == sympy.primepi(x)


def test_count_primes_matches_a_running_sieve_count():
    primes = pure.sieve(10**6 + 1)
    flags = set(primes)
    running = 0
    for x in range(2 * 10**4 + 1):
        running += x in flags
        assert kernels.count_primes(x) == running, x
    # the sum turns on the squares of primes
    for p in primes[: bisect_right(primes, 1000)]:
        for x in (p * p - 1, p * p, p * p + 1):
            assert kernels.count_primes(x) == bisect_right(primes, x), x


def test_count_primes_published_values():
    published = (0, 4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534)
    for k, expected in enumerate(published):
        assert kernels.count_primes(10**k) == expected, k


def test_count_primes_is_pure_under_every_backend():
    for name in (
        "count_primes", "prime_segments", "is_prime", "factorize", "discrete_log",
        "z_b_rows",
    ):
        assert getattr(kernels, name) is getattr(pure, name), name


def test_is_prime_agreement():
    rng = random.Random(201)
    samples = list(range(2, 500)) + [rng.randint(2, 2**62) for _ in range(100)]
    for n in samples:
        assert pure.is_prime(n) == sympy.isprime(n)


# psi_1 .. psi_13 (OEIS A014233): psi_t is the least odd composite that is a
# strong probable prime to each of the first t prime bases
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def test_is_prime_table_past_the_twelve_bases():
    # psi_12 and psi_13 pass Miller-Rabin to the bases 2..37, which is exact
    # only below 2^64; p·(2p - 1) with both factors prime passes more bases
    # than a random composite; and two Mersenne primes, with random odd n
    # of 65 to 600 bits, for the primes and composites above 2^64
    table = list(PSI)
    p = 2**40
    while len(table) < len(PSI) + 6:
        p = sympy.nextprime(p)
        if sympy.isprime(2 * p - 1):
            table.append(p * (2 * p - 1))
    table += [2**1279 - 1, 2**2203 - 1]
    rng = random.Random(2203)
    table += [rng.getrandbits(rng.randint(65, 600)) | 2**64 | 1 for _ in range(300)]
    for n in table:
        assert pure.is_prime(n) == sympy.isprime(n), n
    assert not any(map(pure.is_prime, PSI))
    assert pure.is_prime(2**1279 - 1) and pure.is_prime(2**2203 - 1)


def test_factorize_agreement():
    rng = random.Random(202)
    samples = [rng.randint(2, 10**12) for _ in range(100)] + [
        2,
        2**40,
        3**25,
        (10**6 + 3) ** 2,
        # trial division ends on 9973 = the largest prime below 10^4
        9973**2,
        9973 * 10007,
        10007**2,
        (10**9 + 7) * (10**9 + 9),
        # the primes below 10^6 that the c = 1 and c = 2 rho walks take
        # longest to find: 7806 and 7678 steps
        874771 * (2**127 - 1),
        874771 * 654053,
    ]
    for n in samples:
        assert pure.factorize(n) == sorted(sympy.factorint(n).items())
    # past 1448 bits a walk gets the floor of 2^13 steps, still enough
    mersenne = 2**2203 - 1
    assert pure.factorize(874771 * mersenne) == [(874771, 1), (mersenne, 1)]


def test_factorize_raises_with_the_cofactor_rho_leaves():
    p = sympy.nextprime(3 * 2**510)
    q = sympy.nextprime(p + 2**500)
    with pytest.raises(ArithmeticError) as exc:
        pure.factorize(2**5 * 10007 * p * q)
    assert exc.value.args[1:] == (p * q, 2**34 // 1024**2)


def test_discrete_log_random_instances():
    rng = random.Random(203)
    primes = pure.sieve(100000)[3:]
    for _ in range(200):
        p = rng.choice(primes)
        g = rng.randint(2, p - 1)
        e = rng.randint(0, p - 2)
        h = pow(g, e, p)
        x = sympy.discrete_log(p, h, g)
        assert pow(g, x, p) == h
        assert pure.discrete_log(g, h, p) == x


def test_discrete_log_smallest_solution_small_primes():
    rng = random.Random(204)
    for _ in range(200):
        p = rng.choice((7, 11, 13, 31, 61, 97, 151, 241))
        g = rng.randint(1, p - 1)
        h = pow(g, rng.randint(0, p - 2), p)
        brute = next(k for k in range(p - 1) if pow(g, k, p) == h)
        assert pure.discrete_log(g, h, p) == brute


def test_discrete_log_outside_subgroup():
    # 3 generates the order-3 subgroup mod 13; 2 is a primitive root
    with pytest.raises(ValueError):
        pure.discrete_log(3, 2, 13)
    with pytest.raises(ValueError):
        pure.discrete_log(0, 1, 13)
    with pytest.raises(ValueError):
        pure.discrete_log(2, 0, 13)


def test_kernels_raise_the_same_errors():
    for n in (0, -5, -(2**70)):
        with pytest.raises(ValueError):
            pure.factorize(n)
    with pytest.raises(ZeroDivisionError):
        pure.discrete_log(2, 3, 0)
    for mod in BACKENDS:
        with pytest.raises(ZeroDivisionError):
            mod.class_counts([0], 3, [2], [1], 0)
        with pytest.raises(ValueError):
            mod.class_counts([7], 0, [2], [1], 0)
        with pytest.raises(ValueError):
            # k > 0 must halve the tuple
            mod.class_counts([7], 3, [2, 3, 5], [1, 1, 1], 1)
    with pytest.raises(ArithmeticError):
        # z = 3^3 = 5 mod 11 is none of the ell = 3 powers 1, 8, 9 of the
        # base 2^3
        pure.z_b_rows([11], 3, [3], [1])


def test_class_counts_off_contract_inputs_agree_across_backends():
    # p = 11 is not 1 mod 3, so chi(3) = 3^3 = 5 lies outside mu_3 and no
    # log exists: no hit; 91 = 7·13 is no prime, and chi(3) = 3^30 = 1
    # follows chi(2) = 2^30 = 64 as its 0th power: a hit.  Neither input is
    # checked, but both backends answer alike
    assert pure.class_counts([11], 3, [3, 2], [1, 1], 1) == (1, 0, 0)
    assert pure.class_counts([91], 3, [2, 3], [1, 1], 1) == (1, 0, 1)
    # above 47 the primes not 1 mod ell take baby-step giant-step logs
    # whose base can have an order below the baby-step count; these tuples
    # meet such a base, where both backends keep the last baby step a
    # repeated element reaches
    primes = pure.sieve(20000)
    for args in (([11], 3, [3, 2], [1, 1], 1), ([91], 3, [2, 3], [1, 1], 1),
                 (primes, 59, [111, 42, 25, 9], [1, 1, 1, 1], 2),
                 (primes, 71, [54, 307, 265, 265], [1, 1, 1, 1], 2)):
        expected = pure.class_counts(*args)
        for mod in BACKENDS:
            assert mod.class_counts(*args) == expected, (mod.BACKEND, args)


def test_z_b_rows_agreement_and_oracle():
    ell = 5
    primes = [p for p in pure.sieve(3000) if p % ell == 1]
    nums = [2, -3, 7, 10]
    dens = [1, 2, 3, 1]
    for p, zs, bs in pure.z_b_rows(primes, ell, nums, dens):
        if zs is None:
            assert any(n % p == 0 or d % p == 0 for n, d in zip(nums, dens))
            assert bs is None
            continue
        e = (p - 1) // ell
        w = next(a for a in range(2, p) if pow(a, e, p) != 1)
        zeta = pow(w, e, p)
        for z, b, n, d in zip(zs, bs, nums, dens):
            assert z == pow(n % p * pow(d, -1, p) % p, e, p)
            assert 0 <= b < ell
            assert pow(zeta, b, p) == z


def _class_counts_oracle(primes, ell, nums, dens, k):
    # the z_b_rows log vectors, tested by _proportional or for all-trivial
    counted = skipped = hits = 0
    for _, zs, bs in pure.z_b_rows(primes, ell, nums, dens):
        if zs is None:
            skipped += 1
            continue
        counted += 1
        hits += _proportional(bs, k, ell) if k else all(z == 1 for z in zs)
    return counted, skipped, hits


# ell = 53 and 101 exceed 47, so the class test takes its logs by
# baby-step giant-step; their primes run further, to keep dozens of them
SPLIT_PRIMES = {
    ell: [p for p in pure.sieve(4000 if ell < 50 else 30000) if p % ell == 1]
    for ell in (3, 5, 7, 11, 13, 53, 101)
}


@st.composite
def class_count_cases(draw):
    ell = draw(st.sampled_from(sorted(SPLIT_PRIMES)))
    primes = SPLIT_PRIMES[ell]
    width = draw(st.integers(1, 3)) * 2
    k = draw(st.sampled_from((0, width // 2)))
    # some entries carry a split prime, so that prime divides a numerator
    # or a denominator and is skipped
    factor = st.one_of(st.just(1), st.sampled_from(primes[:12]))
    nums = [
        draw(st.sampled_from((1, -1))) * draw(st.integers(0, 400)) * draw(factor)
        for _ in range(width)
    ]
    dens = [draw(st.integers(1, 60)) * draw(factor) for _ in range(width)]
    return primes, ell, nums, dens, k


@settings(max_examples=200, deadline=None)
@given(class_count_cases())
def test_class_counts_match_the_log_vector_oracle(case):
    expected = _class_counts_oracle(*case)
    for mod in BACKENDS:
        assert mod.class_counts(*case) == expected, mod.BACKEND
    assert kernels.class_counts(*case) == expected


def test_class_counts_at_a_large_ell_take_square_root_logs():
    # ell = 1,000,003: a log of about 2·sqrt(ell) steps per prime, a few
    # milliseconds in all on pure, where an ell-step walk per prime took
    # about 1.8 s for both calls on a 2-core x86-64 machine
    ell = 1_000_003
    candidates = (2 * ell * i + 1 for i in range(1, 1000))
    primes = list(islice(filter(pure.is_prime, candidates), 10))
    nums, dens = [2, 3, 5, 7], [1, 1, 1, 1]
    expected = _class_counts_oracle(primes, ell, nums, dens, 2)
    for mod in BACKENDS:
        with deadline(0.25):
            assert mod.class_counts(primes, ell, nums, dens, 2) == expected, mod.BACKEND
            # a hit at each prime: the second half's characters are the
            # first half's squared
            assert mod.class_counts(primes, ell, [2, 3, 4, 9], dens, 2) == (10, 0, 10)


def test_class_counts_skip_every_prime_at_a_zero_entry():
    primes = SPLIT_PRIMES[3]
    for mod in BACKENDS:
        for k in (0, 1):
            assert mod.class_counts(primes, 3, [2, 0], [1, 1], k) == (0, len(primes), 0)


def test_class_counts_oracle_at_the_benchmark_tuple():
    # the c4 tuple (2, 3, 5, 7) and the split pair (2, 5) at ell = 3, over
    # larger primes than the Hypothesis cases reach
    primes = SPLIT_PRIMES[3] + [p for p in pure.sieve(60000) if p % 3 == 1 and p > 4000]
    for nums, k in (([2, 3, 5, 7], 2), ([2, 5], 0), ([-2, 3, 5, -7], 2)):
        dens = [1] * len(nums)
        expected = _class_counts_oracle(primes, 3, nums, dens, k)
        for mod in BACKENDS:
            assert mod.class_counts(primes, 3, nums, dens, k) == expected


def _primary_norms(limit):
    # (p, a, b) for each prime p < limit, p ≡ 1 (mod 3), with its primary
    # pi = a + b·omega, a ≡ 2 (mod 3), b = 3n > 0, found by walking (a, b)
    out = []
    for b in range(3, isqrt(4 * limit // 3) + 1, 3):
        for a in range(b - isqrt(4 * limit), b + isqrt(4 * limit) + 1):
            p = a * a - a * b + b * b
            if a % 3 == 2 and p < limit and pure.is_prime(p):
                out.append((p, a, b))
    return sorted(out)


PRIMARY = _primary_norms(2 * 10**5)


def test_primary_norms_list_each_prime_once():
    assert [p for p, _, _ in PRIMARY] == [p for p in pure.sieve(2 * 10**5) if p % 3 == 1]


def test_cubic_characters_match_powers():
    # chi_p(q) = q^((p-1)/3) mod p equals omega^e, omega ≡ -a/b (mod p), with
    # e read from q's table at t ≡ a/b (mod q) (0 where q | b), and
    # e = 2n for q = 3; every prime q <= 59, and the largest of each class
    # mod 3 under the cap
    qs = [*pure.sieve(59), 4091, 4093]
    assert max(qs) <= pure.CUBIC_TABLE_CAP < pure._TRIAL_PRIMES[pure._TRIAL_PRIMES.index(4093) + 1]
    tables = {q: pure._cubic_characters(q) for q in qs if q != 3}
    for p, a, b in PRIMARY:
        omega = -a * pow(b, -1, p) % p
        for q in qs:
            if q == p:
                continue
            if q == 3:
                e = 2 * (b // 3) % 3
            else:
                e = tables[q][a * pow(b, -1, q) % q] if b % q else 0
            assert pow(q, (p - 1) // 3, p) == pow(omega, e, p), (p, q)


def _segment_counts(lo, hi, nums, dens, k):
    counts = [(0, 0, 0)]
    counts += (pure.class_counts(ps, 3, nums, dens, k) for ps in pure.prime_segments(lo, hi, 6))
    return tuple(map(sum, zip(*counts)))


# 3; primes 2 and 5 mod 3; split primes, which an entry's range skips; the
# largest prime under the cap and the least above it
CUBIC_FACTORS = (2, 3, 5, 7, 11, 13, 19, 29, 31, 4093, 4099)


@st.composite
def cubic_cases(draw):
    lo = draw(st.integers(0, 2 * 10**5))
    hi = draw(st.integers(0, 2 * 10**5))
    k = draw(st.sampled_from((0, 1, 2)))
    width = 2 * k if k else draw(st.integers(1, 4))

    def value():
        return prod(draw(st.lists(st.sampled_from(CUBIC_FACTORS), max_size=3)))

    nums = [draw(st.sampled_from((1, -1))) * value() for _ in range(width)]
    dens = [value() for _ in range(width)]
    if width > 1 and draw(st.booleans()):  # an entry dependent on the others
        nums[-1] = nums[0] ** draw(st.integers(1, 3)) * nums[1 % (width - 1)]
    if draw(st.integers(0, 9)) == 0:
        nums[draw(st.integers(0, width - 1))] = 0
    return lo, hi, nums, dens, k


@settings(max_examples=80, deadline=None)
@given(cubic_cases())
def test_cubic_class_counts_match_the_per_prime_kernel(case):
    lo, hi, nums, dens, k = case
    expected = _segment_counts(*case)
    got = pure.cubic_class_counts(*case)
    if got is None:
        # declined: an entry 0 or with a factor above the cap, or a decision
        # table past it; class_counts then decides each prime
        assert pure.cubic_factors(nums, dens) is None
        assert kernels.class_counts_range(lo, hi, 3, nums, dens, k) == expected
    else:
        assert got == expected


def test_cubic_class_counts_decline_past_the_cap():
    assert pure.cubic_factors([2, 4093], [1, 1]) is not None
    assert pure.cubic_factors([2, 4099], [1, 1]) is None
    assert pure.cubic_factors([2, 3], [1, 4099]) is None
    assert pure.cubic_factors([2, 0], [1, 1]) is None
    # an entry with 12 prime factors of exponent prime to 3 has log sums
    # 0..24: three such entries make 25^3 decision keys, past the cap
    big = prod(pure._TRIAL_PRIMES[:12])
    assert pure.cubic_factors([big, big, big, 2], [1, 1, 1, 1]) is None
    assert pure.cubic_class_counts(2, 1000, [2, 4099], [1, 1], 0) is None
    with pytest.raises(ValueError):
        pure.cubic_class_counts(2, 1000, [2, 3, 5], [1, 1, 1], 1)


def _spy(monkeypatch, name, arg):
    # argument arg of each call of pure.<name>, in order
    calls, fn = [], getattr(pure, name)

    def spy(*args):
        calls.append(args[arg])
        return fn(*args)

    monkeypatch.setattr(pure, name, spy)
    return calls


# c4 and split tuples: the benchmark's, and signs, denominators and 3
CUBIC_EDGE_TUPLES = (
    ([2, 3, 5, 7], [1, 1, 1, 1], 2),
    ([42, 9, 38, 39], [1, 1, 1, 1], 2),
    ([-2, 3, 14, 5], [9, 1, 1, 1], 2),
    ([7, 29], [1, 1], 0),
    ([12, 18], [1, 7], 0),
)


def test_cubic_windows_meet_at_their_edges(monkeypatch):
    # windows of 8·isqrt(hi) = 3576 candidates cut [lo, 2·10^5) at least 3
    # times; the middle lo, not ≡ 1 (mod 6), lies inside the second window
    # of the walk from lo = 0, so its windows start where that walk's do not
    monkeypatch.setattr(pure, "CUBIC_WINDOW", 8)
    width = 8 * isqrt(2 * 10**5 - 1)
    starts = _spy(monkeypatch, "_cubic_window_hits", 1)
    for lo in (0, 6 * (width + width // 2) + 4, 10**5 + 3):
        for nums, dens, k in CUBIC_EDGE_TUPLES:
            del starts[:]
            got = pure.cubic_class_counts(lo, 2 * 10**5, nums, dens, k)
            assert got == _segment_counts(lo, 2 * 10**5, nums, dens, k), (lo, nums)
            assert len(starts) >= 3 and starts[0] == max(1, -(-(lo - 1) // 6))
            assert {b - a for a, b in zip(starts, starts[1:])} == {width}


def test_cubic_windows_stop_at_their_cap(monkeypatch):
    # the real cap is reached only past hi ≈ 6.7·10^7; lowered under
    # CUBIC_WINDOW·isqrt(hi), it cuts [2, 2·10^5) into 34 windows of
    # CUBIC_WINDOW_CAP candidates, the last one shorter
    hi = 2 * 10**5
    monkeypatch.setattr(pure, "CUBIC_WINDOW", 64)
    monkeypatch.setattr(pure, "CUBIC_WINDOW_CAP", 1000)
    assert 64 * isqrt(hi - 1) > 1000
    starts = _spy(monkeypatch, "_cubic_window_hits", 1)
    for nums, dens, k in CUBIC_EDGE_TUPLES:
        del starts[:]
        assert pure.cubic_class_counts(2, hi, nums, dens, k) == _segment_counts(2, hi, nums, dens, k)
        assert starts == list(range(1, -(-(hi - 1) // 6), 1000))  # n = 6i + 1 < hi


def test_cubic_key_tables_by_group(monkeypatch):
    # a key prime that divides b leaves its group's table: 2 at every even
    # b, 7 and 13 at odd b = 21, 39 and 273 = 3·7·13.  The key primes of
    # 2,5,7,59 multiply to 4130, past the cap, so they make two groups,
    # (2,5,7) and (59,), and a prime takes one lookup in each.  2·4091 and
    # 4093 are under the cap, and no two of their key primes 2, 4091, 4093
    # multiply within it, so each is a group of its own: one lookup per q
    assert 2 * 5 * 7 * 59 > pure.CUBIC_TABLE_CAP and 2 * 4091 > pure.CUBIC_TABLE_CAP
    built = _spy(monkeypatch, "_cubic_key_table", 1)
    primes = [p for p in pure.sieve(2 * 10**5) if p % 3 == 1]
    cases = (
        ([2, 7, 13, 5], 2, {(2, 5, 7, 13), (5, 7, 13), (2, 5, 13), (2, 5, 7), (2, 5)}),
        ([7, 13], 0, {(7, 13), (13,), (7,), ()}),
        ([2, 5, 7, 59], 2, {(2, 5, 7), (5, 7), (2, 5), (2, 7), (59,), ()}),
        ([2 * 4091, 4093], 0, {(2,), (), (4091,), (4093,)}),
    )
    for nums, k, tables in cases:
        del built[:]
        dens = [1] * len(nums)
        got = pure.cubic_class_counts(2, 2 * 10**5, nums, dens, k)
        assert got == pure.class_counts(primes, 3, nums, dens, k), nums
        assert tables <= set(built), nums
        assert all(prod(qs) <= pure.CUBIC_TABLE_CAP for qs in built), nums
    assert set(built) == {(2,), (), (4091,), (4093,)}


def test_class_counts_range_at_the_benchmark_tuples():
    # both decision paths of a range, at ell = 3 and beyond
    for ell, nums, k in ((3, [2, 3, 5, 7], 2), (3, [2, 5], 0), (5, [2, 3, 5, 7], 2)):
        dens = [1] * len(nums)
        primes = [p for p in pure.sieve(60000) if p % ell == 1]
        assert kernels.class_counts_range(2, 60001, ell, nums, dens, k) == pure.class_counts(
            primes, ell, nums, dens, k
        )


def _outcome(fn, *args):
    # the return value, or the type of the exception raised
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def _omega_brute_force(primes, ns, fnums, fdens):
    # (counted, skipped, [(p, k, m)]) by trying k = 0, 1, ..., p - 2
    counted = skipped = 0
    members = []
    for p in primes:
        if any(v % p == 0 for v in ns + fnums + fdens):
            skipped += 1
            continue
        counted += 1
        targets = [fn * pow(fd, -1, p) % p for fn, fd in zip(fnums, fdens)]
        powers = [1] * len(ns)  # n_j^k
        ks = []
        for k in range(p - 1):
            if powers == targets:
                ks.append(k)
                if len(ks) == 2:
                    break
            powers = [w * n % p for w, n in zip(powers, ns)]
        if ks:
            # the k that fit are ks[0] + mZ with m | p - 1, so a second one
            # below p - 1 exists exactly when m < p - 1
            members.append((p, ks[0], ks[1] - ks[0] if len(ks) == 2 else p - 1))
    return counted, skipped, members


def _projections_agree(ns, fs, q, p):
    # is there k mod q with n_j^(k·m) == f_j^m (mod p), m = (p-1)/q?
    m = (p - 1) // q
    return any(all(pow(n, k * m, p) == pow(f, m, p) for n, f in zip(ns, fs)) for k in range(q))


def test_omega_members_agreement_and_brute_force():
    primes = pure.sieve(3000)
    cases = [
        ([2, 3, 5], [5, 7, 11], [1, 1, 1]),
        ([2, 3, 5], [4, 9, 25], [1, 1, 1]),
        ([2, 3], [8, 27], [1, 1]),
        ([2, 3], [1, 2], [2, 1]),
        # rejected at p = 107 = 2*53 + 1 only by its order-53 component
        ([2, 3], [4, 3], [1, 1]),
        # rejected at p = 17 = 2^4 + 1 only by its order-16 component
        ([2, 3], [2, 5], [1, 1]),
        # x -> x^3 with a square first: at q = 2 the pivot is a later witness
        ([4, 3, 5], [64, 27, 125], [1, 1, 1]),
        # a member at p = 107, whose order-53 component is checked by BSGS
        ([2, 3], [9, 10], [1, 1]),
        # x -> x^3: where 4 | ord(2), the order-2^e component's largest
        # projection is the second entry's
        ([4, 2], [64, 8], [1, 1]),
        # witnesses +-1
        ([1, -1, 3], [1, -1, 27], [1, 1, 1]),
        ([-1, 2], [-1, 4], [1, 1]),
        ([1, 5], [2, 5], [1, 1]),
        # f values wider than 64 bits
        ([2, 3], [2**70, 3**45], [1, 1]),
        ([2, 3, 5], [2**64 + 1, 3**41, 5], [1, 1, 7**23]),
    ]
    p = 107
    assert not any(pow(2, k, p) == 4 and pow(3, k, p) == 3 for k in range(p - 1))
    assert any(pow(2, 53 * k, p) == pow(4, 53, p) and pow(3, 53 * k, p) == pow(3, 53, p)
               for k in range(2))
    assert any(pow(2, k, p) == 9 and pow(3, k, p) == 10 for k in range(p - 1))
    p = 17
    assert _projections_agree([2, 3], [2, 5], 2, p)
    assert not any(pow(2, k, p) == 2 and pow(3, k, p) == 5 for k in range(p - 1))
    for ns, fnums, fdens in cases:
        got = pure.omega_members(primes, ns, fnums, fdens)
        assert got == _omega_brute_force(primes, ns, fnums, fdens), (ns, fnums, fdens)
        # the compiled kernel answers, or raises OverflowError on a value
        # wider than its words, and the dispatch layer then reruns pure
        assert kernels.omega_members(primes, ns, fnums, fdens) == got
        if native is not None:
            assert _outcome(native.omega_members, primes, ns, fnums, fdens) in (
                got, OverflowError
            ), (ns, fnums, fdens)


@st.composite
def omega_cases(draw):
    ns = draw(st.lists(st.integers(1, 60), min_size=3, max_size=3))
    k = draw(st.integers(0, 9))
    fnums, fdens = [], []
    for n in ns:
        # f(n) = n^k is a member at every prime; another exponent, a sign, a
        # factor or a denominator leaves members at some primes only
        num, den = n**k, 1
        change = draw(st.integers(0, 6))
        if change == 1:
            num = n ** draw(st.integers(0, 9))
        elif change == 2:
            num = -num
        elif change == 3:
            num *= draw(st.sampled_from((2, 3, 5, 7)))
        elif change == 4:
            den = draw(st.sampled_from((2, 11)))
        fnums.append(num)
        fdens.append(den)
    return ns, fnums, fdens


OMEGA_PRIMES = pure.sieve(500)


@settings(max_examples=60, deadline=None)
@given(omega_cases())
def test_omega_members_match_the_brute_force(case):
    expected = _omega_brute_force(OMEGA_PRIMES, *case)
    for mod in BACKENDS:
        assert mod.omega_members(OMEGA_PRIMES, *case) == expected, mod.BACKEND
    assert kernels.omega_members(OMEGA_PRIMES, *case) == expected


def _parity_codes(primes, ns, fnums, fdens):
    # the parities of k the quadratic characters allow, by Euler's criterion:
    # bit 1 every (f_j/p) = 1, bit 2 every (f_j/p) = (n_j/p); -1 at p = 2
    # and at a p dividing some n_j·fn_j·fd_j
    codes = []
    for p in primes:
        if p == 2 or any(v % p == 0 for v in ns + fnums + fdens):
            codes.append(-1)
            continue
        half = (p - 1) // 2
        n_chars = [pow(n, half, p) for n in ns]
        f_chars = [pow(fn * fd, half, p) for fn, fd in zip(fnums, fdens)]
        codes.append(all(c == 1 for c in f_chars) + 2 * (f_chars == n_chars))
    return codes


@st.composite
def parity_cases(draw):
    ns, fnums, fdens = draw(omega_cases())
    ns = [n * draw(st.sampled_from((1, -1))) for n in ns]
    if draw(st.booleans()):
        fnums[draw(st.integers(0, 2))] = draw(st.sampled_from((2**70, -(2**70), 3 * 2**70)))
    return ns, fnums, fdens


@settings(max_examples=60, deadline=None)
@given(parity_cases())
def test_omega_members_read_the_parity_codes(case):
    codes = _parity_codes(OMEGA_PRIMES, *case)
    expected = _omega_brute_force(OMEGA_PRIMES, *case)
    unread = [-1] * len(OMEGA_PRIMES)
    assert pure.omega_members(OMEGA_PRIMES, *case, codes) == expected
    assert pure.omega_members(OMEGA_PRIMES, *case, unread) == expected
    assert kernels.omega_members(OMEGA_PRIMES, *case, codes) == expected
    if native is not None:
        # a 2^70 value is wider than the compiled kernel's words
        for parities in (codes, unread, None):
            got = _outcome(native.omega_members, OMEGA_PRIMES, *case, parities)
            assert got in (expected, OverflowError), parities


def test_omega_members_reject_at_code_0_and_refuse_bad_codes():
    # x -> x^3 makes 7 a member, with code 2 (k odd); code 0 says no parity fits
    cube = ([2, 3], [8, 27], [1, 1])
    for mod in (*BACKENDS, kernels):
        assert mod.omega_members([7], *cube, [2]) == (1, 0, [(7, 3, 6)])
        assert mod.omega_members([7], *cube, [0]) == (1, 0, [])
        for bad in ([4], [-2], [-1, -1], []):
            with pytest.raises(ValueError):
                mod.omega_members([7], *cube, bad)
    with pytest.raises(ValueError):
        kernels.omega_members([7], *cube, [2**70])


def test_omega_members_walk_every_small_order():
    # Orders q <= 47 are walked, so BSGS runs only for a component of prime
    # order above 47, once per digit, and only at the primes whose small
    # projections all allow a common exponent.  53 calls at this shape.
    primes = pure.sieve(20000)
    calls = []
    bsgs = pure._bsgs

    def counting(base, target, order, p):
        calls.append((order, p))
        return bsgs(base, target, order, p)

    with patch.object(pure, "_bsgs", counting):
        got = pure.omega_members(primes, [2, 17, 29], [53, 89, 67], [1, 1, 1])
    assert got == (len(primes) - 6, 6, [])
    assert len(calls) == 53
    for (order, p), n in Counter(calls).items():
        assert order > 47 and (p - 1) % order == 0, (order, p)
        assert n <= dict(pure.factorize(p - 1))[order], (order, p)


def test_dispatch_falls_back_beyond_64_bits():
    # inputs wider than a machine word must still work through the
    # dispatch layer, matching the pure backend exactly
    primes = [p for p in pure.sieve(2000) if p % 3 == 1]
    big = 50**12  # above 2^63
    for k in (0, 1):
        got = kernels.class_counts(primes, 3, [2, big], [1, 1], k)
        assert got == pure.class_counts(primes, 3, [2, big], [1, 1], k)
        got = kernels.class_counts(primes, 3, [2, 5], [big, 1], k)
        assert got == pure.class_counts(primes, 3, [2, 5], [big, 1], k)
    got = kernels.omega_members(primes, [2, 3], [2**70, 3**45], [1, 1])
    assert got == pure.omega_members(primes, [2, 3], [2**70, 3**45], [1, 1])
    assert kernels.factorize(2**70) == [(2, 70)]
    # an ell or a k too wide for a word, and a negative prime
    got = kernels.class_counts(primes, 2**63 + 1, [2, 5], [1, 1], 0)
    assert got == pure.class_counts(primes, 2**63 + 1, [2, 5], [1, 1], 0)
    with pytest.raises(ValueError):
        kernels.class_counts(primes, 3, [2, 5], [1, 1], 2**63)
    with pytest.raises(ValueError):
        kernels.omega_members([-7], [1], [1], [1])


# values at the edges of the compiled kernels' 64-bit words
NATIVE_MAX_WIDTH = 64  # MAX_WIDTH in _native.c: a wider tuple raises OverflowError
WORD_EDGES = (2**63 - 1, 2**63, 2**64 - 59, 2**64, -(2**63), -(2**63) - 1, 2**70)
ABOVE_2_63 = 9223372036854775837  # the least prime above 2^63


def _word_edge_cases():
    # (kernel name, args) at small primes, so that pure stays quick: a huge
    # ell only with k = 0, and no prime above 2^63 in omega_members (pure
    # would run BSGS on a huge order)
    split = [p for p in pure.sieve(300) if p % 3 == 1]
    small = pure.sieve(200)
    # x -> x^3 makes every prime that divides no n_j a member
    members = pure.sieve(1000)
    bases = pure.sieve(400)[: NATIVE_MAX_WIDTH + 1]
    for width in range(1, NATIVE_MAX_WIDTH + 2):
        nums = bases[:width]
        for k in {0, width // 2}:
            yield "class_counts", (split, 3, nums, [1] * width, k)
        yield "omega_members", (members, nums, [n**3 for n in nums], [1] * width)
    for v in WORD_EDGES:
        for ns, fnums, fdens in (
            ([v, 3], [8, 27], [1, 1]), ([2, 3], [v, 27], [1, 1]), ([2, 3], [8, 27], [v, 1]),
        ):
            yield "omega_members", (small, ns, fnums, fdens)
        for k in (0, 1):
            yield "class_counts", (split, 3, [v, 5], [1, 1], k)
            yield "class_counts", (split, 3, [2, 5], [v, 1], k)
        yield "class_counts", (split, v, [2, 5], [1, 1], 0)
        yield "class_counts", (split, 3, [2, 5], [1, 1], v)
        if v < 0:
            yield "sieve", (v,)
    yield "class_counts", (split, 2**70 + 1, [2, 5], [1, 1], 0)
    yield "class_counts", (split, 3, [2, 5], [1, 1], 2**70)
    # a prime above 2^63 cast to a signed word would reduce mod 2^64 - p,
    # sending 2^64 - p to 0
    for v in (2**64 - ABOVE_2_63, *WORD_EDGES):
        for k in (0, 1):
            yield "class_counts", ([ABOVE_2_63], 3, [v, 5], [1, 1], k)
    yield "class_counts", ([-7], 3, [2, 3], [1, 1], 0)
    yield "omega_members", ([-7], [1], [1], [1])


def test_kernels_agree_with_pure_at_the_word_edges():
    assert sympy.nextprime(2**63) == ABOVE_2_63
    # members near 2^61, whose CRT moduli need 128-bit products: 2 and 3
    # generate the subgroup of index 9 mod p, 3 and 5 every unit
    p = 2**61 - 1
    for case, member in (
        (([2, 3], [8, 27], [1, 1]), (p, 3, (p - 1) // 9)),
        (([3, 5], [3**5, 5**5], [1, 1]), (p, 5, p - 1)),
    ):
        for mod in BACKENDS:
            assert mod.omega_members([p], *case) == (1, 0, [member]), mod.BACKEND
    for name, args in _word_edge_cases():
        expected = _outcome(getattr(pure, name), *args)
        # the dispatch layer returns pure's answer or raises pure's type
        assert _outcome(getattr(kernels, name), *args) == expected, (name, args)
        # the compiled kernel answers exactly, or raises OverflowError
        if native is not None:
            got = _outcome(getattr(native, name), *args)
            assert got in (expected, OverflowError), (name, args, got)
