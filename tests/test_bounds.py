import math

import pytest
import sympy

from conftest import deadline
from localpow.bounds import (
    BoundConfig,
    chebotarev_condition,
    chebyshev_check,
    chebyshev_sweep,
    cyclotomic_discriminant,
    cyclotomic_max_term,
    euler_phi,
    iterated_log_ratio,
    kummer_disc_log_bound,
    main_bound,
    mertens_product,
    squarefree_cyclotomic_log,
    yz_schedule,
)
from localpow.errors import (
    CompositeCofactorError,
    ConfigError,
    DomainError,
    ExactRangeError,
    ScheduleDomainError,
    WrongLengthError,
)


def test_bound_config_defaults_and_validation():
    cfg = BoundConfig()
    assert cfg.M == math.log(4)
    assert cfg.c1 == cfg.c2 == cfg.implied_constant == 1.0
    assert set(cfg.to_json()) == {"M", "c1", "c2", "implied_constant"}
    with pytest.raises(ConfigError):
        BoundConfig(c2=0)
    with pytest.raises(ConfigError):
        BoundConfig(M=-1)


def test_euler_phi_matches_sympy():
    for n in range(1, 500):
        assert euler_phi(n) == sympy.totient(n)


def test_euler_phi_refusals_are_domain_errors():
    for n in (0, -12):
        with pytest.raises(DomainError, match="n >= 1"):
            euler_phi(n)
    # a 130-bit product of two 65-bit primes is past rho's step budget
    cofactor = (2**64 + 13) * 36893488147419103807
    with deadline(4), pytest.raises(CompositeCofactorError) as info:
        euler_phi(7 * cofactor)
    assert info.value.details["cofactor"] == cofactor


def test_cyclotomic_discriminant_table():
    table = {1: 1, 2: 1, 3: -3, 4: -4, 5: 125, 7: -16807, 8: 256, 12: 144}
    for n, d in table.items():
        assert cyclotomic_discriminant(n) == d


def test_cyclotomic_discriminant_size_bound():
    for n in range(1, 201):
        phi = sympy.totient(n)
        assert abs(cyclotomic_discriminant(n)) <= n**phi


def test_cyclotomic_discriminant_exact_range():
    assert cyclotomic_discriminant(10**4) != 0
    with pytest.raises(ExactRangeError) as exc:
        cyclotomic_discriminant(10**4 + 1)
    assert exc.value.details["limit"] == 10**4
    with pytest.raises(DomainError):
        cyclotomic_discriminant(0)


def test_squarefree_cyclotomic_log_matches_exact():
    for primes in ((3,), (3, 5), (3, 5, 7), (5, 11)):
        n = math.prod(primes)
        phi, log_disc = squarefree_cyclotomic_log(primes)
        assert phi == int(sympy.totient(n))
        assert math.isclose(log_disc, math.log(abs(cyclotomic_discriminant(n))))


def test_kummer_disc_log_bound_examples():
    got = kummer_disc_log_bound(3, 1, (2,))
    assert math.isclose(got, math.log(2**4 * 3**8), rel_tol=1e-12)
    got = kummer_disc_log_bound(5, 4, (2, 3, 5, 7))
    assert math.isclose(got, 2000 * math.log(210) + 10000 * math.log(5), rel_tol=1e-12)
    assert abs(got - 26788) < 1
    got = kummer_disc_log_bound(3, 1, (1,))
    assert math.isclose(got, 8 * math.log(3), rel_tol=1e-12)
    # d = 0 falls back to the cyclotomic discriminant, |d| = ell^(ell-2)
    assert math.isclose(kummer_disc_log_bound(5, 0, ()), 3 * math.log(5))
    with pytest.raises(WrongLengthError):
        kummer_disc_log_bound(3, 2, (2,))


def test_kummer_disc_bound_quintic_cap():
    # degree ell^3 case with small radicands: bound stays below 6 ell^5 log ell
    for ell in (5, 7, 11, 13):
        for c in ((2, 2, 2), (2, 3, 1), (3, 3, 1), (2, 1, 1)):
            total = sum(math.log(n) for n in c)
            if total > math.log(ell):
                continue
            got = kummer_disc_log_bound(ell, 3, c)
            assert got <= 6 * ell**5 * math.log(ell)


def test_chebotarev_condition():
    assert chebotarev_condition(math.exp(100), 4, 2.0)
    assert not chebotarev_condition(math.exp(4), 4, 2.0)
    assert chebotarev_condition(2, 10, 0.0)
    assert not chebotarev_condition(math.exp(100), 4, 2.0, BoundConfig(c2=10))
    with pytest.raises(DomainError):
        chebotarev_condition(1, 4, 2.0)


def test_yz_schedule_at_1e100():
    s = yz_schedule(1e100)
    assert abs(s.Y - 6.10) < 0.01
    assert abs(s.Z - 1.054) < 0.001
    assert not s.y_le_z  # Y > Z: the schedule is vacuous at desk scale
    assert s.cap > 0
    assert s.z_within_cap == (s.Z <= s.cap)


def test_yz_schedule_domain_error():
    with pytest.raises(ScheduleDomainError) as exc:
        yz_schedule(1000.0)
    minimal = exc.value.details["minimal_x"]
    assert math.isclose(minimal, math.exp(math.exp(math.e)))
    yz_schedule(minimal + 1)  # just inside the domain


def test_yz_schedule_m_limit():
    # as M -> 0 the Z formula approaches loglog x
    s = yz_schedule(1e100, BoundConfig(M=1e-12))
    assert math.isclose(s.Z, math.log(math.log(1e100)), rel_tol=1e-9)


def test_mertens_product_values():
    got = mertens_product(5, 20)
    expected = 1.0
    for p in (5, 7, 11, 13, 17, 19):
        expected *= 1 - 1 / (p - 1)
    assert got == expected
    assert abs(got - 0.456543) < 1e-6
    assert mertens_product(7, 7) == 1.0
    assert mertens_product(3, 5) == 0.5
    with pytest.raises(DomainError):
        mertens_product(2, 10)
    with pytest.raises(DomainError):
        mertens_product(10, 5)


def test_mertens_asymptotic_sanity():
    got = mertens_product(50, 10**5)
    ratio = got * math.log(10**5) / math.log(50)
    assert 0.3 <= ratio <= 3


def test_chebyshev_check_values():
    theta, bound, holds = chebyshev_check(10)
    assert math.isclose(theta, math.log(210))
    assert math.isclose(bound, 10 * math.log(4))
    assert holds
    theta, bound, holds = chebyshev_check(2)
    assert math.isclose(theta, math.log(2)) and holds
    with pytest.raises(DomainError):
        chebyshev_check(1.5)


def test_chebyshev_sweep_small():
    holds, first = chebyshev_sweep(10**4)
    assert holds and first is None
    # a tiny M makes the bound fail immediately
    holds, first = chebyshev_sweep(100, BoundConfig(M=0.01))
    assert not holds and first == 2


def test_cyclotomic_max_term_bound():
    for z in (10, 20, 30):
        max_term, bound, holds = cyclotomic_max_term(3, z)
        assert holds, (z, max_term, bound)
    # empty prime range: the field is Q, max term 1 = e^0
    max_term, _, holds = cyclotomic_max_term(24, 29)
    assert max_term == 1.0 and holds


def test_main_bound_at_1e8():
    mb = main_bound(1e8, 10, pi_x=5761455)
    assert mb.pi_x == 5761455
    assert abs(mb.main_term - 0.0626 * 5761455) / (0.0626 * 5761455) < 0.005
    assert mb.total == mb.main_term + 10
    assert mb.tail_term == 5761455 / (mb.schedule.Y * math.log(mb.schedule.Y))
    assert mb.split_term == math.log(mb.schedule.Y) / math.log(mb.schedule.Z) * 5761455


def test_main_bound_ratio_at_1e100():
    mb = main_bound(1e100, 0, pi_x=10**97)
    assert abs(mb.ratio - 0.527 / 1.694) < 0.01


def test_main_bound_sieves_pi_when_missing():
    mb = main_bound(10**7, 0)
    assert mb.pi_x == 664579  # pi(10^7)
    assert main_bound(1e8, 10).pi_x == 5761455
    # beyond the counting cap pi(x) must come from the caller
    with pytest.raises(DomainError):
        main_bound(1e13, 0)
    assert main_bound(1e13, 0, pi_x=346065536839).pi_x == 346065536839


def test_main_bound_schedule_error_propagates():
    with pytest.raises(ScheduleDomainError):
        main_bound(100.0, 0, pi_x=25)


def test_main_bound_constants_echoed():
    cfg = BoundConfig(implied_constant=2.5)
    mb = main_bound(1e8, 0, cfg, pi_x=5761455)
    assert mb.config is cfg
    base = main_bound(1e8, 0, pi_x=5761455)
    assert math.isclose(mb.main_term, 2.5 * base.main_term)


def test_iterated_log_ratio_eventually_decreases():
    # the decay factor llll/lll rises at desk scale and falls once
    # lll x > e; both regimes sampled through log x
    rising = [iterated_log_ratio(math.log(x)) for x in (1e8, 1e20, 1e100)]
    assert rising == sorted(rising)
    falling = [iterated_log_ratio(lx) for lx in (1e7, 1e8, 1e10, 1e14)]
    assert falling == sorted(falling, reverse=True)
    # the schedule is non-vacuous in the falling regime: Y <= Z there
    for lx in (1e7, 1e8):
        l2, l3 = math.log(lx), math.log(math.log(lx))
        l4 = math.log(l3)
        y = l3 / l4**2
        z = l2 / (3 * math.log(4) + 1)
        assert y <= z
    with pytest.raises(ScheduleDomainError):
        iterated_log_ratio(2.0)
