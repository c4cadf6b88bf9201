"""End-to-end acceptance checks, one test per numbered criterion.

Each criterion is exercised at its stated tolerance; the conftest terminal
summary prints one pass/fail line per criterion after the run.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product

import sympy

from localpow import kernels
from localpow.bounds import (
    chebyshev_sweep,
    cyclotomic_discriminant,
    main_bound,
    mertens_product,
    yz_schedule,
)
from localpow.chebotarev import (
    frobenius_vector,
    heuristic_scan,
    heuristic_sum,
    in_C4,
    scan_density,
)
from localpow.lattice import (
    build_lattice,
    integer_kernel,
    kernel_mod_ell,
    kummer_degree,
    relations,
)
from localpow.modular import PrimeCache, ell_power_class
from localpow.powermap import MultiplicativeMap, scan_Sf
from localpow.ratfact import as_factored

import random

TABLE_F = json.dumps(
    {
        "kind": "table",
        "sign_value": 1,
        "default_exponent": 1,
        "overrides": {"2": "5", "3": "7", "5": "11"},
    }
)


def test_criterion_01_c4_density_full_image():
    start = time.perf_counter()
    ds = scan_density(3, (2, 3, 5, 7), 10**6)
    elapsed = time.perf_counter() - start
    assert ds.expected == Fraction(25, 81)
    assert abs(ds.observed - 25 / 81) <= 0.01
    assert ds.counted > 35000
    assert Fraction(25, 162) <= Fraction(1, 3)  # class size over group order cap
    assert elapsed < 30, f"single-worker scan took {elapsed:.1f}s"


def test_criterion_02_split_layer_density():
    ds = scan_density(3, (2,), 10**6, mode="split")
    assert ds.expected == Fraction(1, 3)
    assert abs(ds.observed - 1 / 3) <= 0.01


def test_criterion_03_degenerate_tuple_saturates():
    ds = scan_density(3, (2, 3, 4, 9), 10**6)
    assert ds.expected == 1
    assert ds.observed == 1.0


def test_criterion_04_heuristic_boundedness():
    f = MultiplicativeMap.table({2: 5, 3: 7, 5: 11}, default_exponent=1)
    hs = heuristic_scan(f, (2, 3, 5), 10**6)
    assert hs.members / kernels.count_primes(10**6) <= 0.001
    primes = list(sympy.primerange(2, 101))
    oracle = sum(1 / (p - 1) ** 2 for p in primes)
    got = heuristic_sum(primes)
    assert abs(got - oracle) < 1e-12
    assert abs(got - 1.373) <= 0.001


def test_criterion_05_exact_membership_scan():
    f = MultiplicativeMap.table({2: 5, 3: 7, 5: 11}, default_exponent=1)
    members, unknown = scan_Sf(f, 10**4, mode="exact")
    assert {v.p for v in members} == {2, 3}
    assert unknown == 0


def test_criterion_06_lattice_oracle_equivalence():
    pool = [as_factored(x) for x in (2, 3, 4, 5, 6, 8, 9, 12, 18, "5/7", "7/4")]
    tuples = [list(c) for r in (2, 3) for c in combinations(pool, r)]
    for c in tuples:
        lat = build_lattice(c)
        rep = relations(lat)
        for v in rep.integer_kernel_basis:
            acc = as_factored(1)
            for x, e in zip(c, v):
                acc = acc * x**e
            assert acc.is_unit()
        assert (rep.delta is not None) == (rep.integer_kernel_basis == [])
        for ell in (3, 5):
            basis = kernel_mod_ell(lat.matrix, lat.m, ell)
            span = set()
            for coeffs in product(range(ell), repeat=len(basis)):
                span.add(
                    tuple(
                        sum(cf * b[i] for cf, b in zip(coeffs, basis)) % ell
                        for i in range(lat.m)
                    )
                )
            brute = {
                v
                for v in product(range(ell), repeat=lat.m)
                if all(
                    sum(r * x for r, x in zip(row, v)) % ell == 0
                    for row in lat.matrix
                )
            }
            assert span == brute
            if rep.delta is not None and rep.delta % ell != 0:
                assert kummer_degree(c, ell)[1] == ell ** lat.m
    assert relations(build_lattice((12, 18))).delta == 6
    assert kummer_degree((12, 18), 3)[1] == 3
    assert kummer_degree((12, 18), 5)[1] == 25


def test_criterion_07_discriminant_formula():
    table = {3: -3, 4: -4, 5: 125, 7: -16807, 8: 256, 12: 144}
    for n, d in table.items():
        assert cyclotomic_discriminant(n) == d
    for n in range(1, 201):
        assert abs(cyclotomic_discriminant(n)) <= n ** int(sympy.totient(n))


def test_criterion_08_bound_evaluators():
    holds, first = chebyshev_sweep(10**6)
    assert holds and first is None
    assert abs(mertens_product(5, 20) - 0.456543) <= 1e-6
    s = yz_schedule(1e100)
    assert abs(s.Y - 6.10) <= 0.01
    assert abs(s.Z - 1.05) <= 0.01
    assert not s.y_le_z  # Y > Z is flagged: the schedule is vacuous here
    mb = main_bound(1e8, 10, pi_x=5761455)
    target = 0.0626 * 5761455
    assert abs(mb.main_term - target) / target <= 0.005


def test_criterion_09_transport_invariants():
    rng = random.Random(901)
    primes = PrimeCache(10**5).primes
    by_ell = {
        ell: [p for p in primes if p % ell == 1 and p > 60]
        for ell in (3, 5, 7)
    }
    for _ in range(1000):
        ell = rng.choice((3, 5, 7))
        p = rng.choice(by_ell[ell])
        c = rng.randint(2, 1000)
        while c % p == 0:
            c = rng.randint(2, 1000)
        k = rng.randint(1, 12)
        z1, _ = ell_power_class(c, ell, p)
        zk, _ = ell_power_class(c**k, ell, p)
        assert zk == pow(z1, k, p)
        # a global k-th power map forces the Frobenius into the
        # proportionality class at every unramified split prime
        n1, n2 = rng.randint(2, 50), rng.randint(2, 50)
        s = frobenius_vector(p, ell, (n1, n2, n1**k, n2**k))
        assert in_C4(s)


def test_criterion_10_parallel_determinism():
    # a fan-out span of 100 numbers makes these short scans cross the pool
    shim = (
        "import sys; from localpow import _parallel; _parallel.FAN_OUT_SPAN = 100; "
        "from localpow.cli import run; sys.exit(run(sys.argv[1:]))"
    )

    def run_bytes(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", shim, *argv], capture_output=True
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    scans = [
        ("sf-scan", "--function", TABLE_F, "--limit", "2000"),
        ("tf-scan", "--function", TABLE_F, "--limit", "500"),
        ("density-scan", "--ell", "3", "--tuple", "2,3,5,7", "--limit", "5000"),
        ("heuristic", "--function", TABLE_F, "--witnesses", "2,3,5", "--limit", "2000"),
    ]
    for argv in scans:
        serial = run_bytes(*argv, "--workers", "1")
        parallel = run_bytes(*argv, "--workers", "8")
        assert serial == parallel, argv[0]
