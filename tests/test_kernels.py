import os
import random
import subprocess
import sys

import pytest
import sympy

from localpow import kernels
from localpow.kernels import pure

native = pytest.importorskip(
    "localpow.kernels._native", reason="compiled backend not built"
)

BACKENDS = (pure, native)


def test_a_compiled_backend_is_selected():
    if os.environ.get("LOCALPOW_PURE") == "1":
        pytest.skip("pure backend forced via environment")
    assert kernels.BACKEND == "native"


def test_env_override_selects_pure_backend():
    out = subprocess.run(
        [sys.executable, "-c", "from localpow import kernels; print(kernels.BACKEND)"],
        capture_output=True,
        text=True,
        env={**os.environ, "LOCALPOW_PURE": "1"},
    )
    assert out.stdout.strip() == "pure"


def test_sieve_agreement_and_oracle():
    expected = list(sympy.primerange(2, 10001))
    for mod in BACKENDS:
        assert mod.sieve(10000) == expected
        assert mod.sieve(1) == []
        assert mod.sieve(2) == [2]


def test_count_primes_oracle():
    for x in (1, 2, 10, 100, 6000, 10**5):
        expected = sympy.primepi(x)
        for mod in BACKENDS:
            assert mod.count_primes(x) == expected


def test_is_prime_agreement():
    rng = random.Random(201)
    samples = list(range(2, 500)) + [rng.randint(2, 2**62) for _ in range(100)]
    for n in samples:
        expected = sympy.isprime(n)
        assert pure.is_prime(n) == expected
        assert native.is_prime(n) == expected


def test_factorize_agreement():
    rng = random.Random(202)
    samples = [rng.randint(2, 10**12) for _ in range(100)] + [
        2,
        2**40,
        3**25,
        (10**6 + 3) ** 2,
    ]
    for n in samples:
        expected = sorted(sympy.factorint(n).items())
        assert pure.factorize(n) == expected
        assert native.factorize(n) == expected


def test_primitive_root_is_smallest_generator():
    for p in pure.sieve(2000)[1:]:
        g = pure.primitive_root(p)
        assert native.primitive_root(p) == g
        assert g == sympy.primitive_root(p)


def test_discrete_log_random_instances():
    rng = random.Random(203)
    primes = pure.sieve(100000)[3:]
    for _ in range(200):
        p = rng.choice(primes)
        g = rng.randint(2, p - 1)
        e = rng.randint(0, p - 2)
        h = pow(g, e, p)
        x = pure.discrete_log(g, h, p)
        assert native.discrete_log(g, h, p) == x
        assert pow(g, x, p) == h
        assert x == sympy.discrete_log(p, h, g)


def test_discrete_log_smallest_solution_small_primes():
    rng = random.Random(204)
    for _ in range(200):
        p = rng.choice((7, 11, 13, 31, 61, 97, 151, 241))
        g = rng.randint(1, p - 1)
        h = pow(g, rng.randint(0, p - 2), p)
        x = pure.discrete_log(g, h, p)
        brute = next(k for k in range(p - 1) if pow(g, k, p) == h)
        assert x == brute
        assert native.discrete_log(g, h, p) == brute


def test_discrete_log_outside_subgroup():
    # 3 generates the order-3 subgroup mod 13; 2 is a primitive root
    for mod in BACKENDS:
        with pytest.raises(ValueError):
            mod.discrete_log(3, 2, 13)
        with pytest.raises(ValueError):
            mod.discrete_log(0, 1, 13)


def test_solve_exponent_system_brute_force():
    rng = random.Random(205)
    for _ in range(400):
        m = rng.randint(2, 240)
        width = rng.randint(1, 4)
        a = [rng.randint(0, m - 1) for _ in range(width)]
        b = [rng.randint(0, m - 1) for _ in range(width)]
        brute = next(
            (k for k in range(m) if all((ai * k - bi) % m == 0 for ai, bi in zip(a, b))),
            None,
        )
        assert pure.solve_exponent_system(a, b, m) == brute
        assert native.solve_exponent_system(a, b, m) == brute


def test_z_b_rows_agreement_and_oracle():
    ell = 5
    primes = [p for p in pure.sieve(3000) if p % ell == 1]
    nums = [2, -3, 7, 10]
    dens = [1, 2, 3, 1]
    rows_pure = pure.z_b_rows(primes, ell, nums, dens)
    rows_native = native.z_b_rows(primes, ell, nums, dens)
    assert rows_pure == rows_native
    for p, zs, bs in rows_pure:
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


def test_omega_members_agreement_and_brute_force():
    primes = pure.sieve(3000)
    cases = [
        ([2, 3, 5], [5, 7, 11], [1, 1, 1]),
        ([2, 3, 5], [4, 9, 25], [1, 1, 1]),
        ([2, 3], [8, 27], [1, 1]),
        ([2, 3], [1, 2], [2, 1]),
    ]
    for ns, fnums, fdens in cases:
        got_pure = pure.omega_members(primes, ns, fnums, fdens)
        got_native = native.omega_members(primes, ns, fnums, fdens)
        assert got_pure == got_native
        counted = skipped = members = 0
        for p in primes:
            if any(v % p == 0 for v in ns + fnums + fdens):
                skipped += 1
                continue
            counted += 1
            targets = [fn * pow(fd, -1, p) % p for fn, fd in zip(fnums, fdens)]
            if any(
                all(pow(n, k, p) == t for n, t in zip(ns, targets))
                for k in range(p - 1)
            ):
                members += 1
        assert got_pure == (counted, skipped, members)


def test_dispatch_falls_back_beyond_64_bits():
    # inputs wider than a machine word must still work through the
    # dispatch layer, matching the pure backend exactly
    primes = [p for p in pure.sieve(2000) if p % 3 == 1]
    big = 50**12  # above 2^63
    rows = kernels.z_b_rows(primes, 3, [2, big], [1, 1])
    assert rows == pure.z_b_rows(primes, 3, [2, big], [1, 1])
    got = kernels.omega_members(primes, [2, 3], [2**70, 3**45], [1, 1])
    assert got == pure.omega_members(primes, [2, 3], [2**70, 3**45], [1, 1])
    n = 10**25 + 13  # beyond the compiled word size
    assert kernels.is_prime(n) == pure.is_prime(n)
    assert kernels.factorize(2**70) == [(2, 70)]
