"""Pure-Python backend for the prime and scan kernels.

Mirrors the compiled backend function-for-function; every function here must
return exactly what the native one does.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd, isqrt

BACKEND = "pure"

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return flags


def sieve(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    flags = _flags(limit)
    return [i for i in range(2, limit + 1) if flags[i]]


def count_primes(limit: int) -> int:
    """Number of primes <= limit."""
    if limit < 2:
        return 0
    return sum(_flags(limit))


# factorize divides by these; larger prime factors are split by rho
_TRIAL_PRIMES = tuple(sieve(10**4))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    # Brent-cycle rho with deterministic polynomial shifts; n odd composite.
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def _prime_powers(n: int) -> Iterator[tuple[int, int]]:
    # (q, e) with q^e || n in ascending q, each yielded as soon as trial
    # division finds it; once the trial passes the square root of the
    # cofactor, that cofactor is prime and needs no Miller-Rabin test
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    for q in _TRIAL_PRIMES:
        if q * q > n:
            if n > 1:
                yield n, 1
            return
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            yield q, e
    # every prime factor left exceeds 10^4
    exps: dict[int, int] = {}
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            stack += (d, m // d)
    yield from sorted(exps.items())


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs."""
    return list(_prime_powers(n))


def primitive_root(p: int) -> int:
    """Smallest primitive root mod the prime p."""
    if p == 2:
        return 1
    qs = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


def _bsgs(base: int, target: int, order: int, p: int) -> int | None:
    # baby-step giant-step in the cyclic group <base> of the given order
    m = isqrt(order - 1) + 1
    table: dict[int, int] = {}
    cur = 1
    for j in range(m):
        if cur not in table:
            table[cur] = j
        cur = cur * base % p
    step = pow(base, -m, p)
    cur = target
    for i in range(m):
        j = table.get(cur)
        if j is not None:
            return (i * m + j) % order
        cur = cur * step % p
    return None


def _prime_power_log(gq: int, hq: int, q: int, e: int, p: int) -> int:
    # digit-by-digit lift; gq has order exactly q^e
    gamma = pow(gq, q ** (e - 1), p)
    x = 0
    for i in range(e):
        expo = q ** (e - 1 - i)
        target = pow(pow(gq, -x, p) * hq % p, expo, p)
        d = _bsgs(gamma, target, q, p)
        if d is None:
            raise ValueError("element outside the subgroup generated by the base")
        x += d * q**i
    return x


def discrete_log(g: int, h: int, p: int) -> int:
    """Smallest x >= 0 with g^x ≡ h (mod p), via Pohlig-Hellman + BSGS."""
    g %= p
    h %= p
    if g == 0 or h == 0:
        raise ValueError("arguments must be units mod p")
    fac = factorize(p - 1)
    # d = exact multiplicative order of g, peeled off p-1 prime by prime
    d = p - 1
    for q, _ in fac:
        while d % q == 0 and pow(g, d // q, p) == 1:
            d //= q
    if pow(h, d, p) != 1:
        raise ValueError("element outside the subgroup generated by the base")
    if h == 1:
        return 0
    x, mod = 0, 1
    for q, _ in fac:
        t = 0
        dd = d
        while dd % q == 0:
            dd //= q
            t += 1
        if t == 0:
            continue
        qt = q**t
        gq = pow(g, d // qt, p)  # order exactly q^t
        hq = pow(h, d // qt, p)
        xi = _prime_power_log(gq, hq, q, t, p)
        x += mod * ((xi - x) * pow(mod, -1, qt) % qt)
        mod *= qt
    return x


def solve_exponent_system(a: list[int], b: list[int], m: int) -> int | None:
    """Smallest k in [0, m) with k*a_j ≡ b_j (mod m) for all j, else None."""
    r, mod = 0, 1
    for aj, bj in zip(a, b):
        g = gcd(aj, m)
        if bj % g:
            return None
        mj = m // g
        rj = (bj // g) * pow(aj // g, -1, mj) % mj if mj > 1 else 0
        gg = gcd(mod, mj)
        if (rj - r) % gg:
            return None
        lcm = mod // gg * mj
        step = mj // gg
        if step > 1:
            t = (rj - r) // gg * pow(mod // gg, -1, step) % step
        else:
            t = 0
        r = (r + mod * t) % lcm
        mod = lcm
    return r


def z_b_rows(
    primes: list[int], ell: int, nums: list[int], dens: list[int]
) -> list[tuple[int, tuple[int, ...] | None, tuple[int, ...] | None]]:
    """Per-prime ell-th power classes z_j = c_j^((p-1)/ell) and their logs.

    Callers pass primes with p ≡ 1 (mod ell).  nums carry the sign; dens are
    positive.  A prime dividing any numerator or denominator yields a
    (p, None, None) row.  b logs are taken base the first a >= 2 whose
    (p-1)/ell power is nontrivial, without normalization.
    """
    out = []
    width = len(nums)
    for p in primes:
        ok = True
        for j in range(width):
            if nums[j] % p == 0 or dens[j] % p == 0:
                ok = False
                break
        if not ok:
            out.append((p, None, None))
            continue
        m = (p - 1) // ell
        zs = []
        for j in range(width):
            r = nums[j] * pow(dens[j], -1, p) % p
            zs.append(pow(r, m, p))
        if all(z == 1 for z in zs):
            out.append((p, tuple(zs), (0,) * width))
            continue
        a = 2
        w = pow(a, m, p)
        while w == 1:
            a += 1
            w = pow(a, m, p)
        logs = []
        for z in zs:
            cur, k = 1, 0
            while cur != z:
                cur = cur * w % p
                k += 1
                if k >= ell:
                    raise ArithmeticError(f"{z} not in mu_{ell} mod {p}")
            logs.append(k)
        out.append((p, tuple(zs), tuple(logs)))
    return out


def _component_solvable(us: list[int], vs: list[int], q: int, p: int) -> bool:
    # is there t with u_j^t == v_j for all j?  All u_j, v_j lie in the cyclic
    # subgroup of order q^e, where the u_j of largest order q^s generates
    # every other u_j; v_pivot must lie in its group, and t = log v_pivot
    # (mod q^s) is then the only candidate
    u_piv, v_piv, s = 1, 1, 0
    for u, v in zip(us, vs):
        w, order_exp = u, 0
        while w != 1:
            w = pow(w, q, p)
            order_exp += 1
        if order_exp > s:
            u_piv, v_piv, s = u, v, order_exp
    if pow(v_piv, q**s, p) != 1:
        return False
    t = _prime_power_log(u_piv, v_piv, q, s, p) if s else 0
    return all(pow(u, t, p) == v for u, v in zip(us, vs))


def omega_members(
    primes: list[int], ns: list[int], fnums: list[int], fdens: list[int]
) -> tuple[int, int, int]:
    """Count primes where (f(n_j)) is a simultaneous power of (n_j) mod p.

    Returns (counted, skipped, members): skipped primes divide some n_j or
    some f(n_j) numerator/denominator; counted primes were tested; members
    admit a common exponent k with n_j^k ≡ f(n_j) (mod p) for all j.
    """
    counted = skipped = members = 0
    width = len(ns)
    for p in primes:
        ok = True
        for j in range(width):
            if ns[j] % p == 0 or fnums[j] % p == 0 or fdens[j] % p == 0:
                ok = False
                break
        if not ok:
            skipped += 1
            continue
        counted += 1
        avals = [n % p for n in ns]
        bvals = [fn * pow(fd, -1, p) % p for fn, fd in zip(fnums, fdens)]
        # a common k mod p-1 exists iff one exists mod each q^e || p-1 (CRT);
        # small q come first, so most primes are rejected within a component
        # or two
        for q, e in _prime_powers(p - 1):
            cof = (p - 1) // q**e
            us = [pow(a, cof, p) for a in avals]
            vs = [pow(b, cof, p) for b in bvals]
            if not _component_solvable(us, vs, q, p):
                break
        else:
            members += 1
    return counted, skipped, members
