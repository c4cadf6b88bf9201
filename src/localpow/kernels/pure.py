"""Pure-Python backend for the prime and scan kernels.

The specification of the compiled backend: each of the three kernels that
`_native.c` also implements (`sieve`, `class_counts` and `omega_members`)
must return exactly what the one here does and raise the same exception
types, or raise `OverflowError` on an argument too wide for its 64-bit
words, which `localpow.kernels` then reruns here.  The others
(`count_primes`, `prime_segments`, `is_prime`, `factorize`, `discrete_log`
and `z_b_rows`) run from here under every backend, and
`cubic_class_counts` on the pure backend only.  One pivot test,
`_projection_solution`, decides a projection for `omega_members` and a
c4 prime for `class_counts`; `cubic_class_counts` decides the same c4
and split primes at ell = 3 from table lookups on each prime's primary
pi, and `class_counts` is its oracle in the tests.

The scan kernels take their primes on trust: every p in `primes` must be
prime, and for `class_counts` p ≡ 1 (mod ell).  Neither checks; off that
contract their results are unspecified and may differ between backends.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, compress, product, repeat
from math import gcd, isqrt, prod
from operator import add, itemgetter

BACKEND = "pure"

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# prime_segments() strikes this many candidates n = s·i + 1 at a time
SEGMENT = 1 << 17


def _roots(s: int, limit: int) -> list[tuple[int, int]]:
    # (q, r) for each prime q <= limit with q ∤ s: q | s·i + 1 iff i ≡ r (mod q)
    return [(q, -pow(s, -1, q) % q) for q in sieve(limit) if s % q]


def _strike(flags: bytearray, s: int, first: int, roots) -> None:
    # clear flag j where n = s·(first + j) + 1 is q·m with m >= q for a root's
    # prime q; no prime factor of n divides s, so once the roots hold every
    # prime up to sqrt(n), only the primes keep their flags
    count = len(flags)
    for q, r in roots:
        start = max(first, -(-(q * q - 1) // s))
        j = start + (r - start) % q - first
        if j < count:  # from a bytearray, which the slice takes uncopied
            flags[j::q] = bytearray(len(range(j, count, q)))


def sieve(limit: int) -> list[int]:
    """All primes <= limit, ascending: 2 and the odd n = 2i + 1 in one window."""
    if limit < 2:
        return []
    # a bytes repeat copied into a bytearray, not a bytearray repeat: a window
    # too large to allocate raises a clean MemoryError, before any base prime
    flags = bytearray(b"\x01" * ((limit - 1) // 2))
    _strike(flags, 2, 1, _roots(2, isqrt(limit)))
    return [2, *compress(range(3, limit + 1, 2), flags)]


def prime_segments(lo: int, hi: int, s: int) -> Iterator[list[int]]:
    """The primes p ≡ 1 (mod s) in [lo, hi), ascending, one list per segment.

    A segment is the window of SEGMENT candidates n = s·i + 1, struck with
    one slice per base prime q <= sqrt(hi - 1), q ∤ s; memory stays bounded
    by the segment and the base primes, whatever the range.
    """
    if s < 1:
        raise ValueError(f"modulus must be positive, got {s}")
    first = max(1, -(-(lo - 1) // s))  # n >= lo, and n = 1 is no prime
    stop = -(-(hi - 1) // s)  # n < hi
    if first >= stop:
        return
    roots = _roots(s, isqrt(hi - 1))
    for a in range(first, stop, SEGMENT):
        count = min(SEGMENT, stop - a)
        flags = bytearray(b"\x01" * count)
        _strike(flags, s, a, roots)
        yield list(compress(range(s * a + 1, s * (a + count) + 1, s), flags))


def count_primes(limit: int) -> int:
    """Number of primes <= limit, without listing them.

    Lucy's form of the Legendre sum (Lagarias, Miller and Odlyzko, Math.
    Comp. 44, 1985): O(limit^(3/4)) time and O(sqrt(limit)) memory.
    """
    if limit < 2:
        return 0
    r = isqrt(limit)
    # small[v] and large[i] count the n in [2, v] and in [2, limit // i]
    # that are prime or have no prime factor below the current p
    small = [v - 1 for v in range(r + 1)]
    large = [0] + [limit // i - 1 for i in range(1, r + 1)]
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        below = small[p - 1]  # primes < p
        # each list is rebuilt from its old values: strike the n whose
        # smallest prime factor is p
        top = min(r, limit // (p * p))
        # large[i * p] exists for i <= cut (<= top); past it limit // (i * p)
        # is at most r and is read from small as q // i
        cut = r // p
        q = limit // p
        head = [a - b + below for a, b in zip(large[1 : cut + 1], large[p : cut * p + 1 : p])]
        tail = enumerate(large[cut + 1 : top + 1], cut + 1)
        large[1 : top + 1] = head + [a - small[q // i] + below for i, a in tail]
        small[p * p :] = [small[v] - small[v // p] + below for v in range(p * p, r + 1)]
    return large[1]


# factorize divides by these; larger prime factors are split by rho
_TRIAL_PRIMES = tuple(sieve(10**4))


def is_prime(n: int) -> bool:
    """Primality: exact below 2^64, Baillie-PSW above.

    Below 2^64 Miller-Rabin to the 12 bases 2..37 is exact: the least
    composite passing them is psi_12 = 318665857834031151167461 (OEIS
    A014233).  From 2^64 on, where a fixed set of bases is no proof, n gets
    the strong base-2 test and then the strong Lucas test with Selfridge's
    parameters (Baillie-PSW, Math. Comp. 35, 1980), which no known composite
    passes.
    """
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
    for a in _MR_WITNESSES if n < 2**64 else (2,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < 2**64 or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    # the Jacobi symbol (a/n) for an odd n > 0
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    # the strong Lucas probable-prime test on an odd n > 37 with no factor up
    # to 37, with P = 1 and Q = (1 - D)/4 for the first D in 5, -7, 9, -11,
    # ... with (D/n) = -1 (Selfridge's method A); a square has no such D
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n, from k = 1 along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n  # 2U_{k+1} and 2V_{k+1}
            U = (U + n * (U & 1)) // 2
            V = (V + n * (V & 1)) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_brent(n: int) -> int:
    # Brent-cycle rho on an odd composite n.  Each walk squares at most
    # `budget` times: 2^34/bits^2 holds a walk's multiplication work near
    # constant, 2^20 bounds the interpreter's per-step cost on narrow n,
    # and 2^13 steps still find every prime factor below 10^6.  The next
    # constant runs only when a walk closes on g = n.  A spent budget
    # raises ArithmeticError(message, n, budget).
    budget = min(2**20, max(2**13, 2**34 // n.bit_length() ** 2))
    for c in (1, 2, 3):
        y, r, q, g, left = 2, 1, 1, 1, budget
        x = ys = y
        while g == 1:
            if left <= r:
                raise ArithmeticError(
                    f"rho spent {budget} steps on a {n.bit_length()}-bit cofactor", n, budget
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            left -= r
            k = 0
            while k < r and g == 1 and left:
                ys = y
                steps = min(128, r - k, left)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += steps
                left -= steps
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split a {n.bit_length()}-bit cofactor", n, budget)


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


def _bsgs(base: int, target: int, order: int, p: int) -> int | None:
    # baby-step giant-step in the cyclic group <base> of prime order q > 47;
    # its m <= q baby steps are distinct powers of base
    m = isqrt(order - 1) + 1
    table: dict[int, int] = {}
    cur = 1
    for j in range(m):
        table[cur] = j
        cur = cur * base % p
    get = table.get
    step = pow(base, -m, p)
    cur = target
    for i in range(m):
        j = get(cur)
        if j is not None:
            return (i * m + j) % order
        cur = cur * step % p
    return None


# the primes whose logs are walked, not looked up by BSGS; omega_members
# decides their projections before it factors p - 1
_SMALL_Q = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _digit_log(base: int, target: int, q: int, p: int) -> int | None:
    # log of target in the group <base> of prime order q: a walk of at most
    # q steps for q <= 47, BSGS above
    if q > _SMALL_Q[-1]:
        return _bsgs(base, target, q, p)
    cur = 1
    for t in range(q):
        if cur == target:
            return t
        cur = cur * base % p
    return None


def _prime_power_log(gq: int, hq: int, q: int, e: int, p: int) -> int:
    # digit-by-digit lift; gq has order exactly q^e
    gamma = pow(gq, q ** (e - 1), p)
    x = 0
    for i in range(e):
        expo = q ** (e - 1 - i)
        target = pow(pow(gq, -x, p) * hq % p, expo, p)
        d = _digit_log(gamma, target, q, p)
        if d is None:
            raise ValueError("element outside the subgroup generated by the base")
        x += d * q**i
    return x


def discrete_log(g: int, h: int, p: int) -> int:
    """Smallest x >= 0 with g^x ≡ h (mod p), by omega_members' solver.

    No scan calls it: `omega_members` solves each prime's logs itself.
    """
    g %= p
    h %= p
    if g == 0 or h == 0:
        raise ValueError("arguments must be units mod p")
    solution = _omega_solution(p, [g], [h], [1], -1)
    if solution is None:
        raise ValueError("element outside the subgroup generated by the base")
    return solution[0]


def z_b_rows(
    primes: list[int], ell: int, nums: list[int], dens: list[int]
) -> list[tuple[int, tuple[int, ...] | None, tuple[int, ...] | None]]:
    """Per-prime ell-th power classes z_j = c_j^((p-1)/ell) and their logs.

    Callers pass a prime ell and primes with p ≡ 1 (mod ell).  nums carry the
    sign; dens are positive.  A prime dividing any numerator or denominator
    yields a (p, None, None) row.  b logs are taken base the first a >= 2
    whose (p-1)/ell power w is nontrivial, without normalization, each by
    `_digit_log` in the group <w> of order ell: a walk up to ell = 47 and
    baby-step giant-step above, so a large ell costs about sqrt(ell) steps
    a log.  A z_j that is no power of w raises ArithmeticError.
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
            k = _digit_log(w, z, ell, p)
            if k is None:
                raise ArithmeticError(f"{z} not in mu_{ell} mod {p}")
            logs.append(k)
        out.append((p, tuple(zs), tuple(logs)))
    return out


def class_counts(
    primes: list[int], ell: int, nums: list[int], dens: list[int], k: int
) -> tuple[int, int, int]:
    """Count the primes whose ell-th power characters lie in the proportionality class.

    The character is chi(x) = x^((p-1)/ell) mod p, and c_j = nums[j]/dens[j].
    Returns (counted, skipped, hits): skipped primes divide a numerator or a
    denominator.  With k = 0 a counted prime is a hit iff every
    chi(c_j) = 1.  With k > 0 (the tuple has 2k entries) it is a hit iff
    some lambda mod ell gives chi(c_{k+i}) = chi(c_i)^lambda for every
    i < k, which is proportionality of the z_b_rows log vector's halves
    whatever the log base.  That is the q = ell projection of
    omega_members' test at n_i = c_i and f(n_i) = 1/c_{k+i}, with
    t = -lambda, and its solver decides it: the first c_i with
    chi(c_i) != 1 fixes lambda by a walk up to ell = 47 and baby-step
    giant-step above, and every later pair costs one power.
    Callers pass a prime ell and primes p ≡ 1 (mod ell), unchecked (see the
    module docstring); nums carry the sign, dens are positive.
    chi(n/d) = chi(n·d^(ell-1)) needs no inverse mod p.
    """
    width = len(nums)
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if k < 0 or (k and 2 * k != width):
        raise ValueError(f"k = {k} does not halve a tuple of width {width}")
    cs = [n * d ** (ell - 1) for n, d in zip(nums, dens)]
    low, high, ones = cs[:k], cs[k:], [1] * k
    # p | n·d^(ell-1) iff p | n or p | d; no p above every |c_j| divides
    # one, unless some c_j is 0
    cmax = max(map(abs, cs), default=0) if all(cs) else max(primes, default=0)
    counted = skipped = hits = 0
    for p in primes:
        if p <= cmax and any(c % p == 0 for c in cs):
            skipped += 1
            continue
        counted += 1
        if k:
            hits += _projection_solution(low, ones, high, ell, p) is not None
            continue
        m = (p - 1) // ell
        for c in cs:
            if pow(c, m, p) != 1:
                break
        else:
            hits += 1
    return counted, skipped, hits


# The largest table cubic_class_counts builds: a character table per base
# prime q of the entries (q entries), the decision table over their logs,
# and a key table over t mod the product of a group of key primes, the
# groups being packed to stay within it.  A base prime above it, or a
# decision table past it, sends the range to class_counts.  A table at q
# near the cap costs q powers in F_q[omega], about 0.04 s on a 2-vCPU
# x86-64 VM.
CUBIC_TABLE_CAP = 2**12

# cubic_class_counts walks windows of CUBIC_WINDOW·isqrt(hi) candidates, so
# that each of its ~0.4·isqrt(hi) rows is set up a few times a scan, not
# once per SEGMENT; a window holds at most 2^22 candidates (4 MB a worker),
# reached at hi ≈ 6.7·10^7.  On a 2-vCPU x86-64 VM the c4 CLI scan of
# (42,9,38,39) to 10^8 took 1.54, 1.56 and 1.60 s at 2^8, 2^9 and 2^10,
# at peak RSS 18.6, 21.6 and 26.8 MB uncapped (4.16 s and 17.5 MB in
# SEGMENT windows), and the in-process scan to 10^7 0.156, 0.146 and
# 0.145 s.  The cap cost 1% on [9·10^8, 10^9] (1.908 → 1.926 s; 2^21: 2.054).
CUBIC_WINDOW = 2**9


def _cubic_characters(q: int) -> list[int]:
    # e[t] with chi_pi(q) = omega^e[t] for every primary pi = a + b·omega,
    # b prime to q, whose a ≡ t·b (mod q); a rational b is a cube in F_q[omega]
    # (q ≡ 2 mod 3) and has trivial norm character (q ≡ 1 mod 3), so only
    # t matters.  By cubic reciprocity (Ireland & Rosen, ch. 9) chi_pi(q) is
    # chi_q(pi) = pi^((q^2-1)/3) mod q for q ≡ 2 (mod 3), 2 included, and the
    # product of chi_rho(pi) over the two primes rho of norm q ≡ 1 (mod 3),
    # where omega is r and r^2 for a root r of r^2 + r + 1
    if q % 3 == 2:

        def mul(x, y):  # in F_q[omega], omega^2 = -1 - omega
            bd = x[1] * y[1]
            return (x[0] * y[0] - bd) % q, (x[0] * y[1] + x[1] * y[0] - bd) % q

        logs = {(1, 0): 0, (0, 1): 1, (q - 1, q - 1): 2}
        table = []
        for t in range(q):
            z, power, e = (t, 1), (1, 0), (q * q - 1) // 3
            while e:
                if e & 1:
                    power = mul(power, z)
                z = mul(z, z)
                e >>= 1
            table.append(logs[power])
        return table
    m = (q - 1) // 3
    g = 2
    while pow(g, m, q) == 1:
        g += 1
    r = pow(g, m, q)
    logs = {1: 0, r: 1, r * r % q: 2}
    # (t + r)(t + r^2) ≡ 0 only at p = q, which the kernel skips
    return [
        (logs[pow(t + r, m, q)] + 2 * logs[pow(t + r * r, m, q)]) % 3
        if (t + r) * (t + r * r) % q
        else 0
        for t in range(q)
    ]


def _cubic_exponents(c: int) -> dict[int, int] | None:
    # {q: v_q(c)} for c != 0 over the primes up to CUBIC_TABLE_CAP, or None
    # where c is 0 or has a prime factor above it
    c = abs(c)
    exps = {}
    for q in _TRIAL_PRIMES:
        if c <= 1 or q > CUBIC_TABLE_CAP:
            break
        while c % q == 0:
            c //= q
            exps[q] = exps.get(q, 0) + 1
    return exps if c == 1 else None


def _log_radix(exps: dict[int, int]) -> int:
    # an entry's log sum over its r prime factors of exponent prime to 3,
    # each log in 0..2, lies in 0..2r
    return 2 * sum(v % 3 != 0 for v in exps.values()) + 1


def cubic_factors(nums: list[int], dens: list[int]) -> list[dict[int, int]] | None:
    """Each c_j = nums[j]·dens[j]^2 as {q: v_q(c_j)}, or None where `cubic_class_counts` declines.

    It declines an entry 0 or with a prime factor above CUBIC_TABLE_CAP,
    and a decision table of more than CUBIC_TABLE_CAP keys.
    """
    factored = [_cubic_exponents(n * d * d) for n, d in zip(nums, dens)]
    if None in factored or prod(map(_log_radix, factored)) > CUBIC_TABLE_CAP:
        return None
    return factored


def cubic_class_counts(
    lo: int, hi: int, nums: list[int], dens: list[int], k: int
) -> tuple[int, int, int] | None:
    """`class_counts` at ell = 3 over the primes p ≡ 1 (mod 3) in [lo, hi), or None.

    Each such p is the norm a^2 - ab + b^2 of exactly one primary
    pi = a + b·omega (a ≡ 2 mod 3, b = 3n > 0), and the cubic character of
    c_j = nums[j]·dens[j]^2 at p is a product of characters of its prime
    factors q, each a function of pi: of t ≡ a/b (mod q), tabulated by
    `_cubic_characters`, and omega^(2n) for q = 3 (-1 is a cube).  So the
    pairs (a, b) are walked instead of the primes, in windows of
    CUBIC_WINDOW·isqrt(hi) candidates n = 6i + 1 (at most 2^22) struck as
    `prime_segments` strikes its segments, and each row b is set up once
    per window, crossing it in two intervals of a, where
    4N = (2a - b)^2 + 3b^2 has a constant second difference.
    Each prime's entry logs L_j = sum v_q(c_j)·e_q (mod 3), in the log base
    omega ≡ -a/b (mod p), form a key into a decision table: with k > 0 a
    hit is some t with t·L_j + L_{k+j} ≡ 0 for every j < k, with k = 0
    every L_j ≡ 0.  The key primes are packed into groups of product
    within CUBIC_TABLE_CAP; along a row a group's share of the key is a
    function of a/b modulo the product of its primes q ∤ b, read from one
    table built on first use, so a prime costs one lookup per group and one
    into the decision table.  No power mod p is taken.

    Returns None, having generated no prime, where `cubic_factors` declines
    the tuple; `class_counts` then decides each prime.
    """
    class_counts([], 3, nums, dens, k)  # its checks of k
    factored = cubic_factors(nums, dens)
    if factored is None:
        return None
    # entry j's log sum is digit j of a prime's key, in mixed radix
    radices = [_log_radix(exps) for exps in factored]
    places = [prod(radices[:j]) for j in range(len(radices))]
    hit = []  # by key, digit 0 turning fastest
    for digits in product(*map(range, reversed(radices))):
        logs = [d % 3 for d in reversed(digits)]
        if k:
            low, high = logs[:k], logs[k:]
            fits = any(all((t * x + y) % 3 == 0 for x, y in zip(low, high)) for t in range(3))
        else:
            fits = not any(logs)
        hit.append(int(fits))  # an int, which sum() adds fastest
    # key step of each prime factor q at log e: the sum over the entries
    steps = {}
    for place, exps in zip(places, factored):
        for q, v in exps.items():
            row = steps.setdefault(q, [0, 0, 0])
            for e in (1, 2):
                row[e] += place * (v * e % 3)
    three = steps.pop(3, [0, 0, 0])
    keyed = {q: [row[e] for e in _cubic_characters(q)] for q, row in steps.items() if any(row)}
    split = sorted(q for q in steps if q % 6 == 1)  # primes that divide an entry
    row_hits = _cubic_row_decider(hit, three, keyed)

    counted = skipped = hits = 0
    first = max(1, -(-(lo - 1) // 6))  # as prime_segments(lo, hi, 6)
    stop = -(-(hi - 1) // 6)
    if first >= stop:
        return 0, 0, 0
    root = isqrt(hi - 1)
    roots = _roots(6, root)
    width = min(CUBIC_WINDOW * root, 1 << 22)
    for w in range(first, stop, width):
        count = min(width, stop - w)
        flags = bytearray(b"\x01") * count
        _strike(flags, 6, w, roots)
        for q in split:
            j = (q - 1) // 6 - w
            if 0 <= j < count:
                flags[j] = 0
                skipped += 1
        counted += flags.count(1)
        hits += _cubic_window_hits(flags, w, row_hits)
        del flags  # before the next window's are allocated
    return counted, skipped, hits


def _cubic_row_decider(hit, three, keyed):
    # row_hits(b, found): the hits among the primes with primary a + b·omega,
    # a in found.  A prime's key is three's step at n = b/3 plus, for each key
    # prime q ∤ b, q's step at t ≡ a/b (mod q).  The key primes are packed,
    # smallest first, into groups whose product is within CUBIC_TABLE_CAP;
    # along a row a group's steps add up to a function of t modulo the
    # product M of its primes q ∤ b, read from one table over t mod M built
    # on first use, so a prime costs one lookup per group
    groups = [[]]
    for q in sorted(keyed):
        if prod(groups[-1]) * q > CUBIC_TABLE_CAP:
            groups.append([])
        groups[-1].append(q)
    shifted = [hit[base:] for base in three]  # hit[base + key] at [key]
    tables = {}

    def row_hits(b, found):
        keys = None
        for group in groups:
            qs = tuple(q for q in group if b % q)
            table = tables.get(qs)
            if table is None:
                table = tables[qs] = _cubic_key_table(keyed, qs)
            m = len(table)
            inv = pow(b, -1, m)
            if keys is None:
                keys = [table[a * inv % m] for a in found]
            else:
                keys = [key + table[a * inv % m] for key, a in zip(keys, found)]
        return sum(map(shifted[2 * (b // 3) % 3].__getitem__, keys))

    return row_hits


def _cubic_key_table(keyed, qs) -> list[int]:
    # the sum of q's steps over q in qs at each t mod M = prod(qs): keyed[q]
    # repeated M/q times
    m = prod(qs)
    keys = [0] * m
    for q in qs:
        keys = list(map(add, keys, keyed[q] * (m // q)))
    return keys


def _cubic_window_hits(flags, w, row_hits) -> int:
    # hits among the primes N = 6(w + j) + 1 flagged in one window, walked as
    # the norms of primary a + b·omega, b = 3, 6, ... while 3b^2 is below 4N
    # at the window's end
    low, high = 4 * (6 * w + 1), 4 * (6 * (w + len(flags)) + 1)
    total = 0
    b = 3
    while 3 * b * b < high:
        lo4, hi4 = low - 3 * b * b, high - 3 * b * b
        u0 = isqrt(lo4 - 1) + 1 if lo4 > 0 else 0  # u = 2a - b: lo4 <= u^2 < hi4
        u1 = isqrt(hi4 - 1) + 1
        # a ≡ 2 (mod 3), and odd where b is even so that N is odd
        h, res = (3, 2) if b & 1 else (6, 5)
        avals, idx = [], []
        for a0, a1 in (
            ((b + u0 + 1) // 2, (b + u1 + 1) // 2),
            ((b - u1) // 2 + 1, (b - max(u0, 1)) // 2 + 1),
        ):
            a0 += (res - a0) % h
            if a0 < a1:
                # j = (N - 1)/6 - w along the interval: first step
                # h(2a + h - b)/6, second difference h^2/3
                d0, dd = h * (2 * a0 + h - b) // 6, h * h // 3
                avals.append(range(a0, a1, h))
                j0 = (a0 * a0 - a0 * b + b * b - 1) // 6 - w
                idx += accumulate(range(d0, d0 + dd * (len(avals[-1]) - 1), dd), initial=j0)
        # the trailing index keeps itemgetter's result a tuple
        found = [*compress(chain(*avals), itemgetter(*idx, 0)(flags))] if idx else ()
        if found:
            total += row_hits(b, found)
        b += 3
    return total


def _projection_solution(ns: list[int], fnums: list[int], fdens: list[int], q: int, p: int):
    # the t mod q with (n_j^t · c_j)^m == 1 for all j, m = (p-1)/q and
    # c_j = f(n_j)^-1, as (t, q), or (0, 1) when every n_j projects to 1;
    # None when no t fits.  c_j^m = (fd_j · fn_j^(q-1))^m needs no inverse,
    # and witness j is reduced only when the walk reaches it: up to the
    # first n_j of projection u != 1 (the pivot) each c_j must project to
    # 1; the pivot fixes t, since its c_j projects to w in <u> = mu_q and
    # u^t · w == 1 for t = -log_u(w); every later witness then costs one power
    m = (p - 1) // q
    t = None
    for n, fn, fd in zip(ns, fnums, fdens):
        c = fd if fn == 1 else fd * pow(fn, q - 1, p)  # fn = 1 at every c4 witness
        if t is not None:
            if pow(pow(n, t, p) * c, m, p) != 1:
                return None
            continue
        u = pow(n, m, p)
        w = pow(c, m, p)
        if u != 1:
            s = _digit_log(u, w, q, p)
            if s is None:
                return None
            t = -s % q
        elif w != 1:
            return None
    return (0, 1) if t is None else (t, q)


def _component_solution(avals: list[int], cs: list[int], q: int, e: int, p: int):
    # the k with u_j^k == v_j^-1 for all j, u_j = a_j^cof and v_j = c_j^cof
    # for cof = (p-1)/q^e, as (k mod q^s, q^s); None when no k fits.  All lie
    # in the cyclic subgroup of order q^e, where the u_j of largest order q^s
    # generates every other u_j; v_pivot must lie in its group, and
    # t = log v_pivot (mod q^s) is then the only candidate for u_j^t == v_j
    cof = (p - 1) // q**e
    us = [pow(a, cof, p) for a in avals]
    vs = [pow(c, cof, p) for c in cs]
    u_piv, v_piv, s = 1, 1, 0
    for u, v in zip(us, vs):
        w, order_exp = u, 0
        while w != 1:
            w = pow(w, q, p)
            order_exp += 1
        if order_exp > s:
            u_piv, v_piv, s = u, v, order_exp
    if pow(v_piv, q**s, p) != 1:
        return None
    t = _prime_power_log(u_piv, v_piv, q, s, p) if s else 0
    if not all(pow(u, t, p) == v for u, v in zip(us, vs)):
        return None
    return -t % q**s, q**s


# the parity codes omega_members reads, and the q = 2 projection each
# stands for: code 0 fits no k, 1 only even k, 2 only odd k, and 3 every k
# (every n_j and every f(n_j) is a square mod p); -1 is not read
_PARITY_CODES = range(-1, 4)
_PARITY_PARTS = (None, (0, 2), (1, 2), (0, 1))


def _omega_solution(p: int, ns: list[int], fnums: list[int], fdens: list[int], code: int):
    # (k, m) with n_j^k == f(n_j) (mod p) for all j exactly when k ≡ k
    # (mod m), or None.  The projections of order q <= 47 come first and
    # reject almost every prime; a parity code >= 0 stands for the q = 2
    # one.  Only a survivor factors p-1 and solves the components they
    # leave open; only one with a component of order q^e, e >= 2, reduces
    # and inverts every witness.  The residues combine by CRT
    parts = []  # (k mod n, n), the n pairwise coprime
    for q in _SMALL_Q:
        if (p - 1) % q == 0:
            if q == 2 and code >= 0:
                part = _PARITY_PARTS[code]
            else:
                part = _projection_solution(ns, fnums, fdens, q, p)
            if part is None:
                return None
            if (p - 1) % (q * q):  # q || p-1
                parts.append(part)
    avals = cs = None
    for q, e in _prime_powers(p - 1):
        if e > 1:
            if avals is None:
                # c_j = f(n_j)^-1, so each test is a_j^k · c_j == 1
                avals = [n % p for n in ns]
                cs = [fd * pow(fn, -1, p) % p for fn, fd in zip(fnums, fdens)]
            part = _component_solution(avals, cs, q, e, p)
        elif q > _SMALL_Q[-1]:
            part = _projection_solution(ns, fnums, fdens, q, p)
        else:
            continue  # solved by its projection above
        if part is None:
            return None
        parts.append(part)
    k, m = 0, 1
    for t, n in parts:
        k += m * ((t - k) * pow(m, -1, n) % n)
        m *= n
    return k, m


def omega_members(
    primes: list[int],
    ns: list[int],
    fnums: list[int],
    fdens: list[int],
    parities: list[int] | None = None,
) -> tuple[int, int, list[tuple[int, int, int]]]:
    """The primes where (f(n_j)) is a simultaneous power of (n_j) mod p, with its exponents.

    Returns (counted, skipped, members): skipped primes divide some n_j or
    some f(n_j) numerator/denominator; counted primes were tested; members
    lists (p, k, m), in order, for each counted p where the k with
    n_j^k ≡ f(n_j) (mod p) for all j are exactly k + mZ, 0 <= k < m; m is
    the order of the group the n_j generate mod p.

    parities, when given, holds one code per prime: which parities of k the
    quadratic characters allow, bit 1 "k even" (every (f(n_j)/p) = 1) and
    bit 2 "k odd" (every (f(n_j)/p) = (n_j/p)).  A code stands for the
    q = 2 projection: 0 rejects p, 1 fixes k ≡ 0 and 2 fixes k ≡ 1 (mod 2),
    and 3 leaves k free; -1 means not read, and the projection is taken.
    A code outside -1..3, or a list whose length differs from primes, raises
    ValueError.

    For each prime q <= 47 dividing p - 1, ascending, the projections
    x -> x^((p-1)/q) are taken one witness at a time: a witness whose n_j
    projects to 1 needs an f(n_j) that does too, the first one projecting to
    u != 1 fixes k mod q by a walk of at most q steps, each later witness
    costs one power, and the first failure rejects p.  A witness is reduced
    mod p only when the walk reaches it, and no inverse is taken.  Only a
    survivor factors p - 1: a component of prime order q > 47 gets the same
    test with k mod q from BSGS, and one of order q^e, e >= 2, fixes k mod
    q^s by a Pohlig-Hellman log of its projection of largest order q^s.
    The residues combine by CRT.  Every p in primes must be prime, unchecked
    (see the module docstring).
    """
    if parities is None:
        parities = repeat(-1)
    elif len(parities) != len(primes):
        raise ValueError(f"{len(parities)} parity codes for {len(primes)} primes")
    elif not all(code in _PARITY_CODES for code in parities):
        raise ValueError("a parity code lies outside -1..3")
    counted = skipped = 0
    members = []
    values = [*ns, *fnums, *fdens]
    # no p above every |value| divides one, unless some value is 0
    vmax = max(map(abs, values), default=0) if all(values) else max(primes, default=0)
    for p, code in zip(primes, parities):
        if p <= vmax and any(v % p == 0 for v in values):
            skipped += 1
            continue
        counted += 1
        solution = _omega_solution(p, ns, fnums, fdens, code)
        if solution is not None:
            members.append((p, *solution))
    return counted, skipped, members
