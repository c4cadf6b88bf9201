"""Pure-Python backend for the prime and scan kernels.

The specification of the compiled backend: each of the three kernels that
`_native.c` also implements (`sieve`, `class_counts` and `omega_members`)
must return exactly what the one here does and raise the same exception
types, or raise `OverflowError` on an argument too wide for its 64-bit
words, which `localpow.kernels` then reruns here.  The others
(`count_primes`, `prime_segments`, `is_prime`, `factorize`, `discrete_log`
and `z_b_rows`) run from here under every backend.  One pivot test,
`_projection_solution`, decides a projection for `omega_members` and a
c4 prime for `class_counts`.

The scan kernels take their primes on trust: every p in `primes` must be
prime, and for `class_counts` p ≡ 1 (mod ell).  Neither checks; off that
contract their results are unspecified and may differ between backends.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress, repeat
from math import gcd, isqrt

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
        if j < count:
            flags[j::q] = bytes(len(range(j, count, q)))


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
    """Miller-Rabin, bases 2..37: exact below psi_12 = 318665857834031151167461 (A014233)."""
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
