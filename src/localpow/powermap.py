"""Completely multiplicative maps on Q and local power-map membership.

A map is modeled as finite prime overrides plus a power default q -> q^k,
which makes membership of a prime p in S_f (f acts as x -> x^{k_p} on units
mod p) exactly decidable.  Raw integer functions get the empirical mode only.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

from . import _parallel, kernels
from .errors import (
    ConfigError,
    DomainError,
    EmptyTupleError,
    FunctionSpecError,
    NonIntegralValueError,
    NotPrimeError,
    OddPrimeRequiredError,
    WitnessSearchExhausted,
    ZeroValueError,
)
from .modular import check_table_limit
from .ratfact import ONE, FactoredRational, as_factored, is_prime


EMPIRICAL_BOUND = 50  # default prime bound of the empirical verdict

# power_members asks the kernel with at most this many witness rows first,
# and with all of them only for the primes those keep.  It is at most the
# native kernel's MAX_WIDTH (64), so the first call stays native; the
# empirical verdict's default bound tabulates 15 q, which need no second call.
HEAD_WITNESSES = 16

# The largest shift bound B a shift check takes: the largest that a tf-scan
# accepted while it tabulated f(1 .. x + B) in at most 2·10^7 entries
# (x >= 2).  A prime that passes the scan costs O(B) steps: at this cap,
# p = 2 on the table 2 -> 5, 3 -> 7, 5 -> 11 took 31 s (pure, Python 3.11,
# 2-vCPU x86-64 VM).
MAX_SHIFT_BOUND = 2 * 10**7 - 2

# An exact scan reads its candidate primes off G, the gcd of the numbers
# N_q (see _member_candidates), only where the first N_q it builds is
# estimated at no more than MAX_GCD_BITS bits (gcd of two such numbers:
# about 5 ms) and G has at most FACTOR_BITS bits.  The cap bounds the
# Miller-Rabin tests kernels.factorize runs on G's cofactors, not its rho
# walks, which have their own budget: is_prime on a random 4096-bit prime
# took 0.58-0.68 s and as_factored(2^4423 - 1) 0.27-0.31 s, and G may be
# 2^16 bits wide (pure, Python 3.11, 2-vCPU x86-64 VM).
# Otherwise, or where rho leaves a cofactor of G unsplit, it tests every
# prime.
MAX_GCD_BITS = 2**16
FACTOR_BITS = 64

# _character_prefilter leaves out a witness whose table of quadratic
# characters would have more entries than this, or would take the tables
# together past MAX_CHARACTER_BYTES (an empirical verdict has a witness for
# each tabulated prime)
MAX_CHARACTER_MODULUS = 2**20
MAX_CHARACTER_BYTES = 2**22


class MultiplicativeMap:
    """Finite prime overrides + default rule q -> q^k, extended to all of Q*."""

    def __init__(self, sign_value=1, overrides=None, default_exponent=1, kind="table"):
        # ints only: int() would round a float and read a bool as 0/1
        for name, value in (
            ("sign_value", sign_value),
            ("default_exponent", default_exponent),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if sign_value not in (1, -1):
            raise ZeroValueError(f"sign_value must be +1 or -1, got {sign_value}")
        if kind not in ("global_power", "table"):
            raise ConfigError(f"unknown kind {kind!r}")
        ov = {}
        for q, v in (overrides or {}).items():
            if not is_prime(q):
                raise NotPrimeError(f"override key {q} is not prime")
            ov[q] = as_factored(v)
        if kind == "global_power" and ov:
            raise ConfigError("a global power map has no overrides")
        self.sign_value = sign_value
        self.overrides = ov
        self.default_exponent = default_exponent
        self.kind = kind

    @classmethod
    def global_power(cls, k: int) -> "MultiplicativeMap":
        """The map x -> x^k."""
        return cls(
            sign_value=-1 if k % 2 else 1,
            overrides=None,
            default_exponent=k,
            kind="global_power",
        )

    @classmethod
    def table(cls, overrides, default_exponent=1, sign_value=1) -> "MultiplicativeMap":
        return cls(sign_value, overrides, default_exponent, kind="table")

    def value_at_prime(self, q: int) -> FactoredRational:
        if not is_prime(q):
            raise NotPrimeError(f"{q} is not prime")
        return self._value_at_prime(q)

    def _value_at_prime(self, q: int) -> FactoredRational:
        # f(q) for a q already known to be prime
        v = self.overrides.get(q)
        if v is not None:
            return v
        k = self.default_exponent
        return FactoredRational._raw(1, {q: k}) if k else ONE

    def __call__(self, x) -> FactoredRational:
        return evaluate(self, x)

    def to_json(self) -> dict:
        if self.kind == "global_power":
            return {"kind": "power", "exponent": self.default_exponent}
        return {
            "kind": "table",
            "sign_value": self.sign_value,
            "default_exponent": self.default_exponent,
            "overrides": {
                str(q): str(v.value()) for q, v in sorted(self.overrides.items())
            },
        }

    @classmethod
    def from_json(cls, obj) -> "MultiplicativeMap":
        try:
            kind = obj["kind"]
            if kind not in _SPEC_KEYS:
                raise FunctionSpecError(f"unknown function kind {kind!r}")
            unknown = sorted(set(obj) - _SPEC_KEYS[kind])
            if unknown:
                raise FunctionSpecError(f"unknown keys {unknown} in a {kind} spec")
            if kind == "power":
                return cls.global_power(_spec_int(obj["exponent"]))
            overrides = {
                int(q): as_factored(str(v)) for q, v in obj.get("overrides", {}).items()
            }
            return cls.table(
                overrides,
                _spec_int(obj.get("default_exponent", 1)),
                _spec_int(obj.get("sign_value", 1)),
            )
        except FunctionSpecError:
            raise
        except Exception as exc:
            raise FunctionSpecError(f"bad function spec: {exc}") from exc


_SPEC_KEYS = {
    "power": {"kind", "exponent"},
    "table": {"kind", "sign_value", "default_exponent", "overrides"},
}


def _spec_int(value):
    # an integer string becomes its int; the constructor rejects any other non-int
    return int(value) if isinstance(value, str) else value


def evaluate(f: MultiplicativeMap, x) -> FactoredRational:
    """f(x) through the factorization of x; completely multiplicative."""
    x = as_factored(x)
    out = FactoredRational(f.sign_value if x.sign < 0 else 1, {})
    for q, e in sorted(x.exponents.items()):
        out = out * f._value_at_prime(q) ** e
    return out


class LocalVerdict(namedtuple("LocalVerdict", "p member k_p mode bound", defaults=(None,))):
    """Decision for one prime: is f locally x -> x^{k_p} on units mod p?

    An empirical verdict reads f at the primes q <= bound.  It is "unknown"
    exactly when more than one k mod p - 1 gives q^k ≡ f(q) (mod p) at
    every such q other than p, that is, when those q generate a proper
    subgroup of the units mod p, so k_p is not fixed.  member is "yes",
    "no" or "unknown", mode "exact" or "empirical".
    """

    __slots__ = ()


def _fraction_pair(value) -> tuple[int, int]:
    # (a, b) with value = a/b and b > 0
    v = value.value() if isinstance(value, FactoredRational) else Fraction(value)
    if v == 0:
        raise ZeroValueError("function value 0 has no residue")
    return v.numerator, v.denominator


def _verdict_bound(mode: str, bound):
    # the prime bound a verdict reports: none in exact mode
    if mode == "exact":
        return None
    return EMPIRICAL_BOUND if bound is None else bound


def _check_verdicts(f, mode: str, bound, domain: str) -> None:
    """Reject a domain, mode, model or empirical bound that no verdict can use."""
    if domain not in ("positive", "rational"):
        raise ConfigError(f"unknown domain {domain!r}")
    structured = isinstance(f, MultiplicativeMap)
    if mode == "exact":
        if not structured:
            raise ConfigError("exact mode needs the structured model")
    elif mode == "empirical":
        if domain == "rational" and not structured:
            raise ConfigError("rational domain checks need the structured model")
        bound = _verdict_bound(mode, bound)
        if bound < 2:
            # no prime q <= bound could generate the units mod p
            raise DomainError(f"the empirical bound must be >= 2, got {bound}", bound=bound)
        check_table_limit(bound)
    else:
        raise ConfigError(f"unknown mode {mode!r}")


def _verdicts(f, mode: str, bound, domain: str):
    """Check mode, domain and model once; the decision primes -> ([(p, k_p)], unknown).

    The decision takes ascending primes and returns, in their order, the
    "yes" primes with k_p, and the number of "unknown" ones; the rest are
    "no".  Each value f(q) the decision reads becomes a pair (a, b) here,
    so an exact verdict costs only `%` and `pow`: f(q) is a unit ≡ q^k_p
    (mod p) exactly when p ∤ b and p | a - q^k_p·b.  An empirical verdict
    asks `power_members`: one call per prime p up to the largest tabulated
    q, whose rows leave out q = p, and one for the larger primes, with the
    character tables of a structured map's q and values, built once.
    """
    _check_verdicts(f, mode, bound, domain)
    structured = isinstance(f, MultiplicativeMap)
    rational = domain == "rational"
    if mode == "exact":
        table = [(q, *_fraction_pair(v)) for q, v in f.overrides.items()]
    else:
        qs = kernels.sieve(_verdict_bound(mode, bound))
        fvalues = [f._value_at_prime(q) if structured else f(q) for q in qs]
        table = [(q, *_fraction_pair(v)) for q, v in zip(qs, fvalues)]

    def signs_agree(p: int, k_p: int) -> bool:
        # in the rational domain, f(-1) = sign_value must be (-1)^k_p mod p
        return not rational or (f.sign_value - (-1) ** k_p) % p == 0

    def agrees(p: int, k_p: int) -> bool:
        # every tabulated q other than p maps to a unit ≡ q^k_p (mod p);
        # at p = 2 (k_p = 0) that says f(q) is a 2-adic unit
        for q, a, b in table:
            if q != p and (b % p == 0 or (a - pow(q, k_p, p) * b) % p):
                return False
        return signs_agree(p, k_p)

    def exact(primes):
        members = []
        for p in primes:
            k_p = f.default_exponent % (p - 1)
            if agrees(p, k_p):
                members.append((p, k_p))
        return members, 0

    if mode == "exact":
        return exact

    @cache
    def characters():
        # built on first use; a plain callable's values need not factor: no filter
        factored_qs = [FactoredRational._raw(1, {q: 1}) for q in qs]
        return _character_tables(factored_qs, fvalues) if structured else None

    def empirical(primes):
        # power_members returns the k with q^k ≡ f(q) (mod p) at every row
        # as k + mZ, m the order of the group those q generate mod p: a p
        # it leaves out is "no", and m < p - 1 leaves k_p open.  A p up to
        # the largest q (the bound is at least 2, so there is one) is
        # itself the tabulated q at index bisect_left(qs, p)
        cut = bisect_right(primes, qs[-1])
        found = []
        for p in primes[:cut]:
            i = bisect_left(qs, p)
            found += power_members([p], table[:i] + table[i + 1 :])[3]
        if cut < len(primes):
            found += power_members(primes[cut:], table, characters())[3]
        members, unknown = [], 0
        for p, k_p, m in found:
            if m < p - 1:
                unknown += 1
            elif signs_agree(p, k_p):
                members.append((p, k_p))
        return members, unknown

    return empirical


def local_exponent(f, p: int, mode="exact", bound=None, domain="positive") -> LocalVerdict:
    """Decide whether f is a local power map at p."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    members, unknown = _verdicts(f, mode, bound, domain)([p])
    member, k_p = ("yes", members[0][1]) if members else ("unknown" if unknown else "no", None)
    return LocalVerdict(p, member, k_p, mode, _verdict_bound(mode, bound))


def _character_bits(v, m: int) -> int:
    """The quadratic character of the value v at the odd primes p, by p mod m.

    Byte r of the result, as m little-endian bytes, is 1 where (v/p) = -1
    for the primes p ≡ r (mod m) that do not divide v; m is a multiple of
    4·|squarefree part of v|.  By reciprocity (v/p) is a product of (-1/p),
    (2/p) and (p/q) over the odd q of odd exponent, periodic mod 4, 8 and q;
    the sign flips once more for each such q ≡ 3 (mod 4).
    """
    patterns = []
    minus = v.sign < 0
    for q, e in v.exponents.items():
        if e % 2 == 0:
            continue
        if q == 2:
            patterns.append(b"\0\0\0\1\0\1\0\0")
            continue
        minus ^= q % 4 == 3
        nonresidue = bytearray(b"\1") * q
        nonresidue[0] = 0
        for y in range(1, q // 2 + 1):
            nonresidue[y * y % q] = 0
        patterns.append(nonresidue)
    if minus:
        patterns.append(b"\0\0\0\1")
    bits = 0
    for pattern in patterns:
        bits ^= int.from_bytes(pattern * (m // len(pattern)), "little")
    return bits


# code (n/p) = -1 plus 2·[(f/p) = -1] -> bit 1 "(f/p) = 1" | bit 2 "(f/p) = (n/p)"
_CHARACTER_MASKS = bytes((3, 1, 0, 2)) + bytes(252)


def _character_tables(witnesses, values):
    """(keep, tables, complete) for `_character_prefilter`, from factored witnesses and values.

    keep holds 2 and the primes dividing a witness or value; a witness gets
    no table (so complete is False) past MAX_CHARACTER_MODULUS entries, or
    when it would take the tables together past MAX_CHARACTER_BYTES.
    """
    keep = {2}
    tables = []
    size = 0
    for w, v in zip(witnesses, values):
        keep.update(w.support(), v.support())
        m = lcm(*(4 * prod(q for q, e in u.exponents.items() if e % 2) for u in (w, v)))
        if m <= MAX_CHARACTER_MODULUS and size + m <= MAX_CHARACTER_BYTES:
            codes = _character_bits(w, m) + 2 * _character_bits(v, m)
            tables.append((m, codes.to_bytes(m, "little").translate(_CHARACTER_MASKS)))
            size += m
    return keep, tables, len(tables) == len(witnesses)


def _character_prefilter(primes, characters) -> tuple[list[int], list[int]]:
    """The primes whose quadratic characters allow a common power, with their parity codes.

    If n^t ≡ f(n) (mod p) for each witness n, with p ∤ 2·n·f(n), then
    (f(n)/p) = (n/p)^t: every (f(n)/p) = 1 (t even) or every (f(n)/p) =
    (n/p) (t odd).  The primes that fail both are left out; those dividing 2,
    a witness or a value are kept.  Each kept prime comes with the parity
    code `kernels.omega_members` reads: bit 1 "t even fits", bit 2 "t odd
    fits", or -1 where p divides 2·n·f(n) or some witness has no table
    (see `_character_tables`).
    """
    keep, tables, complete = characters
    kept, parities = [], []
    for p in primes:
        bits = 3
        for m, table in tables:
            bits &= table[p % m]
            if not bits:
                break  # rejected, or kept with code -1 in keep
        if bits or p in keep:
            kept.append(p)
            parities.append(bits if complete and p not in keep else -1)
    return kept, parities


def _columns(rows) -> list[list[int]]:
    # the kernel's three columns n, a, b of the rows (n, a, b), also for no rows
    return [[row[i] for row in rows] for i in range(3)]


def power_members(primes, rows, characters=None):
    """(counted, skipped, settled, members): one k with n^k ≡ a/b (mod p) at every row?

    Each row (n, a, b) is a witness n with its value a/b.  members lists
    the kernel `omega_members`'s (p, k, m) for each p where the k that fit
    every row are exactly k + mZ.  skipped counts the primes dividing some
    n, a or b, settled those the prefilter leaves out, counted the rest.
    Given the witnesses' character tables (`_character_tables`),
    `_character_prefilter` settles the primes where no parity of k fits,
    and the kernel reads each kept prime's parity code.  With more than
    HEAD_WITNESSES rows the kernel is asked with the first HEAD_WITNESSES,
    and with all rows only on the primes those keep: a k that fits every
    row fits those, so members are those of one full call.  A p the head
    rejects stays counted.
    """
    codes = ()
    settled = 0
    if characters is not None:
        kept, parities = _character_prefilter(primes, characters)
        settled = len(primes) - len(kept)
        primes, codes = kept, (parities,)
    rejected = skipped = 0
    if len(rows) > HEAD_WITNESSES:
        counted, skipped, head = kernels.omega_members(
            primes, *_columns(rows[:HEAD_WITNESSES]), *codes
        )
        if not head:
            return counted, skipped, settled, []
        kept = {p for p, _, _ in head}
        rejected = counted - len(kept)
        codes = [[c for p, c in zip(primes, cs) if p in kept] for cs in codes]
        primes = [p for p in primes if p in kept]
    counted, late, members = kernels.omega_members(primes, *_columns(rows), *codes)
    return rejected + counted, skipped + late, settled, members


def _check_scan_model(f) -> None:
    # a MultiplicativeMap's values are read off its overrides and default
    # exponent, and it pickles to the pool workers of an empirical sf-scan,
    # the only chunks that receive f
    if not isinstance(f, MultiplicativeMap):
        raise ConfigError("a scan needs the structured model")


def _member_candidates(f, x: int, domain: str) -> list[int] | None:
    """The primes <= x that may be exact members of S_f, or None to test every prime.

    With f(q) = a_q/b_q and d the default exponent, a prime p that is not
    an override key is a member exactly when it divides every
    N_q = a_q - q^d·b_q (a_q·q^-d - b_q when d < 0), and in the rational
    domain sign_value - (-1)^d too: q^k_p ≡ q^d (mod p), and p cannot
    divide both N_q and b_q.  So the members are among the prime factors
    of G, the gcd of those numbers, and the override keys.  Once the gcd so
    far is nonzero, each N_q is built mod it.  None when G = 0 (f agrees
    with x^d at every override), when an N_q built in full would be wider
    than MAX_GCD_BITS, when G is wider than FACTOR_BITS, or when
    kernels.factorize leaves a cofactor of G unsplit.
    """
    d = f.default_exponent
    g = 0 if domain == "positive" else abs(f.sign_value - (-1 if d % 2 else 1))
    for q, v in f.overrides.items():
        a, b = _fraction_pair(v)
        if g:
            t = pow(q, abs(d), g)
        elif abs(d) * q.bit_length() + (a * b).bit_length() > MAX_GCD_BITS:
            return None
        else:
            t = q ** abs(d)
        g = gcd(g, a - t * b if d >= 0 else a * t - b)
    if not g or g.bit_length() > FACTOR_BITS:
        return None
    try:
        primes = {p for p, _ in kernels.factorize(g)}.union(f.overrides)
    except ArithmeticError:  # rho spent its budget on a cofactor of G
        return None
    return sorted(p for p in primes if p <= x)


def scan_Sf(
    f, x: int, mode="exact", bound=None, domain="positive", workers: int = 1
) -> tuple[list[LocalVerdict], int]:
    """All yes-verdicts for primes <= x, plus the count of unknowns.

    An exact scan decides only the candidates `_member_candidates` reads
    off one gcd, with no sieve, so it reaches any limit below sys.maxsize;
    where that gcd is 0, or too wide to build or to factor, it tests every
    prime <= x instead, with the same result.  An empirical scan tests
    every prime, and counts as unknown those where the tabulated values
    allow more than one k mod p - 1.  f must be a MultiplicativeMap, and
    the inputs are checked before any prime is generated.  A scan of every
    prime hands `_parallel` the range 2..x, whose chunks generate their
    primes; `workers` processes split it only in empirical mode.
    """
    _check_scan_model(f)
    _check_verdicts(f, mode, bound, domain)
    check_table_limit(x)
    candidates = _member_candidates(f, x, domain) if mode == "exact" else None
    if candidates is None:
        pairs, unknown = _parallel.sf_scan_parallel(
            f, range(2, x + 1), mode, bound, domain, workers
        )
    else:
        pairs, unknown = _verdicts(f, mode, bound, domain)(candidates)
    bound = _verdict_bound(mode, bound)
    return [LocalVerdict(p, "yes", k_p, mode, bound) for p, k_p in pairs], unknown


def _as_integer(v, n: int) -> int:
    # f(n) as an int, or the error that names n
    if isinstance(v, FactoredRational):
        v = v.value()
    v = Fraction(v)
    if v.denominator != 1:
        try:
            text = str(v)
        except ValueError:  # too many digits for the int-to-text limit
            text = (
                f"{'-' if v < 0 else ''}({v.numerator.bit_length()}-bit integer)"
                f"/({v.denominator.bit_length()}-bit integer)"
            )
        raise NonIntegralValueError(f"f({n}) = {text} is not an integer", n=n)
    return v.numerator


def _integer_values(f, top: int) -> list[int]:
    # vals[n] = f(n) as an int for n <= top, one call of f per n; index 0 unused
    vals = [0] * (top + 1)
    for n in range(1, top + 1):
        vals[n] = _as_integer(f(n), n)
    return vals


def _check_shift_bound(bound: int) -> None:
    # a bound below 1 checks no n, so every prime would pass
    if bound < 1:
        raise DomainError(f"the shift bound must be >= 1, got {bound}", bound=bound)
    if bound > MAX_SHIFT_BOUND:
        raise DomainError(
            f"the shift bound must be at most {MAX_SHIFT_BOUND}, got {bound}", bound=bound
        )


def shift_and_quasi_check(f, p: int, bound: int) -> tuple[bool, bool]:
    """Shift periodicity f(n+p) ≡ f(n) (mod p) and quasi-multiplicativity, n <= bound.

    f is read at n and at n + p for each n <= bound, and must be an integer
    there; the error names the first n read, in that order, where it is not.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    _check_shift_bound(bound)
    vals = _integer_values(f, bound)
    shifted = [_as_integer(f(n + p), n + p) for n in range(1, bound + 1)]
    shift_ok = all((v - vals[n]) % p == 0 for n, v in enumerate(shifted, 1))
    quasi_ok = True
    for q in kernels.sieve(bound):
        for n in range(1, bound // q + 1):
            if n % q == 0:
                continue
            if vals[q * n] != vals[q] * vals[n]:
                quasi_ok = False
                break
        if not quasi_ok:
            break
    return shift_ok, quasi_ok


def _shift_keys(f: MultiplicativeMap, top: int) -> list[tuple[int, int]]:
    """The keys (q, f(q)) of f up to top, once f(1), ..., f(top) are known to be integers.

    A key is an override q <= top with f(q) ≠ q^d, d the default exponent.
    f(n) is an integer at every n <= top exactly when f(q) is at every prime
    q <= top, so the first n where it is not is the smallest such q: an
    override, or, for d < 0, the smallest prime off the overrides.  The error
    is the one the value f(q) itself raises there.
    """
    d = f.default_exponent
    primes = [q for q in f.overrides if q <= top]
    if d < 0:
        q = 2
        while q in f.overrides or not is_prime(q):
            q += 1
        primes.append(q)  # f(q) = q^d is not an integer
    keys = []
    for q in sorted(primes):
        if q > top:
            break
        v = f._value_at_prime(q)
        a = _as_integer(v, q)
        if v.sign < 0 or v.exponents != ({q: d} if d else {}):
            keys.append((q, a))
    return keys


def tf_members(primes, keys, d: int, bound: int) -> list[int]:
    """The primes p of a list with f(n + p) ≡ f(n) (mod p) at every n <= bound.

    f is given by its keys (q, f(q)) (see `_shift_keys`) and its default
    exponent d: f(m) = m'^d · ∏ f(q)^v_q(m), m' being m less its key
    factors (m' = 1 for d < 0, where every prime up to x + bound is a key).
    So f(m) mod p costs one `pow` and no wide integer, and f(m) = m^d where
    no key divides m.  As (n + p)^d ≡ n^d (mod p), only the n
    where a key divides n or n + p can fail: first each n <= bound with a
    key factor, in ascending order, where almost every prime fails at the
    first, then, key by key, the other n <= bound with n ≡ -p (mod q).
    """

    def value(m: int, p: int) -> int:
        # f(m) mod p
        v = 1
        for q, a in keys:
            if m % q == 0:
                m //= q
                v = v * a % p
                while m % q == 0:
                    m //= q
                    v = v * a % p
        return v * pow(m, d, p) % p

    def holds(n: int, p: int) -> bool:
        return value(n + p, p) == value(n, p)

    # n <= bound has a key factor exactly when gcd(n, small) > 1
    small = prod(q for q, _ in keys if q <= bound)
    members = primes
    if small > 1:
        for n in range(1, bound + 1):
            if not members:
                return members
            if gcd(n, small) > 1:
                members = [p for p in members if holds(n, p)]
    for q, _ in keys:
        members = [
            p
            for p in members
            if all(holds(n, p) for n in range(-p % q or q, bound + 1, q) if gcd(n, small) == 1)
        ]
    return members


def scan_Tf(f, x: int, shift_bound: int = 100, workers: int = 1) -> list[int]:
    """Primes p <= x passing the shift check f(n+p) ≡ f(n) (mod p), n <= shift_bound.

    f must be a MultiplicativeMap whose values f(1), ..., f(x + shift_bound)
    are integers.  The inputs are checked, and f reduced to its keys
    (`_shift_keys`), before any prime is generated.  The scan hands
    `_parallel` the range 2..x, whose chunks generate their primes and decide
    them mod p with `tf_members`; `workers` processes split it.
    """
    _check_scan_model(f)
    _check_shift_bound(shift_bound)
    check_table_limit(x)
    keys = _shift_keys(f, x + shift_bound)
    return _parallel.tf_scan_parallel(
        range(2, x + 1), keys, f.default_exponent, shift_bound, workers
    )


def extend_to_Q(overrides, default_exponent: int, nu_f: int) -> MultiplicativeMap:
    """Extend a sign-free map on N to Q* with f(-1) = (-1)^{nu_f}."""
    if nu_f not in (0, 1):
        raise ConfigError(f"nu_f must be 0 or 1, got {nu_f}")
    return MultiplicativeMap.table(
        overrides, default_exponent=default_exponent, sign_value=(-1) ** nu_f
    )


def nu_vote(verdicts) -> int:
    """Majority parity of observed k_p; the tie goes to even."""
    odd = sum(1 for v in verdicts if v.k_p is not None and v.k_p % 2)
    even = sum(1 for v in verdicts if v.k_p is not None and v.k_p % 2 == 0)
    return 1 if odd > even else 0


def _power_of(fr: FactoredRational, n: int) -> bool:
    # is fr in n^Z ∪ -n^Z, i.e. |fr| an integer power of n?
    en = as_factored(n).exponents
    if fr.is_unit():
        return True
    fq, fe = next(iter(sorted(fr.exponents.items())))
    base = en.get(fq, 0)
    if base == 0 or fe % base:
        return False
    j = fe // base
    union = set(en) | set(fr.exponents)
    return all(fr.ord(q) == j * en.get(q, 0) for q in union)


def find_witness(f: MultiplicativeMap, count: int, search_limit: int = 1000) -> list[int]:
    """Square-free n > 1 with f(n) outside ±n^Z: single primes, then prime pairs."""
    found = []
    check_table_limit(search_limit)
    primes = kernels.sieve(search_limit)
    for q in primes:
        if not _power_of(evaluate(f, q), q):
            found.append(q)
            if len(found) == count:
                return found
    pairs = []
    for i, q1 in enumerate(primes):
        for q2 in primes[i + 1 :]:
            if q1 * q2 > search_limit:
                break
            pairs.append((q1 * q2, q1, q2))
    for n, _, _ in sorted(pairs):
        if not _power_of(evaluate(f, n), n):
            found.append(n)
            if len(found) == count:
                return found
    raise WitnessSearchExhausted(
        f"found {len(found)} of {count} witnesses below {search_limit}",
        found=len(found),
        requested=count,
        search_limit=search_limit,
    )


class PrescribedFunction:
    """CRT-built integer function with f(n) ≡ n^{k_p} (mod p) for each p in S."""

    def __init__(self, exponents: dict[int, int]):
        if not exponents:
            raise EmptyTupleError("need at least one prime")
        self.exponents = dict(sorted(exponents.items()))
        self.modulus = 1
        for p, k in self.exponents.items():
            if not is_prime(p):
                raise NotPrimeError(f"{p} is not prime")
            if p == 2:
                raise OddPrimeRequiredError("prescribed primes must be odd")
            if not 0 <= k <= p - 2:
                raise DomainError(f"k_{p} = {k} outside [0, {p - 2}]", p=p)
            self.modulus *= p
        self.primes = list(self.exponents)

    def __call__(self, n: int) -> int:
        x, mod = 0, 1
        for p, k in self.exponents.items():
            r = pow(n, k, p)
            x += mod * ((r - x) * pow(mod, -1, p) % p)
            mod *= p
        return x if x else self.modulus


def construct_prescribed(S, k) -> PrescribedFunction:
    """Integer function whose local exponent at each p in S is k[p]."""
    S = sorted(set(S))
    if not S:
        raise EmptyTupleError("S must be nonempty")
    return PrescribedFunction({p: k[p] for p in S})
