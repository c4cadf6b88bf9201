"""Completely multiplicative maps on Q and local power-map membership.

A map is modeled as finite prime overrides plus a power default q -> q^k,
which makes membership of a prime p in S_f (f acts as x -> x^{k_p} on units
mod p) exactly decidable.  Raw integer functions get the empirical mode only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt, lgamma, log, log2

from . import _parallel, kernels
from .errors import (
    ConfigError,
    DomainError,
    EmptyTupleError,
    ExactRangeError,
    FunctionSpecError,
    NonIntegralValueError,
    NotPrimeError,
    OddPrimeRequiredError,
    WitnessSearchExhausted,
    ZeroValueError,
)
from .modular import PrimeCache, check_table_limit
from .ratfact import MAX_VALUE_BITS, ONE, FactoredRational, as_factored, is_prime


EMPIRICAL_BOUND = 50  # default prime bound of the empirical verdict

# The most entries a value table f(1..N) may have.  Small values cost about
# 50 bytes an entry (the int, its slot and a smallest-prime-factor slot), so
# the cap keeps such a table near 1 GB.
MAX_TABLE_SLOTS = 2 * 10**7

# The most bytes the values of a table f(1..N) may take together (1 GiB),
# estimated from their bit lengths before any value is built: wide values
# fill memory long before the entries reach MAX_TABLE_SLOTS.
MAX_TABLE_BYTES = 2**30


class MultiplicativeMap:
    """Finite prime overrides + default rule q -> q^k, extended to all of Q*."""

    def __init__(self, sign_value=1, overrides=None, default_exponent=1, kind="table"):
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
        self.default_exponent = int(default_exponent)
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
                return cls.global_power(_spec_int(obj["exponent"], "exponent"))
            overrides = {
                int(q): as_factored(str(v)) for q, v in obj.get("overrides", {}).items()
            }
            return cls.table(
                overrides,
                _spec_int(obj.get("default_exponent", 1), "default_exponent"),
                _spec_int(obj.get("sign_value", 1), "sign_value"),
            )
        except FunctionSpecError:
            raise
        except Exception as exc:
            raise FunctionSpecError(f"bad function spec: {exc}") from exc


_SPEC_KEYS = {
    "power": {"kind", "exponent"},
    "table": {"kind", "sign_value", "default_exponent", "overrides"},
}


def _spec_int(value, key: str) -> int:
    # a JSON integer or an integer string: int() would round a float, read a bool as 0/1
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise FunctionSpecError(f"bad function spec: {key} must be an integer")
    return int(value)


def evaluate(f: MultiplicativeMap, x) -> FactoredRational:
    """f(x) through the factorization of x; completely multiplicative."""
    x = as_factored(x)
    out = FactoredRational(f.sign_value if x.sign < 0 else 1, {})
    for q, e in sorted(x.exponents.items()):
        out = out * f._value_at_prime(q) ** e
    return out


@dataclass
class LocalVerdict:
    """Decision for one prime: is f locally x -> x^{k_p} on units mod p?"""

    p: int
    member: str  # "yes" | "no" | "unknown"
    k_p: int | None
    mode: str  # "exact" | "empirical"
    bound: int | None = None


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
    """Check mode, domain and model once; the decision p -> (member, k_p) for primes p.

    Each value f(q) the decision reads becomes a pair (a, b) here, so a prime
    costs only `%` and `pow`: f(q) is a unit ≡ q^k_p (mod p) exactly when
    p ∤ b and p | a - q^k_p·b.
    """
    _check_verdicts(f, mode, bound, domain)
    structured = isinstance(f, MultiplicativeMap)
    rational = domain == "rational"
    if mode == "exact":
        table = [(q, *_fraction_pair(v)) for q, v in f.overrides.items()]
    else:
        table = [
            (q, *_fraction_pair(f._value_at_prime(q) if structured else f(q)))
            for q in kernels.sieve(_verdict_bound(mode, bound))
        ]

    def agrees(p: int, k_p: int) -> bool:
        # every tabulated q other than p maps to a unit ≡ q^k_p (mod p);
        # at p = 2 (k_p = 0) that says f(q) is a 2-adic unit
        for q, a, b in table:
            if q != p and (b % p == 0 or (a - pow(q, k_p, p) * b) % p):
                return False
        return not rational or (f.sign_value - (-1) ** k_p) % p == 0

    def exact(p: int):
        k_p = f.default_exponent % (p - 1)
        return ("yes", k_p) if agrees(p, k_p) else ("no", None)

    def empirical(p: int):
        # k_p is the log of f(g) to the base g, the smallest tabulated prime
        # other than p whose residue generates the units mod p
        factors = [r for r, _ in kernels.factorize(p - 1)]
        for q, a, b in table:
            g = q % p
            if q != p and all(pow(g, (p - 1) // r, p) != 1 for r in factors):
                break
        else:
            return "unknown", None
        if a % p == 0 or b % p == 0:
            return "no", None
        k_p = kernels.discrete_log(g, a * pow(b, -1, p) % p, p)
        return ("yes", k_p) if agrees(p, k_p) else ("no", None)

    return exact if mode == "exact" else empirical


def local_exponent(f, p: int, mode="exact", bound=None, domain="positive") -> LocalVerdict:
    """Decide whether f is a local power map at p."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    member, k_p = _verdicts(f, mode, bound, domain)(p)
    return LocalVerdict(p, member, k_p, mode, _verdict_bound(mode, bound))


def sf_members(f, primes, mode, bound, domain) -> tuple[list[tuple[int, int]], int]:
    """(p, k_p) of the members among the primes, in their order, plus the count of unknowns.

    The primes come from a sieve and are not checked again.
    """
    decide = _verdicts(f, mode, bound, domain)
    members = []
    unknown = 0
    for p in primes:
        member, k_p = decide(p)
        if member == "yes":
            members.append((p, k_p))
        elif member == "unknown":
            unknown += 1
    return members, unknown


def _check_scan_model(f) -> None:
    # a MultiplicativeMap pickles to pool workers, and its value tables can be sized
    if not isinstance(f, MultiplicativeMap):
        raise ConfigError("a scan needs the structured model")


def scan_Sf(
    f, x: int, mode="exact", bound=None, domain="positive", workers: int = 1
) -> tuple[list[LocalVerdict], int]:
    """All yes-verdicts for primes <= x, plus the count of unknowns.

    f must be a MultiplicativeMap.  The inputs are checked before any prime
    is sieved; `workers` processes split the scan without changing it.
    """
    _check_scan_model(f)
    _check_verdicts(f, mode, bound, domain)
    pairs, unknown = _parallel.sf_scan_parallel(
        f, PrimeCache(x).primes, mode, bound, domain, workers
    )
    bound = _verdict_bound(mode, bound)
    return [LocalVerdict(p, "yes", k_p, mode, bound) for p, k_p in pairs], unknown


def _table_bits(f, top: int) -> float | None:
    """About how many bits the values f(1), ..., f(top) take together.

    log2|f(n)| sums k·log2(q) over the primes q | n that take the default
    q^k, and log2|f(q)| over the overrides, each v_q(n) times.  Over n <= top
    the primes sum to log2(top!), and Σ_n v_q(n) = Σ_j ⌊top/q^j⌋ is an
    override's weight.  None when the table fails at a prime instead (k < 0
    or a non-integral override q <= top), or when f is not a
    MultiplicativeMap.
    """
    if not isinstance(f, MultiplicativeMap) or f.default_exponent < 0:
        return None
    defaulted = lgamma(top + 1) / log(2)  # log2(top!) less the overrides' share
    bits = 0.0
    for q, v in f.overrides.items():
        if q > top:
            continue
        exponents = v.exponents
        if any(e < 0 for e in exponents.values()):
            return None
        weight, power = 0, q
        while power <= top:
            weight += top // power
            power *= q
        defaulted -= weight * log2(q)
        bits += weight * sum(e * log2(r) for r, e in exponents.items())
    # 0 when every prime <= top is overridden, else at least log2(2)
    if defaulted > 0.5:
        bits += f.default_exponent * defaulted
    return bits


def _check_table_size(f, top: int) -> None:
    """Reject a value table f(1..top) by its entries, then by its bytes."""
    check_table_limit(top)  # the error every sieve and table gives past sys.maxsize
    if top > MAX_TABLE_SLOTS:
        raise DomainError(
            f"cannot tabulate f up to {top}: value tables stop at "
            f"{MAX_TABLE_SLOTS} entries",
            limit=top,
        )
    try:
        bits = _table_bits(f, top)
    except OverflowError:  # an exponent past a float's range
        bits = inf
    if bits is not None and bits > 8 * MAX_TABLE_BYTES:
        raise ExactRangeError(
            f"cannot tabulate f up to {top}: its values would take more "
            f"than {MAX_TABLE_BYTES} bytes",
            limit=top,
        )


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


def _integer_values_per_n(f, top: int) -> list[int]:
    # vals[n] = f(n) for any callable f, one call per n; the test oracle of
    # _integer_values
    vals = [0] * (top + 1)
    for n in range(1, top + 1):
        vals[n] = _as_integer(f(n), n)
    return vals


def _smallest_prime_factors(top: int) -> list[int]:
    # spf[n] = the smallest prime factor of a composite n <= top, 0 elsewhere;
    # the larger primes are written first, so each slot keeps the smallest
    spf = [0] * (top + 1)
    for q in reversed(kernels.sieve(isqrt(top))):
        spf[q * q :: q] = [q] * len(range(q * q, top + 1, q))
    return spf


def _integer_values(f, top: int) -> list[int]:
    """1-indexed table vals[n] = f(n) as ints for n <= top; index 0 unused.

    A MultiplicativeMap is evaluated only at the primes, in one ascending
    pass: a composite n with smallest prime factor q takes f(q)·f(n/q).
    Every value an error depends on is built as the per-n oracle builds it,
    so the first failing n and its error are the oracle's.  That n is a
    prime for a non-integral value, since the values below it are integers.
    A product wider than MAX_VALUE_BITS is rebuilt as f(n), which raises the
    oracle's ExactRangeError when its exact form is out of range.
    """
    _check_table_size(f, top)
    if not isinstance(f, MultiplicativeMap):
        return _integer_values_per_n(f, top)
    spf = _smallest_prime_factors(top)
    vals = [1] * (top + 1)
    vals[0] = 0
    for n in range(2, top + 1):
        q = spf[n]
        if q:
            v = vals[q] * vals[n // q]
            if v.bit_length() > MAX_VALUE_BITS:
                f(n).value()  # raises here exactly when the oracle does
            vals[n] = v
        else:
            vals[n] = _as_integer(f._value_at_prime(n), n)
    return vals


def _shift_periodic(vals: list[int], p: int, bound: int) -> bool:
    # f(n+p) ≡ f(n) (mod p) for every n <= bound, read from the table vals
    return all((vals[n + p] - vals[n]) % p == 0 for n in range(1, bound + 1))


def _check_shift_bound(bound: int) -> None:
    # a bound below 1 checks no n, so every prime would pass
    if bound < 1:
        raise DomainError(f"the shift bound must be >= 1, got {bound}", bound=bound)


def shift_and_quasi_check(f, p: int, bound: int) -> tuple[bool, bool]:
    """Shift periodicity f(n+p) ≡ f(n) (mod p) and quasi-multiplicativity, n <= bound."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    _check_shift_bound(bound)
    vals = _integer_values(f, bound + p)
    shift_ok = _shift_periodic(vals, p, bound)
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


def tf_members(f, primes, shift_bound: int) -> list[int]:
    """Primes of an ascending list passing f(n+p) ≡ f(n) (mod p) for n <= shift_bound."""
    if not primes:
        return []
    vals = _integer_values(f, shift_bound + primes[-1])
    return [p for p in primes if _shift_periodic(vals, p, shift_bound)]


def scan_Tf(f, x: int, shift_bound: int = 100) -> list[int]:
    """Primes p <= x passing the shift check f(n+p) ≡ f(n) (mod p), n <= shift_bound.

    f must be a MultiplicativeMap.  The inputs, and the size of the value
    table f(1 .. x + shift_bound) in entries and in bytes, are checked before
    any prime is sieved.  The scan runs in this process, on one table.
    """
    _check_scan_model(f)
    _check_shift_bound(shift_bound)
    _check_table_size(f, x + shift_bound)
    return _parallel.tf_scan_parallel(f, PrimeCache(x).primes, shift_bound)


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
