"""Completely multiplicative maps on Q and local power-map membership.

A map is modeled as finite prime overrides plus a power default q -> q^k,
which makes membership of a prime p in S_f (f acts as x -> x^{k_p} on units
mod p) exactly decidable.  Raw integer functions get the empirical mode only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .modular import PrimeCache, discrete_log
from .ratfact import ONE, FactoredRational, as_factored, is_prime


EMPIRICAL_BOUND = 50  # default prime bound of the empirical verdict


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
        v = self.overrides.get(q)
        if v is not None:
            return v
        k = self.default_exponent
        return FactoredRational(1, {q: k}) if k else ONE

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
            if kind == "power":
                return cls.global_power(int(obj["exponent"]))
            if kind == "table":
                overrides = {
                    int(q): as_factored(str(v))
                    for q, v in obj.get("overrides", {}).items()
                }
                return cls.table(
                    overrides,
                    default_exponent=int(obj.get("default_exponent", 1)),
                    sign_value=int(obj.get("sign_value", 1)),
                )
        except FunctionSpecError:
            raise
        except Exception as exc:
            raise FunctionSpecError(f"bad function spec: {exc}") from exc
        raise FunctionSpecError(f"unknown function kind {kind!r}")


def evaluate(f: MultiplicativeMap, x) -> FactoredRational:
    """f(x) through the factorization of x; completely multiplicative."""
    x = as_factored(x)
    out = FactoredRational(f.sign_value if x.sign < 0 else 1, {})
    for q, e in sorted(x.exponents.items()):
        out = out * f.value_at_prime(q) ** e
    return out


@dataclass
class LocalVerdict:
    """Decision for one prime: is f locally x -> x^{k_p} on units mod p?"""

    p: int
    member: str  # "yes" | "no" | "unknown"
    k_p: int | None
    mode: str  # "exact" | "empirical"
    bound: int | None = None


def _exact_verdict(f: MultiplicativeMap, p: int, domain: str) -> LocalVerdict:
    if p == 2:
        # k lives in Z/1Z; membership = f maps 2-adic units to 2-adic units
        for q, v in f.overrides.items():
            if q != 2 and v.ord(2) != 0:
                return LocalVerdict(2, "no", None, "exact")
        return LocalVerdict(2, "yes", 0, "exact")
    k_p = f.default_exponent % (p - 1)
    if domain == "rational" and (f.sign_value - (-1) ** k_p) % p != 0:
        return LocalVerdict(p, "no", None, "exact")
    for q, v in f.overrides.items():
        if q == p:
            continue  # ord_p(q) != 0 exempts the override
        if v.ord(p) != 0:
            return LocalVerdict(p, "no", None, "exact")
        if v.reduce_mod(p) != pow(q, k_p, p):
            return LocalVerdict(p, "no", None, "exact")
    return LocalVerdict(p, "yes", k_p, "exact")


def _residue(value, p: int):
    # unit residue of an int/Fraction/FactoredRational mod p, or None
    if isinstance(value, FactoredRational):
        if value.ord(p) != 0:
            return None
        return value.reduce_mod(p)
    v = Fraction(value)
    if v == 0:
        raise ZeroValueError("function value 0 has no residue")
    num, den = v.numerator, v.denominator
    if num % p == 0 or den % p == 0:
        return None
    return num * pow(den, -1, p) % p


def _empirical_verdict(f, p: int, bound: int, domain: str) -> LocalVerdict:
    structured = isinstance(f, MultiplicativeMap)
    if domain == "rational" and not structured:
        raise ConfigError("rational domain checks need the structured model")
    qs = [q for q in _small_primes(bound) if q != p and q % p != 0]
    values = {}
    for q in qs:
        values[q] = f.value_at_prime(q) if structured else f(q)
    candidate = None
    for q in qs:
        # smallest prime whose residue generates the units mod p
        if _is_generator(q % p, p):
            r = _residue(values[q], p)
            if r is None:
                return LocalVerdict(p, "no", None, "empirical", bound)
            candidate = discrete_log(q % p, r, p)
            break
    if candidate is None:
        return LocalVerdict(p, "unknown", None, "empirical", bound)
    for q in qs:
        r = _residue(values[q], p)
        if r is None or r != pow(q, candidate, p):
            return LocalVerdict(p, "no", None, "empirical", bound)
    if domain == "rational" and (f.sign_value - (-1) ** candidate) % p != 0:
        return LocalVerdict(p, "no", None, "empirical", bound)
    return LocalVerdict(p, "yes", candidate, "empirical", bound)


def _small_primes(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if is_prime(n)]


def _is_generator(g: int, p: int) -> bool:
    if g % p == 0:
        return False
    order = p - 1
    for q, _ in kernels.factorize(order):
        if pow(g, order // q, p) == 1:
            return False
    return True


def local_exponent(f, p: int, mode="exact", bound=None, domain="positive") -> LocalVerdict:
    """Decide whether f is a local power map at p."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if domain not in ("positive", "rational"):
        raise ConfigError(f"unknown domain {domain!r}")
    if mode == "exact":
        if not isinstance(f, MultiplicativeMap):
            raise ConfigError("exact mode needs the structured model")
        return _exact_verdict(f, p, domain)
    if mode == "empirical":
        return _empirical_verdict(f, p, EMPIRICAL_BOUND if bound is None else bound, domain)
    raise ConfigError(f"unknown mode {mode!r}")


def sf_members(f, primes, mode, bound, domain) -> tuple[list[LocalVerdict], int]:
    """Yes-verdicts among the primes, in their order, plus the count of unknowns."""
    members = []
    unknown = 0
    for p in primes:
        v = local_exponent(f, p, mode=mode, bound=bound, domain=domain)
        if v.member == "yes":
            members.append(v)
        elif v.member == "unknown":
            unknown += 1
    return members, unknown


def _scan_spec(f) -> dict:
    # the scans hand f to their workers as its JSON spec
    if not isinstance(f, MultiplicativeMap):
        raise ConfigError("a scan needs the structured model")
    return f.to_json()


def scan_Sf(
    f,
    x: int,
    cache: PrimeCache,
    mode="exact",
    bound=None,
    domain="positive",
    workers: int = 1,
) -> tuple[list[LocalVerdict], int]:
    """All yes-verdicts for primes <= x, plus the count of unknowns.

    f must be a MultiplicativeMap; `workers` processes split the scan
    without changing it.
    """
    pairs, unknown = _parallel.sf_scan_parallel(
        _scan_spec(f), cache.up_to(x), mode, bound, domain, workers
    )
    if mode == "exact":
        bound = None
    elif bound is None:
        bound = EMPIRICAL_BOUND
    return [LocalVerdict(p, "yes", k_p, mode, bound) for p, k_p in pairs], unknown


def _integer_values(f, top: int) -> list[int]:
    # 1-indexed table vals[n] = f(n) as ints; index 0 unused
    vals = [0] * (top + 1)
    for n in range(1, top + 1):
        v = f(n)
        if isinstance(v, FactoredRational):
            v = v.value()
        v = Fraction(v)
        if v.denominator != 1:
            raise NonIntegralValueError(f"f({n}) = {v} is not an integer", n=n)
        vals[n] = v.numerator
    return vals


def shift_and_quasi_check(f, p: int, bound: int) -> tuple[bool, bool]:
    """Shift periodicity f(n+p) ≡ f(n) (mod p) and quasi-multiplicativity, n <= bound."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    vals = _integer_values(f, bound + p)
    shift_ok = all((vals[n + p] - vals[n]) % p == 0 for n in range(1, bound + 1))
    quasi_ok = True
    for q in _small_primes(bound):
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
    out = []
    for p in primes:
        if all((vals[n + p] - vals[n]) % p == 0 for n in range(1, shift_bound + 1)):
            out.append(p)
    return out


def scan_Tf(
    f, x: int, cache: PrimeCache, shift_bound: int = 100, workers: int = 1
) -> list[int]:
    """Primes p <= x passing the shift check f(n+p) ≡ f(n) (mod p), n <= shift_bound.

    f must be a MultiplicativeMap; `workers` processes split the scan
    without changing it.
    """
    return _parallel.tf_scan_parallel(_scan_spec(f), cache.up_to(x), shift_bound, workers)


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
    primes = _small_primes(search_limit)
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
