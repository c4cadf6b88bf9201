"""Correctness checks for each report, computed without any localpow code.

Prime lists come from a NumPy sieve; membership verdicts are re-derived with
plain `pow` from the function's override table.  Each check returns a list
of failure messages; an empty list means the report is correct.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

DENSITY_TOLERANCE = 0.01  # acceptance criterion 1
FLOAT_RTOL = 1e-9  # reports round floats to 12 significant digits
PI_1E8 = 5_761_455


@lru_cache(maxsize=None)
def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as int64, by the sieve of Eratosthenes."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)


def _scan_total(report: dict, expected_total: int) -> list[str]:
    total = report["counted"] + report["skipped"]
    if total != expected_total:
        return [f"counted + skipped = {total}, sieve says {expected_total}"]
    return []


def _f_at_prime(spec, q: int) -> int:
    return spec.overrides.get(q, q**spec.default_exponent)


def check_density(report: dict, check: dict) -> list[str]:
    ell, limit, entries = check["ell"], check["limit"], check["tuple"]
    split = primes_upto(limit)
    split = split[split % ell == 1]
    errors = _scan_total(report, int(split.size))
    ramified = sum(1 for p in split[: np.searchsorted(split, max(entries), "right")]
                   if any(e % int(p) == 0 for e in entries))
    if report["skipped"] != ramified:
        errors.append(f"skipped = {report['skipped']}, {ramified} primes divide the tuple")
    if abs(report["observed"] - report["expected"]) > DENSITY_TOLERANCE:
        errors.append(
            f"observed {report['observed']} is not within {DENSITY_TOLERANCE} "
            f"of expected {report['expected']}"
        )
    return errors


def _exact_members(spec, limit: int) -> dict[int, int]:
    """{p: k_p} for the exact local power-map primes <= limit (positive domain).

    An odd prime p outside the override keys is a member exactly when p
    divides G = gcd(a_q - q^k) over the overrides (Fermat: q^(k mod p-1) is
    q^k mod p).  The override primes and 2 are decided directly.
    """
    k = spec.default_exponent
    members = {}
    if all(v % 2 for q, v in spec.overrides.items() if q != 2):
        members[2] = 0
    g = 0
    for q, v in spec.overrides.items():
        g = math.gcd(g, v - q**k)
    for p in primes_upto(limit)[1:].tolist():
        if p in spec.overrides:
            kp = k % (p - 1)
            if all(v % p and v % p == pow(q, kp, p)
                   for q, v in spec.overrides.items() if q != p):
                members[p] = kp
        elif g % p == 0:
            members[p] = k % (p - 1)
    return members


def check_sf(report: dict, check: dict, mode: str) -> list[str]:
    spec, limit = check["spec"], check["limit"]
    errors = _scan_total(report, int(primes_upto(limit).size))
    items = {row["p"]: row["k_p"] for row in report["items"]}
    if len(items) != report["counted"]:
        errors.append(f"{len(items)} items for counted = {report['counted']}")
    if mode == "exact":
        want = _exact_members(spec, limit)
        if items != want:
            errors.append(f"members {sorted(items)} differ from closed form {sorted(want)}")
        return errors
    # empirical: every member must satisfy f(q) = q^k_p mod p at each prime q <= bound
    qs = primes_upto(check["bound"]).tolist()
    for p, kp in items.items():
        if not 0 <= kp <= max(p - 2, 0):
            errors.append(f"k_p = {kp} out of range at p = {p}")
            continue
        for q in qs:
            if q == p:
                continue
            fq = _f_at_prime(spec, q)
            if fq % p == 0 or fq % p != pow(q, kp, p):
                errors.append(f"f({q}) is not {q}^{kp} mod {p}")
                break
    return errors


def _table_values(spec, top: int) -> list[int]:
    """f(0..top) for positive n, built multiplicatively from smallest prime factors."""
    spf = np.zeros(top + 1, dtype=np.int64)
    for p in primes_upto(top).tolist()[::-1]:
        spf[p::p] = p
    spf = spf.tolist()
    vals = [0, 1] + [0] * (top - 1)
    for n in range(2, top + 1):
        p = spf[n]
        vals[n] = vals[n // p] * _f_at_prime(spec, p)
    return vals


def check_tf(report: dict, check: dict) -> list[str]:
    spec, limit, bound = check["spec"], check["limit"], check["shift_bound"]
    primes = primes_upto(limit).tolist()
    errors = _scan_total(report, len(primes))
    vals = _table_values(spec, limit + bound)
    want = [p for p in primes
            if all((vals[n + p] - vals[n]) % p == 0 for n in range(1, bound + 1))]
    got = [row["p"] for row in report["items"]]
    if got != want:
        errors.append(f"{len(got)} shift-periodic primes reported, oracle finds {len(want)}")
    return errors


def check_heuristic(report: dict, check: dict) -> list[str]:
    primes = primes_upto(check["limit"])
    errors = _scan_total(report, int(primes.size))
    want = float(np.sum(1.0 / (primes.astype(np.float64) - 1.0) ** 2)) / primes.size
    if not _close(report["expected"], want):
        errors.append(f"expected = {report['expected']}, oracle gives {want}")
    return errors


def check_bounds(report: dict, check: dict) -> list[str]:
    errors = []
    if report["pi_x"] != PI_1E8:
        errors.append(f"pi(1e8) = {report['pi_x']}, not {PI_1E8}")
    y, z = check["mertens"]
    primes = primes_upto(z).astype(np.float64)
    window = primes[(primes >= y) & (primes <= z - 1)]
    mertens = float(np.prod(1.0 - 1.0 / (window - 1.0)))
    if not _close(report["mertens"], mertens):
        errors.append(f"mertens = {report['mertens']}, oracle gives {mertens}")
    theta = float(np.sum(np.log(primes_upto(check["z"]).astype(np.float64))))
    if not _close(report["chebyshev"]["theta"], theta):
        errors.append(f"theta = {report['chebyshev']['theta']}, oracle gives {theta}")
    return errors


CHECKS = {
    "density-c4": check_density,
    "density-split": check_density,
    "sf-exact": lambda report, args: check_sf(report, args, "exact"),
    "sf-empirical": lambda report, args: check_sf(report, args, "empirical"),
    "tf": check_tf,
    "heuristic": check_heuristic,
    "bounds": check_bounds,
}


def check(label: str, report: dict, check_args: dict) -> list[str]:
    """Failure messages for one parsed report; [] when it is correct."""
    return CHECKS[label](report, check_args)
