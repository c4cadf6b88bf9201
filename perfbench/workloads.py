"""Seeded inputs for the three workloads.

A seed changes input values, never sizes: every workload runs the same
commands at the same limits for every seed.  The program sees only the argv
built here and the function spec files written next to it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
PRIMES_BELOW_100 = SMALL_PRIMES + (
    31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

DENSITY_LIMIT = 10**7
SF_EXACT_LIMIT = 10**6
SF_EMPIRICAL_LIMIT = 10**5
TF_LIMIT = 10**5
HEURISTIC_LIMIT = 10**6
BOUNDS_Z = 10**6
MERTENS_Y = 5


@dataclass(frozen=True)
class Invocation:
    """One CLI call: a label unique within its workload and the argv after `localpow`."""

    label: str
    argv: tuple[str, ...]
    check: dict  # what the oracles need to know about the inputs


@dataclass(frozen=True)
class TableSpec:
    """A table function: f(q) = overrides[q] at the override primes, q^k elsewhere."""

    overrides: dict[int, int]
    default_exponent: int
    sign_value: int

    def to_json(self) -> dict:
        return {
            "kind": "table",
            "sign_value": self.sign_value,
            "default_exponent": self.default_exponent,
            "overrides": {str(q): str(v) for q, v in sorted(self.overrides.items())},
        }


def _table_spec(rng: random.Random) -> TableSpec:
    keys = sorted(rng.sample(SMALL_PRIMES, 3))
    return TableSpec(
        overrides={q: rng.randint(2, 99) for q in keys},
        default_exponent=rng.choice((1, 2)),
        sign_value=rng.choice((1, -1)),
    )


def _write_spec(spec: TableSpec, path: Path) -> str:
    path.write_text(json.dumps(spec.to_json(), indent=2) + "\n")
    return str(path)


def _tuple(values) -> str:
    return ",".join(str(v) for v in values)


def _rank_mod(values, ell: int) -> int:
    """Rank mod ell of the prime-exponent vectors of small positive integers."""
    rows = []
    for n in values:
        row = []
        for q in PRIMES_BELOW_100:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            row.append(e % ell)
        rows.append(row)
    rank = 0
    for col in range(len(PRIMES_BELOW_100)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, ell)
        rows[rank] = [x * inv % ell for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % ell for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _independent_tuple(rng: random.Random, size: int, ell: int) -> list[int]:
    # Entries in [2, 60] that are independent modulo ell-th powers.  A
    # dependent tuple (a cube, or 4 with 16) makes the all-trivial Frobenius
    # class likelier, which the per-prime kernel short-cuts, so the work
    # would change with the seed.
    while True:
        entries = rng.sample(range(2, 61), size)
        if _rank_mod(entries, ell) == size:
            return entries


def density(rng: random.Random, _spec_dir: Path) -> list[Invocation]:
    # The split tuple has a fixed length: the per-prime kernel's cost grows
    # with it, so a seeded length would change the amount of work.
    c4 = _independent_tuple(rng, 4, 3)
    split = _independent_tuple(rng, 2, 3)
    base = ("density-scan", "--ell", "3", "--limit", str(DENSITY_LIMIT))
    return [
        Invocation(
            "density-c4",
            base + ("--tuple", _tuple(c4), "--mode", "c4"),
            {"ell": 3, "tuple": c4, "limit": DENSITY_LIMIT},
        ),
        Invocation(
            "density-split",
            base + ("--tuple", _tuple(split), "--mode", "split"),
            {"ell": 3, "tuple": split, "limit": DENSITY_LIMIT},
        ),
    ]


def membership(rng: random.Random, spec_dir: Path) -> list[Invocation]:
    spec = _table_spec(rng)
    path = _write_spec(spec, spec_dir / "membership-f.json")
    check = {"spec": spec}
    return [
        Invocation(
            "sf-exact",
            ("sf-scan", "--function", path, "--limit", str(SF_EXACT_LIMIT)),
            dict(check, limit=SF_EXACT_LIMIT),
        ),
        Invocation(
            "sf-empirical",
            ("sf-scan", "--function", path, "--limit", str(SF_EMPIRICAL_LIMIT),
             "--mode", "empirical"),
            dict(check, limit=SF_EMPIRICAL_LIMIT, bound=50),
        ),
        Invocation(
            "tf",
            ("tf-scan", "--function", path, "--limit", str(TF_LIMIT)),
            dict(check, limit=TF_LIMIT, shift_bound=100),
        ),
    ]


def heuristic_bounds(rng: random.Random, spec_dir: Path) -> list[Invocation]:
    # The witnesses are the function's override primes and their values are
    # other primes below 100, so the six numbers are multiplicatively
    # independent for every seed.  A value that is a square or a power of its
    # witness defeats omega_members' cheap rejection filter and sends more
    # primes to full discrete logs: with values drawn from all of [2, 99],
    # the scan's time varied 2x between seeds.
    keys = sorted(rng.sample(SMALL_PRIMES, 3))
    values = rng.sample([q for q in PRIMES_BELOW_100 if q not in keys], 3)
    spec = TableSpec(
        overrides=dict(zip(keys, values)),
        default_exponent=rng.choice((1, 2)),
        sign_value=rng.choice((1, -1)),
    )
    witnesses = sorted(spec.overrides)
    path = _write_spec(spec, spec_dir / "heuristic-f.json")
    return [
        Invocation(
            "heuristic",
            ("heuristic", "--function", path, "--witnesses", _tuple(witnesses),
             "--limit", str(HEURISTIC_LIMIT)),
            {"limit": HEURISTIC_LIMIT},
        ),
        Invocation(
            "bounds",
            ("bounds", "--x", "1e8", "--mertens", f"{MERTENS_Y},{BOUNDS_Z}",
             "--chebyshev-z", str(BOUNDS_Z)),
            {"mertens": (MERTENS_Y, BOUNDS_Z), "z": BOUNDS_Z},
        ),
    ]


WORKLOADS = {
    "density-1e7": density,
    "membership-1e6": membership,
    "heuristic-bounds-1e6": heuristic_bounds,
}


def generate(workload: str, seed: int, spec_dir: Path) -> list[Invocation]:
    """The workload's invocations for this seed, spec files written to spec_dir."""
    rng = random.Random(f"{workload}:{seed}")
    spec_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](rng, spec_dir)
