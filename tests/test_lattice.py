import random
from itertools import combinations, product
from math import gcd

import pytest
import sympy

import localpow.lattice as lattice_mod
import localpow.ratfact as ratfact_mod
from conftest import deadline
from localpow.errors import EmptyTupleError, NotPrimeError, OddPrimeRequiredError
from localpow.lattice import (
    ExponentLattice,
    a_f_log_estimate,
    build_lattice,
    f_invariants,
    integer_kernel,
    kernel_mod_ell,
    kummer_degree,
    relations,
    row_space_mod_ell,
)
from localpow.powermap import MultiplicativeMap
from localpow.ratfact import FactoredRational, as_factored, is_prime


def test_build_lattice_matrix():
    lat = build_lattice((12, 18))
    assert lat.support == [2, 3]
    assert lat.matrix == [[2, 1], [1, 2]]
    assert lat.m == 2
    lat = build_lattice(("7/4", 6))
    assert lat.support == [2, 3, 7]
    assert lat.matrix == [[-2, 1], [0, 1], [1, 0]]
    with pytest.raises(EmptyTupleError):
        build_lattice(())


def test_build_lattice_of_factored_entries_proves_no_prime(monkeypatch):
    # the exponent tables of factored entries hold primes already, so even
    # a 521-bit support prime costs no primality test
    big = 2**521 - 1
    entries = [
        FactoredRational(1, {2: 1, big: 1}),
        FactoredRational(-1, {3: 2, big: -1}),
        as_factored(10),
    ]
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(ratfact_mod, "is_prime", counting)
    lat = build_lattice(entries)
    assert calls == []
    assert lat.support == [2, 3, 5, big]
    assert lat.matrix == [[1, 0, 1], [0, 2, 0], [0, 0, 1], [1, -1, 0]]


def test_integer_kernel_matches_sympy_nullspace():
    rng = random.Random(501)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        matrix = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        basis = integer_kernel(matrix, cols)
        m = sympy.Matrix(matrix)
        assert len(basis) == cols - m.rank()
        for v in basis:
            assert m * sympy.Matrix(v) == sympy.zeros(rows, 1)
            g = sympy.gcd(list(v))
            assert g == 1
            first = next(x for x in v if x != 0)
            assert first > 0


def test_kernel_vectors_evaluate_to_unit():
    rng = random.Random(502)
    pool = [2, 3, 4, 5, 6, 8, 9, 12, 18, "5/7", "7/4"]
    for _ in range(100):
        c = [as_factored(rng.choice(pool)) for _ in range(rng.randint(2, 4))]
        lat = build_lattice(c)
        for v in integer_kernel(lat.matrix, lat.m):
            prod = as_factored(1)
            for x, e in zip(c, v):
                prod = prod * x**e
            assert prod.is_unit()


def test_relations_worked_case():
    rep = relations(build_lattice((12, 18)))
    assert rep.integer_kernel_basis == []
    assert rep.minors == [3]
    assert rep.delta == 6


def test_relations_degenerate_tuple():
    # 4 = 2^2: single support row, kernel (2, -1), no maximal minors
    rep = relations(build_lattice((2, 4)))
    assert rep.integer_kernel_basis == [(2, -1)]
    assert rep.minors is None
    assert rep.delta is None


def test_relations_zero_minors_mixed():
    # (2, 8): one row [1, 3]: fewer rows than columns
    rep = relations(build_lattice((2, 8)))
    assert rep.delta is None
    assert rep.integer_kernel_basis == [(3, -1)]


def test_delta_present_iff_kernel_empty():
    rng = random.Random(503)
    pool = [2, 3, 4, 5, 6, 8, 9, 12, 18, "5/7", "7/4"]
    for _ in range(150):
        c = [as_factored(rng.choice(pool)) for _ in range(rng.randint(1, 3))]
        rep = relations(build_lattice(c))
        assert (rep.delta is not None) == (rep.integer_kernel_basis == [])
        if rep.delta is not None:
            assert rep.delta % 2 == 0 and rep.delta > 0


def test_snf_route_matches_minor_route(monkeypatch):
    rng = random.Random(504)
    pool = [2, 3, 5, 6, 8, 12, 18, 30, "5/7", "7/4", 100]
    cases = []
    for _ in range(60):
        c = [as_factored(rng.choice(pool)) for _ in range(rng.randint(1, 3))]
        cases.append(build_lattice(c))
    via_minors = [relations(lat).delta for lat in cases]
    monkeypatch.setattr(lattice_mod, "MINOR_ENUMERATION_CAP", 0)
    via_snf = [relations(lat).delta for lat in cases]
    assert via_minors == via_snf


def test_snf_delta_matches_sympy_smith_form(monkeypatch):
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(505)
    monkeypatch.setattr(lattice_mod, "MINOR_ENUMERATION_CAP", 0)
    for _ in range(60):
        rows = rng.randint(2, 5)
        cols = rng.randint(1, rows)
        matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if sympy.Matrix(matrix).rank() < cols:
            continue
        rep = relations(ExponentLattice([0] * rows, matrix, cols))
        snf = smith_normal_form(sympy.Matrix(matrix))
        expected = 2 * abs(sympy.prod(snf[i, i] for i in range(cols)))
        assert rep.delta == expected


# exponents at the primes 2 .. 29 of a 5-entry tuple; past the minor cap the
# Smith form this replaced grew its entries to thousands of bits on it
HANG = [
    [9, -8, -6, 0, 5],
    [7, -3, 6, -5, -2],
    [8, 3, -6, 0, -7],
    [7, -6, -7, 0, 6],
    [4, 0, 0, 9, 8],
    [-5, 0, 2, -2, -7],
    [8, 0, -3, -8, 0],
    [0, 6, 0, 3, -8],
    [0, -3, 4, -3, 3],
    [4, 9, 2, 0, 3],
]


def test_wide_route_is_fast_on_a_growth_case(monkeypatch):
    lat = ExponentLattice([0] * len(HANG), HANG, 5)
    assert relations(lat).delta == 2  # the listed minors
    monkeypatch.setattr(lattice_mod, "MINOR_ENUMERATION_CAP", 0)
    with deadline(1):
        assert relations(lat).delta == 2


def _minor_delta(matrix, m):
    g = 0
    for pick in combinations(range(len(matrix)), m):
        g = gcd(g, lattice_mod._det_bareiss([matrix[i] for i in pick]))
    return 2 * g if g else None


def test_wide_route_delta_matches_bareiss_minors(monkeypatch):
    rng = random.Random(507)
    monkeypatch.setattr(lattice_mod, "MINOR_ENUMERATION_CAP", 0)
    deficient = 0
    for _ in range(300):
        m = rng.randint(1, 5)
        r = rng.randint(m, 9)
        matrix = [[rng.randint(-1000, 1000) for _ in range(m)] for _ in range(r)]
        if m > 1 and rng.random() < 0.3:
            # one column a combination of the others, or all zero: rank < m
            c = rng.randrange(m)
            others = [j for j in range(m) if j != c]
            a, b = rng.choice(others), rng.choice(others)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            for row in matrix:
                row[c] = s * row[a] + t * row[b]
        expected = _minor_delta(matrix, m)
        deficient += expected is None
        with deadline(0.5):
            delta = relations(ExponentLattice([0] * r, matrix, m)).delta
        assert delta == expected
    assert deficient > 10
    for r, m in ((29, 5), (23, 6)):
        for _ in range(20):
            matrix = [[rng.randint(-30, 30) for _ in range(m)] for _ in range(r)]
            with deadline(0.5):
                delta = relations(ExponentLattice([0] * r, matrix, m)).delta
            # half of delta divides every maximal minor
            for _ in range(5):
                pick = rng.sample(range(r), m)
                assert lattice_mod._det_bareiss([matrix[i] for i in pick]) % (delta // 2) == 0


def test_kernel_mod_ell_matches_enumeration():
    rng = random.Random(506)
    pool = [2, 3, 4, 5, 6, 8, 9, 12, 18, "5/7", "7/4"]
    for ell in (3, 5):
        for _ in range(60):
            c = [as_factored(rng.choice(pool)) for _ in range(rng.randint(1, 3))]
            lat = build_lattice(c)
            basis = kernel_mod_ell(lat.matrix, lat.m, ell)
            span = set()
            for coeffs in product(range(ell), repeat=len(basis)):
                v = tuple(
                    sum(cf * b[i] for cf, b in zip(coeffs, basis)) % ell
                    for i in range(lat.m)
                )
                span.add(v)
            brute = {
                v
                for v in product(range(ell), repeat=lat.m)
                if all(
                    sum(r * x for r, x in zip(row, v)) % ell == 0
                    for row in lat.matrix
                )
            }
            assert span == brute
            assert len(span) == ell ** len(basis)


def test_row_space_is_kernel_annihilator():
    lat = build_lattice((2, 3, 4, 9))
    ell = 3
    rows = row_space_mod_ell(lat.matrix, lat.m, ell)
    ker = kernel_mod_ell(lat.matrix, lat.m, ell)
    for r in rows:
        for v in ker:
            assert sum(a * b for a, b in zip(r, v)) % ell == 0
    assert len(rows) + len(ker) == lat.m


def test_kummer_degree_worked_cases():
    assert kummer_degree((12, 18), 3) == (1, 3, 1)
    assert kummer_degree((12, 18), 5) == (0, 25, 2)
    assert kummer_degree((2, 3, 5, 7), 3) == (0, 81, 4)
    assert kummer_degree((2, 3, 4, 9), 3) == (2, 9, 2)
    assert kummer_degree((), 3) == (0, 1, 0)
    with pytest.raises(OddPrimeRequiredError):
        kummer_degree((2,), 2)
    with pytest.raises(NotPrimeError):
        kummer_degree((2,), 9)


def test_delta_coprime_means_full_degree():
    rng = random.Random(507)
    pool = [2, 3, 4, 5, 6, 8, 9, 12, 18, "5/7", "7/4"]
    for _ in range(150):
        c = [as_factored(rng.choice(pool)) for _ in range(rng.randint(1, 3))]
        rep = relations(build_lattice(c))
        if rep.delta is None:
            continue
        for ell in (3, 5):
            if rep.delta % ell:
                _, degree, d = kummer_degree(c, ell)
                assert degree == ell ** len(c) and d == len(c)


def test_f_invariants_table_map():
    f = MultiplicativeMap.table({2: 5, 3: 7, 5: 11}, default_exponent=1)
    delta, b, in_n_f = f_invariants(f, 2, 3)
    # c = (2, 3, 5): three multiplicatively independent primes
    assert in_n_f and delta == 2
    assert b == abs(2 * 3 * 5 * 1 * 7 * 1)


def test_f_invariants_degenerate_pair():
    f = MultiplicativeMap.global_power(2)
    # c = (2, 4, 4): 2^2 = 4 gives a relation, so the pair is outside N_f
    delta, b, in_n_f = f_invariants(f, 2, 4)
    assert not in_n_f
    assert delta is None


def test_a_f_log_estimate_selects_minimum():
    f = MultiplicativeMap.table({2: 5, 3: 7, 5: 11}, default_exponent=1)
    best, details = a_f_log_estimate(f, [(2, 3), (2, 7), (3, 7)])
    assert best is not None
    assert len(details) == 3
    assert best["log_a"] == min(
        d["log_a"] for d in details if "log_a" in d
    )
