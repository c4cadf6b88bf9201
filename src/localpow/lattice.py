"""Multiplicative-relation lattices of rational tuples.

The exponent matrix E of a tuple c has one row per support prime and one
column per entry; its integer kernel holds the relations c^n = ±1, its
mod-ell kernel the ell-th power relations, and the gcd of its maximal minors
the obstruction invariant delta(c).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, log

from .errors import EmptyTupleError
from .modular import require_odd_prime
from .ratfact import as_factored

MINOR_ENUMERATION_CAP = 10**5


class ExponentLattice(namedtuple("ExponentLattice", "support matrix m")):
    """Support primes and the exponent matrix of a rational tuple.

    support lists the primes in ascending order; matrix has a row for each
    and m columns.
    """

    __slots__ = ()


def build_lattice(c) -> ExponentLattice:
    """Exponent matrix of the tuple; signs are dropped."""
    entries = [as_factored(x) for x in c]
    if not entries:
        raise EmptyTupleError("tuple must be nonempty")
    # each entry's table is read once; its keys are primes already
    tables = [x.exponents for x in entries]
    support = sorted({q for t in tables for q in t})
    matrix = [[t.get(q, 0) for t in tables] for q in support]
    return ExponentLattice(support, matrix, len(entries))


class RelationReport(namedtuple("RelationReport", "integer_kernel_basis minors delta")):
    """Integer kernel basis, maximal minors, and delta of an exponent matrix.

    minors is None unless rows >= columns; delta = 2*gcd(|minors|) is None
    unless some minor is nonzero.
    """

    __slots__ = ()


def _rref(matrix: list[list[int]], width: int, ell: int | None = None):
    # (pivot columns, nonzero reduced rows) over F_ell, or over Q on Fractions
    # when ell is None; the field is chosen once per row operation
    if ell is None:
        rows = [[Fraction(x) for x in row] for row in matrix]
    else:
        rows = [[x % ell for x in row] for row in matrix]
    pivots = []
    lead = 0
    for col in range(width):
        piv = next((i for i in range(lead, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        top = rows[piv]
        rows[piv] = rows[lead]
        if ell is None:
            inv = 1 / top[col]
            top = [x * inv for x in top]
        else:
            inv = pow(top[col], -1, ell)
            top = [x * inv % ell for x in top]
        rows[lead] = top
        for i, row in enumerate(rows):
            factor = row[col]
            if i == lead or not factor:
                continue
            if ell is None:
                rows[i] = [a - factor * b for a, b in zip(row, top)]
            else:
                rows[i] = [(a - factor * b) % ell for a, b in zip(row, top)]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return pivots, rows[:lead]


def _kernel_basis(matrix: list[list[int]], width: int, ell: int | None = None):
    # one kernel vector per free column of the reduced rows: 1 there, 0 at
    # the other free columns, minus the rows' entries at the pivots
    pivots, rows = _rref(matrix, width, ell)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [0] * width
        vec[free] = 1
        for row, pcol in zip(rows, pivots):
            vec[pcol] = -row[free]
        basis.append(vec)
    return basis


def _primitive(vec) -> tuple[int, ...]:
    # clear denominators, divide by content, make first nonzero entry positive
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def integer_kernel(matrix: list[list[int]], width: int) -> list[tuple[int, ...]]:
    """Primitive basis of {n : matrix @ n = 0}, one vector per free column."""
    return [_primitive(vec) for vec in _kernel_basis(matrix, width)]


def _det_bareiss(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    mat = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def _maximal_minor_gcd(matrix: list[list[int]], m: int) -> int:
    # gcd of the m x m minors of an r x m integer matrix, 0 below rank m.
    # Integer row operations keep it, so Euclid runs down each column,
    # reducing every row by the one with the smallest nonzero entry until
    # one row is left; the echelon form's only nonzero maximal minor is the
    # product of its pivots.
    rest = [row[:] for row in matrix]
    g = 1
    for col in range(m):
        live = [row for row in rest if row[col]]
        rest = [row for row in rest if not row[col]]
        if not live:
            return 0
        while len(live) > 1:
            piv = min(live, key=lambda row: abs(row[col]))
            reduced = [piv]
            for row in live:
                if row is piv:
                    continue
                q = row[col] // piv[col]
                row = [a - q * b for a, b in zip(row, piv)]
                (reduced if row[col] else rest).append(row)
            live = reduced
        g *= abs(live[0][col])
    return g


def relations(lattice: ExponentLattice) -> RelationReport:
    """Kernel basis, maximal minors, and delta = 2*gcd(minors) of the matrix.

    The minors are listed (by Bareiss) up to MINOR_ENUMERATION_CAP of them;
    past it `minors` stays None and their gcd comes from an integer echelon
    form of the matrix.
    """
    r, m = len(lattice.matrix), lattice.m
    basis = integer_kernel(lattice.matrix, m)
    minors = None
    delta = None
    if r >= m:
        if comb(r, m) <= MINOR_ENUMERATION_CAP:
            minors = [
                _det_bareiss([lattice.matrix[i] for i in pick])
                for pick in combinations(range(r), m)
            ]
            g = gcd(*minors)
        else:
            g = _maximal_minor_gcd(lattice.matrix, m)
        if g:
            delta = 2 * g
    return RelationReport(basis, minors, delta)


def kernel_mod_ell(matrix: list[list[int]], width: int, ell: int) -> list[tuple[int, ...]]:
    """Basis of the mod-ell kernel (the space V_c(ell) of ell-th power relations)."""
    return [tuple(x % ell for x in vec) for vec in _kernel_basis(matrix, width, ell)]


def row_space_mod_ell(matrix: list[list[int]], width: int, ell: int) -> list[tuple[int, ...]]:
    """Basis of the mod-ell row space (the annihilator V^perp of the kernel)."""
    _, rows = _rref(matrix, width, ell)
    return [tuple(row) for row in rows]


def kummer_degree(c, ell: int) -> tuple[int, int, int]:
    """(dim_V, degree, d) for the field of ell-th roots of the tuple over Q(zeta)."""
    require_odd_prime(ell)
    entries = [as_factored(x) for x in c]
    if not entries:
        return 0, 1, 0
    lat = build_lattice(entries)
    d = len(row_space_mod_ell(lat.matrix, lat.m, ell))
    return lat.m - d, ell**d, d


def f_invariants(f, n1: int, n2: int):
    """(delta or None, b, in_N_f) for the triple (n1, n2, f(n1))."""
    fn1 = as_factored(f(n1))
    fn2 = as_factored(f(n2))
    c = (as_factored(n1), as_factored(n2), fn1)
    rep = relations(build_lattice(c))
    in_n_f = not rep.integer_kernel_basis
    b = abs(n1 * n2 * fn1.num * fn1.den * fn2.num * fn2.den)
    return rep.delta, b, in_n_f


def a_f_log_estimate(f, pairs):
    """Smallest max(log delta, b) over the given (n1, n2) pairs; None if all degenerate.

    The true invariant minimizes over every pair with trivial relation lattice;
    this reports the minimum over a finite search set only.
    """
    best = None
    details = []
    for n1, n2 in pairs:
        delta, b, in_n_f = f_invariants(f, n1, n2)
        entry = {"n": (n1, n2), "delta": delta, "b": b, "in_N_f": in_n_f}
        if in_n_f and delta is not None:
            entry["log_a"] = max(log(delta), float(b))
            if best is None or entry["log_a"] < best["log_a"]:
                best = entry
        details.append(entry)
    return best, details
