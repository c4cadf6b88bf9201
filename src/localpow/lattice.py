"""Multiplicative-relation lattices of rational tuples.

The exponent matrix E of a tuple c has one row per support prime and one
column per entry; its integer kernel holds the relations c^n = ±1, its
mod-ell kernel the ell-th power relations, and the gcd of its maximal minors
the obstruction invariant delta(c).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, log

from .errors import EmptyTupleError
from .modular import require_odd_prime
from .ratfact import as_factored

MINOR_ENUMERATION_CAP = 10**5


@dataclass
class ExponentLattice:
    """Support primes and the exponent matrix of a rational tuple."""

    support: list[int]  # ascending primes
    matrix: list[list[int]]  # len(support) rows x m columns
    m: int


def build_lattice(c) -> ExponentLattice:
    """Exponent matrix of the tuple; signs are dropped."""
    entries = [as_factored(x) for x in c]
    if not entries:
        raise EmptyTupleError("tuple must be nonempty")
    support = sorted({q for x in entries for q in x.exponents})
    matrix = [[x.ord(q) for x in entries] for q in support]
    return ExponentLattice(support, matrix, len(entries))


@dataclass
class RelationReport:
    """Integer kernel basis, maximal minors, and delta of an exponent matrix."""

    integer_kernel_basis: list[tuple[int, ...]]
    minors: list[int] | None  # only when rows >= columns
    delta: int | None  # 2*gcd(|minors|), only when some minor is nonzero


def _rational_rref(matrix: list[list[int]], width: int):
    # returns (pivot column list, reduced rows as Fractions)
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    lead = 0
    for col in range(width):
        piv = None
        for i in range(lead, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = 1 / rows[lead][col]
        rows[lead] = [x * inv for x in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return pivots, rows[:lead]


def _primitive(vec: list[Fraction]) -> tuple[int, ...]:
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
    pivots, rows = _rational_rref(matrix, width)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for rowidx, pcol in enumerate(pivots):
            vec[pcol] = -rows[rowidx][free]
        basis.append(_primitive(vec))
    return basis


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


def _snf_diagonal(matrix: list[list[int]]) -> list[int]:
    # nonnegative Smith normal form diagonal of a small integer matrix
    mat = [row[:] for row in matrix]
    rows, cols = len(mat), len(mat[0]) if mat else 0
    diag = []
    top = 0
    while top < rows and top < cols:
        piv = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if mat[i][j] and (best is None or abs(mat[i][j]) < best):
                    best = abs(mat[i][j])
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        mat[top], mat[i0] = mat[i0], mat[top]
        for row in mat:
            row[top], row[j0] = row[j0], row[top]
        clean = False
        while not clean:
            clean = True
            for i in range(top + 1, rows):
                q = mat[i][top] // mat[top][top]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                if mat[i][top]:
                    mat[top], mat[i] = mat[i], mat[top]
                    clean = False
            for j in range(top + 1, cols):
                q = mat[top][j] // mat[top][top]
                if q:
                    for row in mat:
                        row[j] -= q * row[top]
                if mat[top][j]:
                    for row in mat:
                        row[top], row[j] = row[j], row[top]
                    clean = False
        diag.append(abs(mat[top][top]))
        top += 1
    # enforce the divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            if g != diag[i]:
                lcm = diag[i] // g * diag[j]
                diag[i], diag[j] = g, lcm
    return diag


def relations(lattice: ExponentLattice) -> RelationReport:
    """Kernel basis, maximal minors, and delta = 2*gcd(minors) of the matrix."""
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
            g = 0
            for d in minors:
                g = gcd(g, d)
            if g:
                delta = 2 * g
        else:
            # gcd of all maximal minors = product of the first m invariant factors
            diag = _snf_diagonal(lattice.matrix)
            if len(diag) >= m:
                g = 1
                for d in diag[:m]:
                    g *= d
                delta = 2 * g
    return RelationReport(basis, minors, delta)


def _mod_rref(matrix: list[list[int]], width: int, ell: int):
    rows = [[x % ell for x in row] for row in matrix]
    pivots = []
    lead = 0
    for col in range(width):
        piv = None
        for i in range(lead, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = pow(rows[lead][col], -1, ell)
        rows[lead] = [x * inv % ell for x in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % ell for a, b in zip(rows[i], rows[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return pivots, rows[:lead]


def kernel_mod_ell(matrix: list[list[int]], width: int, ell: int) -> list[tuple[int, ...]]:
    """Basis of the mod-ell kernel (the space V_c(ell) of ell-th power relations)."""
    pivots, rows = _mod_rref(matrix, width, ell)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [0] * width
        vec[free] = 1
        for rowidx, pcol in enumerate(pivots):
            vec[pcol] = -rows[rowidx][free] % ell
        basis.append(tuple(vec))
    return basis


def row_space_mod_ell(matrix: list[list[int]], width: int, ell: int) -> list[tuple[int, ...]]:
    """Basis of the mod-ell row space (the annihilator V^perp of the kernel)."""
    _, rows = _mod_rref(matrix, width, ell)
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
