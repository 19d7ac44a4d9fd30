"""Exact equilibrium checking and enumeration for small bimatrix games.

Everything here runs over Fractions, so "equilibrium" always means the
complementarity characterization holding with exact equality: row payoffs
(Ay)_i never exceed the first player's payoff and are equal wherever x_i
is positive, and symmetrically for columns.

Support enumeration solves, per equal-sized support pair, the linear
system pinning the opponent's weights and the payoff, then filters by the
inequalities; a game whose support systems are consistent but singular is
flagged degenerate and only the solutions unique on their support pair are
returned.  Lemke-Howson complementary pivoting (with a lexicographic ratio
test, so degenerate ties cannot cycle) serves as an independent second
solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactmath import (
    Mat, Vec, mat_shape, mat_vec, pivot, solve_linear_system, transpose, vec_dot, vec_mat,
)
from .fixp import FixpCircuit, evaluate


class DimensionTooLarge(Exception):
    """Game exceeds the configured enumeration cap."""


class RayTermination(Exception):
    """Complementary pivoting left the polytope along a ray."""


# enumeration is exponential in the dimension; larger games are refused
MAX_DIM = 12


@dataclass(frozen=True)
class NeCertificate:
    x: Vec
    y: Vec
    pi1: Fraction
    pi2: Fraction


@dataclass(frozen=True)
class SymCertificate:
    z: Vec
    pi: Fraction


@dataclass(frozen=True)
class EnumerationResult:
    equilibria: tuple
    degenerate: bool


# --- checkers ------------------------------------------------------------

def _best_response_violations(w: Vec, payoffs: Vec, name: str) -> list[str]:
    """w is a mixed strategy, and only best responses to `payoffs` carry weight."""
    if any(v < 0 for v in w):
        return [f"{name} weights include a negative one"]
    if sum(w) != 1:
        return [f"{name} weights sum to {sum(w)}, not 1"]
    pi = vec_dot(w, payoffs)
    out = []
    for i, (wi, v) in enumerate(zip(w, payoffs)):
        if v > pi:
            out.append(f"{name} {i} pays {v} > {pi}: profitable deviation")
        if wi * (v - pi) != 0:
            out.append(f"{name} complementarity fails at {i}")
    return out


def ne_violations(A: Mat, B: Mat, x: Vec, y: Vec) -> list[str]:
    """Exact best-response and complementarity conditions for (x, y)."""
    r, c = mat_shape(A)
    if mat_shape(B) != (r, c):
        raise ValueError("payoff matrices must share a shape")
    if len(x) != r or len(y) != c:
        raise ValueError("profile dimensions do not match the game")
    return (_best_response_violations(x, mat_vec(A, y), "row")
            + _best_response_violations(y, vec_mat(x, B), "column"))


def check_ne(A: Mat, B: Mat, x: Vec, y: Vec) -> bool:
    return not ne_violations(A, B, x, y)


def symmetric_ne_violations(S: Mat, z: Vec) -> list[str]:
    r, c = mat_shape(S)
    if r != c:
        raise ValueError("matrix must be square")
    if len(z) != r:
        raise ValueError("profile dimension does not match the game")
    return _best_response_violations(z, mat_vec(S, z), "strategy")


def check_symmetric_ne(S: Mat, z: Vec) -> bool:
    return not symmetric_ne_violations(S, z)


# --- support enumeration --------------------------------------------------

def _on_support(payoff_rows: list[Vec], support: tuple[int, ...],
                n: int) -> tuple[str, Vec | None, Fraction | None]:
    """Weights w on `support` and payoff p with row . w = p for every
    payoff row and sum w = 1.  Returns the solver status and, when it is
    "unique", w padded with zeros to n entries, and p."""
    rows = [[row[j] for j in support] + [Fraction(-1)] for row in payoff_rows]
    rows.append([Fraction(1)] * len(support) + [Fraction(0)])
    status, sol = solve_linear_system(rows, [Fraction(0)] * len(payoff_rows) + [Fraction(1)])
    if status != "unique":
        return status, None, None
    w = [Fraction(0)] * n
    for pos, j in enumerate(support):
        w[j] = sol[pos]
    return status, w, sol[-1]


def _screen(sides) -> bool | None:
    """Screen a solution given per player as (payoffs, p, w, support).

    None when some strategy pays more than p; otherwise whether the
    solution is degenerate: a zero weight inside a support, or a strategy
    outside it that also pays p.
    """
    if any(v > p for payoffs, p, _, _ in sides for v in payoffs):
        return None
    return any(any(w[i] == 0 for i in support)
               or any(v == p for i, v in enumerate(payoffs) if i not in support)
               for payoffs, p, w, support in sides)


def _checked(violations: list[str], what: str) -> None:
    if violations:
        raise AssertionError(f"{what} fails checker: {violations[0]}")


def enumerate_ne(A: Mat, B: Mat) -> EnumerationResult:
    """All equilibria that are unique on their (equal-sized) support pair.

    For a nondegenerate game this is the complete equilibrium list; when
    some support system is consistent but singular, or an equilibrium
    carries extra tight strategies, the result is flagged degenerate.
    """
    r, c = mat_shape(A)
    if mat_shape(B) != (r, c):
        raise ValueError("payoff matrices must share a shape")
    if max(r, c) > MAX_DIM:
        raise DimensionTooLarge(f"game is {r}x{c}; cap is {MAX_DIM}")
    bt = transpose(B)
    found: dict[tuple, NeCertificate] = {}
    degenerate = False
    for size in range(1, min(r, c) + 1):
        for sx in itertools.combinations(range(r), size):
            a_rows = [A[i] for i in sx]
            for sy in itertools.combinations(range(c), size):
                status, y, pi1 = _on_support(a_rows, sy, c)
                if status == "unique":
                    status, x, pi2 = _on_support([bt[j] for j in sy], sx, r)
                degenerate |= status == "many"
                if status != "unique" or any(v < 0 for v in x) or any(v < 0 for v in y):
                    continue
                screened = _screen([(mat_vec(A, y), pi1, x, sx), (vec_mat(x, B), pi2, y, sy)])
                if screened is None:
                    continue
                degenerate |= screened
                key = (tuple(x), tuple(y))
                if key not in found:
                    _checked(ne_violations(A, B, x, y), "support-enumeration candidate")
                    found[key] = NeCertificate(x, y, pi1, pi2)
    return EnumerationResult(tuple(found.values()), degenerate)


def enumerate_symmetric_ne(S: Mat) -> EnumerationResult:
    """Symmetric equilibria unique on their support, with degeneracy flag."""
    r, c = mat_shape(S)
    if r != c:
        raise ValueError("matrix must be square")
    if r > MAX_DIM:
        raise DimensionTooLarge(f"game is {r}x{r}; cap is {MAX_DIM}")
    found: dict[tuple, SymCertificate] = {}
    degenerate = False
    for size in range(1, r + 1):
        for supp in itertools.combinations(range(r), size):
            status, z, pi = _on_support([S[i] for i in supp], supp, r)
            degenerate |= status == "many"
            if status != "unique" or any(v < 0 for v in z):
                continue
            screened = _screen([(mat_vec(S, z), pi, z, supp)])
            if screened is None:
                continue
            degenerate |= screened
            key = tuple(z)
            if key not in found:
                _checked(symmetric_ne_violations(S, z), "symmetric candidate")
                found[key] = SymCertificate(z, pi)
    return EnumerationResult(tuple(found.values()), degenerate)


# --- Lemke-Howson ----------------------------------------------------------

def _shift_positive(M: Mat) -> Mat:
    low = min(min(row) for row in M)
    shift = 1 - low
    return [[v + shift for v in row] for row in M]


def _lex_pivot(T: Mat, basis: list[int], col: int) -> int:
    """Pivot on column `col`; the lexicographically least ratio row wins.
    Returns the leaving variable.

    The ratio vectors (rhs first, then columns 0..n-2, over the pivot
    entry) are compared one column at a time, dividing only the rows
    still tied, which picks the row that a full-tuple minimum picks.
    """
    rows = [i for i, row in enumerate(T) if row[col] > 0]
    if not rows:
        raise RayTermination("no positive pivot entry; the path is unbounded")
    n_cols = len(T[0])
    for j in (n_cols - 1, *range(n_cols - 1)):
        if len(rows) == 1:
            break
        ratios = [T[i][j] / T[i][col] for i in rows]
        least = min(ratios)
        rows = [i for i, q in zip(rows, ratios) if q == least]
    best = rows[0]
    pivot(T, best, col)
    leaving = basis[best]
    basis[best] = col
    return leaving


def lemke_howson(A: Mat, B: Mat, dropped_label: int = 0, max_dim: int = MAX_DIM) -> NeCertificate:
    """One equilibrium by complementary pivoting on the dropped label.

    Labels 0..rows-1 are first-player strategies, rows..rows+cols-1 second
    player's.  Ray termination is reported, never silently retried.
    """
    r, c = mat_shape(A)
    if mat_shape(B) != (r, c):
        raise ValueError("payoff matrices must share a shape")
    if max(r, c) > max_dim:
        raise DimensionTooLarge(f"game is {r}x{c}; cap is {max_dim}")
    if not 0 <= dropped_label < r + c:
        raise ValueError(f"label must lie in 0..{r + c - 1}")
    A1 = _shift_positive(A)
    B1 = _shift_positive(B)

    # Tableau P over x/v: B1^T x + v = 1 (c rows); var t<r is x_t, else v_{t-r}.
    TP: Mat = [[B1[i][j] for i in range(r)]
               + [Fraction(1 if jj == j else 0) for jj in range(c)]
               + [Fraction(1)] for j in range(c)]
    basis_p = [r + j for j in range(c)]
    # Tableau Q over y/u: A1 y + u = 1 (r rows); var t<c is y_t, else u_{t-c}.
    TQ: Mat = [[A1[i][j] for j in range(c)]
               + [Fraction(1 if ii == i else 0) for ii in range(r)]
               + [Fraction(1)] for i in range(r)]
    basis_q = [c + i for i in range(r)]

    def label_p(var: int) -> int:
        return var            # x_i -> i, v_j (at r+j) -> r+j

    def label_q(var: int) -> int:
        return r + var if var < c else var - c

    in_p = dropped_label < r
    entering = dropped_label if in_p else dropped_label - r
    for _ in range(4 ** (r + c)):
        if in_p:
            leaving = _lex_pivot(TP, basis_p, entering)
            lab = label_p(leaving)
            if lab == dropped_label:
                break
            # complement of x_i is u_i (at c+i in Q); of v_j it is y_j (at j)
            entering = c + leaving if leaving < r else leaving - r
        else:
            leaving = _lex_pivot(TQ, basis_q, entering)
            lab = label_q(leaving)
            if lab == dropped_label:
                break
            # complement of y_j is v_j (at r+j in P); of u_i it is x_i (at i)
            entering = r + leaving if leaving < c else leaving - c
        in_p = not in_p
    else:
        raise RayTermination("pivoting failed to terminate")

    x = [Fraction(0)] * r
    for row, var in enumerate(basis_p):
        if var < r:
            x[var] = TP[row][-1]
    y = [Fraction(0)] * c
    for row, var in enumerate(basis_q):
        if var < c:
            y[var] = TQ[row][-1]
    sx, sy = sum(x), sum(y)
    if sx == 0 or sy == 0:
        raise RayTermination("pivoting terminated at the artificial equilibrium")
    x = [v / sx for v in x]
    y = [v / sy for v in y]
    bad = ne_violations(A, B, x, y)
    if bad:
        raise RayTermination("pivoting result fails the equilibrium checker: " + bad[0])
    return NeCertificate(x, y, vec_dot(x, mat_vec(A, y)), vec_dot(vec_mat(x, B), y))


# --- fixed points -----------------------------------------------------------

def check_fixed_point(circ: FixpCircuit, lam: Vec) -> bool:
    """Exact test evaluate(circ, lam) == lam."""
    point = [Fraction(v) for v in lam]
    return evaluate(circ, point) == point
