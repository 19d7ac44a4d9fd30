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

from .exactmath import Mat, Vec, mat_shape, mat_vec, solve_linear_system, vec_mat
from .fixp import FixpCircuit, evaluate


class DimensionTooLarge(Exception):
    """Game exceeds the configured enumeration cap."""


class RayTermination(Exception):
    """Complementary pivoting left the polytope along a ray."""


@dataclass(frozen=True)
class NeCertificate:
    x: Vec
    y: Vec
    pi1: Fraction
    pi2: Fraction
    tight_rows: tuple[bool, ...]
    tight_cols: tuple[bool, ...]


@dataclass(frozen=True)
class SymCertificate:
    z: Vec
    pi: Fraction
    tight: tuple[bool, ...]


@dataclass(frozen=True)
class EnumerationResult:
    equilibria: tuple
    degenerate: bool


# --- checkers ------------------------------------------------------------

def _simplex_violations(v: Vec, name: str) -> list[str]:
    out = []
    if any(p < 0 for p in v):
        out.append(f"{name} has a negative weight")
    if sum(v) != 1:
        out.append(f"{name} weights sum to {sum(v)}, not 1")
    return out


def ne_violations(A: Mat, B: Mat, x: Vec, y: Vec) -> list[str]:
    """Exact best-response and complementarity conditions for (x, y)."""
    r, c = mat_shape(A)
    if mat_shape(B) != (r, c):
        raise ValueError("payoff matrices must share a shape")
    if len(x) != r or len(y) != c:
        raise ValueError("profile dimensions do not match the game")
    out = _simplex_violations(x, "row strategy") + _simplex_violations(y, "column strategy")
    if out:
        return out
    ay = mat_vec(A, y)
    xb = vec_mat(x, B)
    pi1 = sum((xi * v for xi, v in zip(x, ay)), Fraction(0))
    pi2 = sum((yj * v for yj, v in zip(y, xb)), Fraction(0))
    for i in range(r):
        if ay[i] > pi1:
            out.append(f"row {i} pays {ay[i]} > {pi1}: profitable deviation")
        if x[i] * (ay[i] - pi1) != 0:
            out.append(f"row complementarity fails at {i}")
    for j in range(c):
        if xb[j] > pi2:
            out.append(f"column {j} pays {xb[j]} > {pi2}: profitable deviation")
        if y[j] * (xb[j] - pi2) != 0:
            out.append(f"column complementarity fails at {j}")
    return out


def check_ne(A: Mat, B: Mat, x: Vec, y: Vec) -> bool:
    return not ne_violations(A, B, x, y)


def symmetric_ne_violations(S: Mat, z: Vec) -> list[str]:
    r, c = mat_shape(S)
    if r != c:
        raise ValueError("matrix must be square")
    if len(z) != r:
        raise ValueError("profile dimension does not match the game")
    out = _simplex_violations(z, "strategy")
    if out:
        return out
    sz = mat_vec(S, z)
    pi = sum((zi * v for zi, v in zip(z, sz)), Fraction(0))
    for i in range(r):
        if sz[i] > pi:
            out.append(f"strategy {i} pays {sz[i]} > {pi}: profitable deviation")
        if z[i] * (sz[i] - pi) != 0:
            out.append(f"complementarity fails at {i}")
    return out


def check_symmetric_ne(S: Mat, z: Vec) -> bool:
    return not symmetric_ne_violations(S, z)


def certificate(A: Mat, B: Mat, x: Vec, y: Vec) -> NeCertificate:
    ay = mat_vec(A, y)
    xb = vec_mat(x, B)
    pi1 = sum((xi * v for xi, v in zip(x, ay)), Fraction(0))
    pi2 = sum((yj * v for yj, v in zip(y, xb)), Fraction(0))
    return NeCertificate(list(x), list(y), pi1, pi2,
                         tuple(v == pi1 for v in ay), tuple(v == pi2 for v in xb))


# --- support enumeration --------------------------------------------------

def _support_system(payoffs: list[Vec], support: tuple[int, ...]) -> tuple[str, Vec | None]:
    """Solve for opponent weights w on `support` and payoff p with
    payoffs[i] . w = p for each listed row, sum w = 1."""
    s = len(support)
    rows: Mat = []
    rhs: Vec = []
    for vec in payoffs:
        rows.append([vec[j] for j in support] + [Fraction(-1)])
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * s + [Fraction(0)])
    rhs.append(Fraction(1))
    return solve_linear_system(rows, rhs)


def enumerate_ne(A: Mat, B: Mat, max_dim: int = 12) -> EnumerationResult:
    """All equilibria that are unique on their (equal-sized) support pair.

    For a nondegenerate game this is the complete equilibrium list; when
    some support system is consistent but singular, or an equilibrium
    carries extra tight strategies, the result is flagged degenerate.
    """
    r, c = mat_shape(A)
    if mat_shape(B) != (r, c):
        raise ValueError("payoff matrices must share a shape")
    if max(r, c) > max_dim:
        raise DimensionTooLarge(f"game is {r}x{c}; cap is {max_dim}")
    bt = [[B[i][j] for i in range(r)] for j in range(c)]
    found: dict[tuple, NeCertificate] = {}
    degenerate = False
    for size in range(1, min(r, c) + 1):
        for sx in itertools.combinations(range(r), size):
            a_rows = [A[i] for i in sx]
            for sy in itertools.combinations(range(c), size):
                status_y, sol_y = _support_system(a_rows, sy)
                if status_y == "many":
                    degenerate = True
                    continue
                if status_y == "none":
                    continue
                status_x, sol_x = _support_system([bt[j] for j in sy], sx)
                if status_x == "many":
                    degenerate = True
                    continue
                if status_x == "none":
                    continue
                y = [Fraction(0)] * c
                for pos, j in enumerate(sy):
                    y[j] = sol_y[pos]
                pi1 = sol_y[-1]
                x = [Fraction(0)] * r
                for pos, i in enumerate(sx):
                    x[i] = sol_x[pos]
                pi2 = sol_x[-1]
                if any(v < 0 for v in x) or any(v < 0 for v in y):
                    continue
                ay = mat_vec(A, y)
                xb = vec_mat(x, B)
                if any(ay[i] > pi1 for i in range(r)) or any(xb[j] > pi2 for j in range(c)):
                    continue
                if any(x[i] == 0 for i in sx) or any(y[j] == 0 for j in sy):
                    degenerate = True
                if any(ay[i] == pi1 for i in range(r) if i not in sx) or \
                        any(xb[j] == pi2 for j in range(c) if j not in sy):
                    degenerate = True
                key = (tuple(x), tuple(y))
                if key not in found:
                    bad = ne_violations(A, B, x, y)
                    if bad:
                        raise AssertionError(
                            f"support-enumeration candidate fails checker: {bad[0]}")
                    found[key] = certificate(A, B, x, y)
    return EnumerationResult(tuple(found.values()), degenerate)


def enumerate_symmetric_ne(S: Mat, max_dim: int = 12) -> EnumerationResult:
    """Symmetric equilibria unique on their support, with degeneracy flag."""
    r, c = mat_shape(S)
    if r != c:
        raise ValueError("matrix must be square")
    if r > max_dim:
        raise DimensionTooLarge(f"game is {r}x{r}; cap is {max_dim}")
    found: dict[tuple, SymCertificate] = {}
    degenerate = False
    for size in range(1, r + 1):
        for supp in itertools.combinations(range(r), size):
            status, sol = _support_system([S[i] for i in supp], supp)
            if status == "many":
                degenerate = True
                continue
            if status == "none":
                continue
            z = [Fraction(0)] * r
            for pos, i in enumerate(supp):
                z[i] = sol[pos]
            pi = sol[-1]
            if any(v < 0 for v in z):
                continue
            sz = mat_vec(S, z)
            if any(sz[i] > pi for i in range(r)):
                continue
            if any(z[i] == 0 for i in supp):
                degenerate = True
            if any(sz[i] == pi for i in range(r) if i not in supp):
                degenerate = True
            key = tuple(z)
            if key not in found:
                bad = symmetric_ne_violations(S, z)
                if bad:
                    raise AssertionError(f"symmetric candidate fails checker: {bad[0]}")
                found[key] = SymCertificate(z, pi, tuple(v == pi for v in sz))
    return EnumerationResult(tuple(found.values()), degenerate)


# --- Lemke-Howson ----------------------------------------------------------

def _shift_positive(M: Mat) -> Mat:
    low = min(min(row) for row in M)
    shift = 1 - low
    return [[v + shift for v in row] for row in M]


def _lex_pivot(T: Mat, basis: list[int], col: int) -> int:
    """Pivot on column `col`; lexicographic min-ratio row wins. Returns the
    leaving variable."""
    n_cols = len(T[0])
    candidates = [r for r in range(len(T)) if T[r][col] > 0]
    if not candidates:
        raise RayTermination("no positive pivot entry; the path is unbounded")
    def key(r):
        piv = T[r][col]
        return tuple(T[r][c] / piv for c in [n_cols - 1] + list(range(n_cols - 1)))
    best = min(candidates, key=key)
    piv = T[best][col]
    T[best] = [v / piv for v in T[best]]
    for r in range(len(T)):
        if r != best and T[r][col] != 0:
            f = T[r][col]
            T[r] = [v - f * w for v, w in zip(T[r], T[best])]
    leaving = basis[best]
    basis[best] = col
    return leaving


def lemke_howson(A: Mat, B: Mat, dropped_label: int = 0, max_dim: int = 12) -> NeCertificate:
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
    return certificate(A, B, x, y)


# --- fixed points -----------------------------------------------------------

def check_fixed_point(circ: FixpCircuit, lam: Vec) -> bool:
    """Exact test evaluate(circ, lam) == lam."""
    point = [Fraction(v) for v in lam]
    return evaluate(circ, point) == point
