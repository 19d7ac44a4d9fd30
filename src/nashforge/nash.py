"""Exact equilibrium checking and enumeration for small bimatrix games.

Everything here is exact rational arithmetic, so "equilibrium" always means
the complementarity characterization holding with exact equality: row payoffs
(Ay)_i never exceed the first player's payoff and are equal wherever x_i
is positive, and symmetrically for columns.  The checkers compare
integers: payoffs are cleared by `int_matrix` and a profile by
`int_vec`, each over one denominator, only the nonzero weights are
multiplied, and payoffs are compared by cross-multiplication.  Fractions
are built only for the text of a violation and for a certificate's
payoffs.

Support enumeration solves, per equal-sized support pair, the linear
system pinning the opponent's weights and the payoff, then filters by the
inequalities; a game whose support systems are consistent but singular is
flagged degenerate and only the solutions unique on their support pair are
returned.  It runs on integers: each payoff matrix is scaled by the lcm of
its denominators, and Fractions are built only for the accepted
equilibria.  The system of a support pair is "sum w = 1, (first - row) . w
= 0" over the rows of one support and the columns of the other.  All the
pairs that share a row support share its difference rows, so their minors
are tabulated once (`_minors`) and each nonsingular system is read off the
table by Cramer's rule (`_table_solve`); only a singular one goes to the
fraction-free Gauss-Jordan elimination `exactmath.eliminate`
(`_on_support`), which tells "none" from "many", and only while that can
still change the degeneracy flag.
Lemke-Howson serves as an independent second solver and the one that
scales to compiled games.  It is complementary pivoting, with a
lexicographic ratio test so degenerate ties cannot cycle, on one tableau
of the game's LCP w = 1 - [[0, A1], [B1^T, 0]] z: z = (x, y) and w = (u,
v) are the variables 0..2n-1 (n = rows + cols), variable t carries label
t mod n, and its tableau rows are sparse integers over one reduced
denominator each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from operator import itemgetter, mul

from .exactmath import Mat, Vec, eliminate, int_matrix, int_vec, mat_shape, spread, transpose
from .fixp import FixpCircuit, evaluate


class DimensionTooLarge(Exception):
    """Game exceeds the configured enumeration cap."""


class RayTermination(Exception):
    """Complementary pivoting left the polytope along a ray."""


class PivotLimitReached(Exception):
    """Complementary pivoting ran into its pivot bound."""


# enumeration is exponential in the dimension; larger games are refused
MAX_DIM = 12
# Lemke-Howson paths can be exponentially long; the default bound sits far
# above the 1 281 pivots that k=2, n=1's 169x169 game takes from label 0
MAX_PIVOTS = 1_000_000


@dataclass(frozen=True)
class NeCertificate:
    x: Vec
    y: Vec
    pi1: Fraction
    pi2: Fraction


@dataclass(frozen=True)
class SymCertificate:
    z: Vec


@dataclass(frozen=True)
class EnumerationResult:
    equilibria: tuple
    degenerate: bool


# --- checkers ------------------------------------------------------------

def _payoffs(m: list[list[int]], w: list[int]) -> list[int]:
    """The integer products m w, taken over the nonzero entries of w only."""
    nz = [(j, v) for j, v in enumerate(w) if v]
    return [sum(row[j] * v for j, v in nz) for row in m]


def _best_response_violations(w: list[int], dw: int, p: list[int], dp: int,
                              name: str) -> list[str]:
    """The mixed strategy w / dw gives weight only to best responses to
    the payoffs p / dp (dw, dp > 0).  Its own payoff is w.p / (dw dp), so
    strategy i pays more than it exactly when p_i dw > w.p."""
    if any(v < 0 for v in w):
        return [f"{name} weights include a negative one"]
    if sum(w) != dw:
        return [f"{name} weights sum to {Fraction(sum(w), dw)}, not 1"]
    pi = sum(map(mul, w, p))
    out = []
    for i, (wi, v) in enumerate(zip(w, p)):
        if v * dw > pi:
            out.append(f"{name} {i} pays {Fraction(v, dp)} > {Fraction(pi, dw * dp)}:"
                       " profitable deviation")
        if wi and v * dw != pi:
            out.append(f"{name} complementarity fails at {i}")
    return out


def _profile_violations(a: list[list[int]], la: int, bt: list[list[int]], lb: int,
                        x: Vec, y: Vec) -> tuple[list[str], Fraction, Fraction]:
    """The equilibrium conditions for (x, y) in the game (a / la, (bt / lb)^T),
    and the two payoffs x A y and x B y."""
    (X, dx), (Y, dy) = int_vec(x), int_vec(y)
    ay, bx = _payoffs(a, Y), _payoffs(bt, X)
    bad = (_best_response_violations(X, dx, ay, la * dy, "row")
           + _best_response_violations(Y, dy, bx, lb * dx, "column"))
    return (bad, Fraction(sum(map(mul, X, ay)), dx * la * dy),
            Fraction(sum(map(mul, Y, bx)), dy * lb * dx))


def _game_shape(A: Mat, B: Mat) -> tuple[int, int]:
    shape = mat_shape(A)
    if mat_shape(B) != shape:
        raise ValueError("payoff matrices must share a shape")
    return shape


def ne_violations(A: Mat, B: Mat, x: Vec, y: Vec) -> list[str]:
    """Exact best-response and complementarity conditions for (x, y)."""
    r, c = _game_shape(A, B)
    if len(x) != r or len(y) != c:
        raise ValueError("profile dimensions do not match the game")
    return _profile_violations(*int_matrix(A), *int_matrix(transpose(B)), x, y)[0]


def check_ne(A: Mat, B: Mat, x: Vec, y: Vec) -> bool:
    return not ne_violations(A, B, x, y)


def symmetric_ne_violations(S: Mat, z: Vec) -> list[str]:
    r, c = mat_shape(S)
    if r != c:
        raise ValueError("matrix must be square")
    if len(z) != r:
        raise ValueError("profile dimension does not match the game")
    s, ls = int_matrix(S)
    Z, dz = int_vec(z)
    return _best_response_violations(Z, dz, _payoffs(s, Z), ls * dz, "strategy")


# --- support enumeration --------------------------------------------------

def check_dimension(r: int, c: int, cap: int = MAX_DIM) -> None:
    """Refuse an r x c game with more than `cap` rows or columns."""
    if max(r, c) > cap:
        raise DimensionTooLarge(f"game is {r}x{c}; cap is {cap}")


def _on_support(payoff_rows: list[list[int]],
                support: tuple[int, ...]) -> tuple[str, list[int] | None, int, int]:
    """Weights w on `support` and payoff p with row . w = p for every
    integer payoff row and sum w = 1, by `eliminate`.  Returns ("unique",
    W, P, D) with w = W / D in support order, p = P / D and D > 0, else
    "none" (inconsistent) or "many" (singular) with None, 0, 0.  p is
    eliminated up front: the rows are (sum w = 1, (first - row) . w = 0 for
    every other payoff row), and P = first . W.
    """
    first, *rest = [[row[j] for j in support] for row in payoff_rows]
    rows = [[1] * len(support) + [1], *([f - v for f, v in zip(first, row)] + [0]
                                         for row in rest)]
    n = len(support)
    pr, prev = eliminate(rows, n)
    if pr < n:
        return ("none" if any(row[n] for row in rows[pr:]) else "many"), None, 0, 0
    sign = 1 if prev > 0 else -1    # each row now reads prev * unknown = row[n]
    w = [sign * row[n] for row in rows]
    return "unique", w, sum(f * v for f, v in zip(first, w)), sign * prev


# enumeration refuses n > MAX_DIM, so these caches hold at most 2^n subsets per n
@cache
def _faces(n: int, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each k-subset T of range(n), in `itertools.combinations` order, with
    the indices of T less T[0], T less T[1], ... among the (k-1)-subsets
    in that order."""
    index = {t: i for i, t in enumerate(itertools.combinations(range(n), k - 1))}
    return [(t, tuple(index[t[:pos] + t[pos + 1:]] for pos in range(k)))
            for t in itertools.combinations(range(n), k)]


@cache
def _expansion(n: int, k: int) -> list[tuple[itemgetter, itemgetter]]:
    """For each k-subset T of range(n) (k >= 2), in `_faces` order, two
    getters: one reads a row of length n followed by its negation at
    T[0], T[1] + n, T[2], T[3] + n, ... (the row's entries on T with
    alternating signs), the other reads the minors on T less T[0], T less
    T[1], ..."""
    return [(itemgetter(*(j + n * (pos % 2) for pos, j in enumerate(t))), itemgetter(*faces))
            for t, faces in _faces(n, k)]


def _minors(first: list[int], others: list[list[int]], n: int) -> list[int]:
    """The determinants of the difference rows first - row, one per row in
    `others`, on every len(others)-subset of the n columns, in `_faces`
    order.  Built a row at a time by Laplace expansion along the newest
    row, so only integer products and sums are taken."""
    diffs = [[f - v for f, v in zip(first, row)] for row in others]
    minors = diffs[0] if diffs else [1]
    for k, diff in enumerate(diffs[1:], 2):
        neg = [-v for v in diff]
        # row k's entry at T[pos] carries the cofactor sign (-1)^(k-1+pos)
        signed = diff + neg if k % 2 else neg + diff
        minors = [sum(map(mul, entries(signed), lower(minors)))
                  for entries, lower in _expansion(n, k)]
    return minors


def _table_solve(minors: list[int], faces: tuple[int, ...], payoff_rows: list[list[int]],
                 support: tuple[int, ...], classify: bool = True
                 ) -> tuple[str, list[int] | None, int, int]:
    """`_on_support(payoff_rows, support)` from the `_minors` of the
    payoff rows, where `faces` are the support's entry in `_faces`.  By
    Cramer's rule on (sum w = 1, (first - row) . w = 0), W_pos =
    (-1)^pos * minor(support less support[pos]) and the determinant is
    sum W.  A singular system goes to `_on_support`, or, when not
    `classify`, comes back as ("singular", None, 0, 0)."""
    w = [minors[f] for f in faces]
    w[1::2] = [-v for v in w[1::2]]
    det = sum(w)
    if not det:
        return _on_support(payoff_rows, support) if classify else ("singular", None, 0, 0)
    if det < 0:
        w = [-v for v in w]
        det = -det
    first = payoff_rows[0]
    return "unique", w, sum(first[j] * v for j, v in zip(support, w)), det


def _screen(sides) -> bool | None:
    """Screen a solution given per player as (integer payoff rows, support,
    weights W, payoff P, opponent support, opponent weights), W and P over
    one positive denominator.  None when some strategy pays more than P;
    otherwise whether the solution is degenerate: a zero weight inside a
    support, or a strategy outside it that also pays P.
    """
    degenerate = False
    for rows, support, w, p, opp_support, opp_w in sides:
        degenerate = degenerate or 0 in w
        for i, row in enumerate(rows):
            if i in support:
                continue
            v = sum(row[j] * u for j, u in zip(opp_support, opp_w))
            if v > p:
                return None
            degenerate = degenerate or v == p
    return degenerate


def _checked(violations: list[str], what: str) -> None:
    if violations:
        raise AssertionError(f"{what} fails checker: {violations[0]}")


def enumerate_ne(A: Mat, B: Mat) -> EnumerationResult:
    """All equilibria that are unique on their (equal-sized) support pair.

    For a nondegenerate game this is the complete equilibrium list; when
    some support system is consistent but singular, or an equilibrium
    carries extra tight strategies, the result is flagged degenerate.
    """
    r, c = _game_shape(A, B)
    check_dimension(r, c)
    a, la = int_matrix(A)
    bt, lb = int_matrix(transpose(B))
    found: dict[tuple, NeCertificate] = {}
    degenerate = False
    for size in range(1, min(r, c) + 1):
        y_faces = _faces(c, size)
        # the minors of B's column differences, per column support, once needed
        x_minors: list[list[int] | None] = [None] * len(y_faces)
        for sx, sx_faces in _faces(r, size):
            a_rows = [a[i] for i in sx]
            y_minors = _minors(a_rows[0], a_rows[1:], c)
            for iy, (sy, sy_faces) in enumerate(y_faces):
                # once the game is flagged degenerate, "none" and "many" lead to
                # the same result, and so does any x behind a negative y
                status, y, p1, dy = _table_solve(y_minors, sy_faces, a_rows, sy, not degenerate)
                if status == "unique" and (not degenerate or min(y) >= 0):
                    b_rows = [bt[j] for j in sy]
                    if x_minors[iy] is None:
                        x_minors[iy] = _minors(b_rows[0], b_rows[1:], r)
                    status, x, p2, dx = _table_solve(x_minors[iy], sx_faces, b_rows, sx,
                                                     not degenerate)
                degenerate |= status == "many"
                if status != "unique" or min(y) < 0 or min(x) < 0:
                    continue
                screened = _screen([(a, sx, x, p1, sy, y), (bt, sy, y, p2, sx, x)])
                if screened is None:
                    continue
                degenerate |= screened
                xf = spread({i: Fraction(v, dx) for i, v in zip(sx, x)}, r)
                yf = spread({j: Fraction(v, dy) for j, v in zip(sy, y)}, c)
                key = (tuple(xf), tuple(yf))
                if key not in found:
                    _checked(ne_violations(A, B, xf, yf), "support-enumeration candidate")
                    found[key] = NeCertificate(xf, yf, Fraction(p1, dy * la),
                                               Fraction(p2, dx * lb))
    return EnumerationResult(tuple(found.values()), degenerate)


def enumerate_symmetric_ne(S: Mat) -> EnumerationResult:
    """Symmetric equilibria unique on their support, with degeneracy flag."""
    r, c = mat_shape(S)
    if r != c:
        raise ValueError("matrix must be square")
    check_dimension(r, r)
    s, _ = int_matrix(S)
    found: dict[tuple, SymCertificate] = {}
    degenerate = False
    for size in range(1, r + 1):
        for supp in itertools.combinations(range(r), size):
            status, z, p, d = _on_support([s[i] for i in supp], supp)
            degenerate |= status == "many"
            if status != "unique" or any(v < 0 for v in z):
                continue
            screened = _screen([(s, supp, z, p, supp, z)])
            if screened is None:
                continue
            degenerate |= screened
            zf = spread({i: Fraction(v, d) for i, v in zip(supp, z)}, r)
            key = tuple(zf)
            if key not in found:
                _checked(symmetric_ne_violations(S, zf), "symmetric candidate")
                found[key] = SymCertificate(zf)
    return EnumerationResult(tuple(found.values()), degenerate)


# --- Lemke-Howson ----------------------------------------------------------

# A tableau row is N/d: N maps column -> nonzero integer, d > 0, and
# gcd(d, all of N) = 1, so every entry is held in lowest terms without a
# Fraction per entry.  That form is unique, so equal rows are equal tuples.
TableauRow = tuple[dict[int, int], int]


def _reduced(N: dict[int, int], d: int) -> TableauRow:
    """The row N / d (d > 0) in lowest terms."""
    g = gcd(d, *N.values())
    if g == 1:
        return N, d
    return {j: v // g for j, v in N.items()}, d // g


def _tableau(m: list[list[int]], l: int, z0: int, s0: int, rhs: int) -> list[TableauRow]:
    """Rows of M1 z + s = 1, where M = m / l is a payoff matrix as
    `int_matrix` gives it and M1 = M + (1 - min M) has every entry
    positive; z's variable j is column z0 + j, row i's slack is column
    s0 + i and the rhs is column `rhs`.  Row i is (m_i + l - min m, the
    slack's l, l) / l.
    """
    shift = l - min(min(row) for row in m)
    return [_reduced({**{z0 + j: v + shift for j, v in enumerate(row)}, s0 + i: l, rhs: l}, l)
            for i, row in enumerate(m)]


def _pivot(rows: list[TableauRow], r: int, s: int) -> None:
    """Gauss-Jordan step on (r, s), which needs N_r[s] > 0.  Row r becomes
    N_r / N_r[s]; a row i nonzero in column s becomes (p N_i - f N_r) /
    (d_i p) with p, N_r the new pivot row and f = N_i[s].  Rows zero in
    column s are untouched, and every row written is divided by its gcd."""
    N = rows[r][0]
    rows[r] = Nr, p = _reduced(N, N[s])
    for i, (Ni, di) in enumerate(rows):
        f = Ni.get(s)
        if f is None or i == r:
            continue
        N = Ni if p == 1 else {j: p * v for j, v in Ni.items()}
        for j, w in Nr.items():
            v = N.get(j, 0) - f * w
            if v:
                N[j] = v
            else:
                del N[j]
        rows[i] = _reduced(N, di * p)


def _lex_pivot(rows: list[TableauRow], basis: list[int], col: int, rhs: int) -> int:
    """Pivot on column `col`; the lexicographically least ratio row wins.
    Returns the leaving variable.

    The ratio vectors (column `rhs` first, then columns 0..rhs-1, over the
    entry in `col`) are compared one column at a time, keeping only the
    rows still tied, which picks the row that a full-tuple minimum picks.
    A ratio N_i[j] / N_i[col] does not depend on the row's denominator, so
    two rows compare by cross-multiplying their numerators.
    """
    tied = [(i, N, N[col]) for i, (N, _) in enumerate(rows) if N.get(col, 0) > 0]
    if not tied:
        raise RayTermination("no positive pivot entry; the path is unbounded")
    for j in (rhs, *range(rhs)):
        if len(tied) == 1:
            break
        a, q = tied[0][1].get(j, 0), tied[0][2]
        for _, N, q2 in tied:
            a2 = N.get(j, 0)
            if a2 * q < a * q2:
                a, q = a2, q2
        tied = [t for t in tied if t[1].get(j, 0) * q == a * t[2]]
    best = tied[0][0]
    _pivot(rows, best, col)
    leaving = basis[best]
    basis[best] = col
    return leaving


def lemke_howson(A: Mat, B: Mat, dropped_label: int = 0, max_dim: int | None = None,
                 max_pivots: int = MAX_PIVOTS) -> NeCertificate:
    """One equilibrium by complementary pivoting on the dropped label.

    Labels 0..rows-1 are first-player strategies, rows..rows+cols-1 second
    player's.  Ray termination is reported, never silently retried; a path
    longer than `max_pivots` raises PivotLimitReached.  `max_dim`, when
    given, refuses games with more rows or columns.
    """
    r, c = _game_shape(A, B)
    if max_dim is not None:
        check_dimension(r, c, max_dim)
    n = r + c
    if not 0 <= dropped_label < n:
        raise ValueError(f"label must lie in 0..{n - 1}")

    # The game's LCP w = 1 - [[0, A1], [B1^T, 0]] z over z = (x, y), the
    # variables 0..n-1, and w = (u, v), the variables n..2n-1, with A1 and B1
    # shifted to positive entries (see `_tableau`).  Variable t carries label
    # t % n, so its complement is (t + n) % 2n.
    rhs = 2 * n
    a, la = int_matrix(A)
    bt, lb = int_matrix(transpose(B))
    rows = _tableau(a, la, r, n, rhs) + _tableau(bt, lb, 0, n + r, rhs)
    basis = list(range(n, rhs))
    var = dropped_label
    for _ in range(max_pivots):
        leaving = _lex_pivot(rows, basis, var, rhs)
        if leaving % n == dropped_label:
            break
        var = (leaving + n) % rhs
    else:
        raise PivotLimitReached(f"Lemke-Howson found no equilibrium within its bound of"
                                f" {max_pivots} pivots on the {r}x{c} game from label"
                                f" {dropped_label}")

    z = spread({t: Fraction(N.get(rhs, 0), d) for (N, d), t in zip(rows, basis) if t < n}, n)
    x, y = z[:r], z[r:]
    sx, sy = sum(x), sum(y)
    if sx == 0 or sy == 0:
        raise RayTermination("pivoting terminated at the artificial equilibrium")
    x = [v / sx for v in x]
    y = [v / sy for v in y]
    bad, pi1, pi2 = _profile_violations(a, la, bt, lb, x, y)
    if bad:
        raise RayTermination("pivoting result fails the equilibrium checker: " + bad[0])
    return NeCertificate(x, y, pi1, pi2)


# --- fixed points -----------------------------------------------------------

def check_fixed_point(circ: FixpCircuit, lam: Vec) -> bool:
    """Exact test evaluate(circ, lam) == lam."""
    point = [Fraction(v) for v in lam]
    return evaluate(circ, point) == point
