"""Exact equilibrium checking and enumeration for small bimatrix games.

Everything here is exact rational arithmetic, so "equilibrium" always means
the complementarity characterization holding with exact equality: row payoffs
(Ay)_i never exceed the first player's payoff and are equal wherever x_i
is positive, and symmetrically for columns.  The checkers compare
integers.  A payoff matrix has one integer form, its sparse rows
(`_int_rows`): each dense row is scanned once for its nonzeros, and only
those are cleared, over the lcm of the matrix's denominators.  A Fraction
profile is cleared by `int_vec`, while both solvers hand over their
profiles as integers; the payoffs A y and x^T B are taken over the
nonzeros, and compared by cross-multiplication.  Fractions are built only
for the text of a violation and for a certificate.

Support enumeration solves, per equal-sized support pair, the linear
system pinning the opponent's weights and the payoff, then filters by the
inequalities; a game whose support systems are consistent but singular is
flagged degenerate and only the solutions unique on their support pair are
returned.  It runs on integers: each payoff matrix's sparse rows are
spread into dense ones, and Fractions are built only for the accepted
equilibria.  The system of a support pair is "sum w = 1, (first - row) . w
= 0" over the rows of one support and the columns of the other.  All the
pairs that share a row support share its difference rows, so their minors
are tabulated once (`_minors`, each followed by its negation), and each
nonsingular system is read off the table by Cramer's rule (`_cramer`), as
is each symmetric support's system, from the minors on the support's own
columns.  The getters of `_readers`, built once per (n, support size), read
a support's signed numerators off the table and a payoff row's entries on
the support, so the weights, their sum and every screening dot product are
taken by C-level builtins.  Only a singular system is eliminated, by two
exact ranks that tell "none" from "many" (`_singular`), and only while that
can still change the degeneracy flag.  From then on the second player's
system of a pair is solved only behind a nonnegative y that no first-player
strategy outside the support beats (`_screened`); before it, every pair
with a unique y solves x, since a singular x-system may set the flag.
Lemke-Howson serves as an independent second solver and the one that
scales to compiled games.  It is complementary pivoting, with a
lexicographic ratio test so degenerate ties cannot cycle, on the game's
LCP w = 1 - [[0, A1], [B1^T, 0]] z: w = (u, v) and z = (x, y) are the
variables 0..2n-1 (n = rows + cols), the slacks first, and variable t
carries label t mod n.  The LCP is two blocks, A1 y + u = 1 and B1^T x +
v = 1, each held in revised form (`_Condensed`): per row, one reduced
integer denominator, the rhs and the columns of the nonbasic slacks,
which are B^-1's non-unit columns.  A row is thus 1 + (number of basic
payoff variables) integers wide.  Basic columns are implicit unit
vectors, and a payoff variable's column B^-1 a_j + shift * rhs (q = 1) is
computed from the nonzeros of its payoff column when it enters; with the
slacks first, no lexicographic tie reads one.  Those nonzeros come from
the sparse rows with no transpose: y_j's are A's grouped by column, x_i's
are B's row i.  The label is checked before the payoffs are cleared.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import itemgetter, mul

from .exactmath import Mat, Vec, exact_vec, int_vec, mat_shape, rank
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
# above the 225 pivots that k=2, n=1's 169x169 game takes from label 0
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

IntRows = list[list[tuple[int, int]]]


def _int_rows(M: Mat) -> tuple[IntRows, int]:
    """The nonzeros of M's rows, each row as (column, entry) pairs, times
    the lcm of their denominators, and that lcm.  Each row is scanned once
    for its nonzeros, and only those are cleared.  A positive factor on a
    whole payoff matrix leaves every best response alone."""
    nz = [[(j, row[j]) for j in itertools.compress(range(len(row)), row)] for row in M]
    d = lcm(*(v.denominator for row in nz for _, v in row))
    return [[(j, v.numerator * (d // v.denominator)) for j, v in row] for row in nz], d


def _row_payoffs(m: IntRows, w: list[int]) -> list[int]:
    """The integer products m w, taken over the nonzeros of m."""
    return [sum([w[j] * v for j, v in row]) for row in m]


def _column_payoffs(m: IntRows, w: list[int], c: int) -> list[int]:
    """The c integer products w^T m, taken over the nonzeros of the rows
    of m whose weight in w is nonzero."""
    out = [0] * c
    for wi, row in zip(w, m):
        if wi:
            for j, v in row:
                out[j] += wi * v
    return out


def _spread(m: IntRows, c: int) -> list[list[int]]:
    """The dense c-column integer rows of m."""
    return [[row.get(j, 0) for j in range(c)] for row in map(dict, m)]


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


def _profile_violations(a: IntRows, la: int, b: IntRows, lb: int,
                        X: list[int], dx: int, Y: list[int], dy: int
                        ) -> tuple[list[str], Fraction, Fraction]:
    """The equilibrium conditions for the profile (X / dx, Y / dy) in the
    game (a / la, b / lb), and the two payoffs x A y and x B y."""
    ay, bx = _row_payoffs(a, Y), _column_payoffs(b, X, len(Y))
    bad = (_best_response_violations(X, dx, ay, la * dy, "row")
           + _best_response_violations(Y, dy, bx, lb * dx, "column"))
    return (bad, Fraction(sum(map(mul, X, ay)), dx * la * dy),
            Fraction(sum(map(mul, Y, bx)), dy * lb * dx))


def _game_shape(A: Mat, B: Mat, cap: int | None = None) -> tuple[int, int]:
    """The r x c shape that A and B must share, refused by
    `check_dimension` against `cap` when one is given."""
    r, c = mat_shape(A)
    if mat_shape(B) != (r, c):
        raise ValueError("payoff matrices must share a shape")
    if cap is not None:
        check_dimension(r, c, cap)
    return r, c


def _weights(support: Iterable[int], w: Iterable[int], n: int) -> list[int]:
    """The length-n integer vector holding w on the support and 0 elsewhere."""
    out = [0] * n
    for i, v in zip(support, w):
        out[i] = v
    return out


def _fractions(W: list[int], d: int) -> Vec:
    """The profile W / d, its zeros one shared Fraction."""
    zero = Fraction(0)
    return [Fraction(v, d) if v else zero for v in W]


def ne_violations(A: Mat, B: Mat, x: Vec, y: Vec) -> list[str]:
    """Exact best-response and complementarity conditions for (x, y)."""
    r, c = _game_shape(A, B)
    if len(x) != r or len(y) != c:
        raise ValueError("profile dimensions do not match the game")
    return _profile_violations(*_int_rows(A), *_int_rows(B), *int_vec(x), *int_vec(y))[0]


def check_ne(A: Mat, B: Mat, x: Vec, y: Vec) -> bool:
    return not ne_violations(A, B, x, y)


def symmetric_ne_violations(S: Mat, z: Vec) -> list[str]:
    r, c = mat_shape(S)
    if r != c:
        raise ValueError("matrix must be square")
    if len(z) != r:
        raise ValueError("profile dimension does not match the game")
    s, ls = _int_rows(S)
    Z, dz = int_vec(z)
    return _best_response_violations(Z, dz, _row_payoffs(s, Z), ls * dz, "strategy")


# --- support enumeration --------------------------------------------------

def check_dimension(r: int, c: int, cap: int = MAX_DIM) -> None:
    """Refuse an r x c game with more than `cap` rows or columns."""
    if max(r, c) > cap:
        raise DimensionTooLarge(f"game is {r}x{c}; cap is {cap}")


def _singular(payoff_rows: list[list[int]], support: tuple[int, ...]) -> str:
    """"none" or "many" for a support system that `_cramer` finds singular.
    With D its difference rows, it is consistent exactly when the all-ones
    row is not in the row space of D: rank([1; D]) = rank(D) + 1.  A full
    rank([1; D]) contradicts the zero determinant, and raises."""
    first, *rest = [[row[j] for j in support] for row in payoff_rows]
    diffs = [[f - v for f, v in zip(first, row)] for row in rest]
    full = rank([[1] * len(support), *diffs])
    if full == len(support):
        raise AssertionError("Cramer's rule and elimination disagree on a support system")
    return "many" if full == rank(diffs) + 1 else "none"


# enumeration refuses n > MAX_DIM, so this cache holds at most 2^n subsets per n
@cache
def _readers(n: int, k: int) -> list[tuple[tuple[int, ...], itemgetter, itemgetter, itemgetter]]:
    """Each k-subset T of range(n), in `itertools.combinations` order, with
    three getters.  The first reads T's signed Cramer numerators (-1)^pos *
    minor(T less T[pos]), and the second their negations, off a `_minors`
    table: the minors on the (k-1)-subsets in that order, followed by
    their negations.  The third reads a length-n row's entries on T.  Each
    returns a sequence, for k = 1 a one-entry slice."""
    index = {t: i for i, t in enumerate(itertools.combinations(range(n), k - 1))}
    m = len(index)

    def getter(idx: Sequence[int]) -> itemgetter:
        return itemgetter(*idx) if k > 1 else itemgetter(slice(idx[0], idx[0] + 1))
    out = []
    for t in itertools.combinations(range(n), k):
        faces = [index[t[:pos] + t[pos + 1:]] for pos in range(k)]
        out.append((t, getter([f + m * (pos % 2) for pos, f in enumerate(faces)]),
                    getter([f + m * (1 - pos % 2) for pos, f in enumerate(faces)]),
                    getter(t)))
    return out


def _minors(first: list[int], others: list[list[int]], n: int) -> list[int]:
    """The determinants of the difference rows first - row, one per row in
    `others`, on every len(others)-subset of the n columns, in `_readers`
    order, followed by their negations.  Built a row at a time by Laplace
    expansion along the newest row, so only integer products and sums are
    taken."""
    signed = [1, -1]
    for k, row in enumerate(others, 1):
        # row k's entry at T[pos] carries the cofactor sign (-1)^(k-1+pos),
        # and the numerators `_readers` reads carry (-1)^pos
        diff = [(f - v if k % 2 else v - f) for f, v in zip(first, row)]
        minors = diff if k == 1 else [sum(map(mul, entries(diff), numerators(signed)))
                                      for _, numerators, _, entries in _readers(n, k)]
        signed = minors + [-v for v in minors]
    return signed


def _cramer(signed: list[int], reader: tuple) -> tuple[Sequence[int], int]:
    """Weights W on a support T and D >= 0 such that w = W / D solves T's
    system sum w = 1, (first - row) . w = 0, by Cramer's rule off the
    system's `_minors` table and T's `_readers` entry: W_pos = (-1)^pos *
    minor(T less T[pos]), negated when their sum is, and D = |sum W|.
    D = 0 when the system is singular."""
    _, numerators, negated, _ = reader
    w = numerators(signed)
    d = sum(w)
    return (negated(signed), -d) if d < 0 else (w, d)


def _screened(first: list[int], others: list[list[int]], entries: itemgetter,
              w: Sequence[int]) -> tuple[int, bool] | None:
    """Screen a player against the opponent's weights w, which `entries`
    reads a payoff row's part of: every strategy in the player's support
    pays p, what its `first` row pays.  None as soon as one of the
    `others`, the strategies outside the support, pays more, else p and
    whether one of them pays p too."""
    p = sum(map(mul, entries(first), w))
    tie = False
    for row in others:
        v = sum(map(mul, entries(row), w))
        if v > p:
            return None
        tie = tie or v == p
    return p, tie


def _checked(violations: list[str], what: str) -> None:
    if violations:
        raise AssertionError(f"{what} fails checker: {violations[0]}")


def enumerate_ne(A: Mat, B: Mat) -> EnumerationResult:
    """All equilibria that are unique on their (equal-sized) support pair.

    For a nondegenerate game this is the complete equilibrium list; when
    some support system is consistent but singular, or an equilibrium
    carries extra tight strategies, the result is flagged degenerate.
    """
    r, c = _game_shape(A, B, MAX_DIM)
    (a_nz, la), (b_nz, lb) = _int_rows(A), _int_rows(B)
    # the getters read dense rows of A and of B^T
    a, bt = _spread(a_nz, c), list(zip(*_spread(b_nz, c)))
    found: dict[tuple, NeCertificate] = {}
    degenerate = False
    for size in range(1, min(r, c) + 1):
        y_readers = _readers(c, size)
        # per column support, once needed: its rows of B^T, their minors
        # and the other rows
        x_tables: list[tuple | None] = [None] * len(y_readers)
        for x_reader in _readers(r, size):
            sx = x_reader[0]
            a_rows = [a[i] for i in sx]
            a_out = [row for i, row in enumerate(a) if i not in sx]
            y_minors = _minors(a_rows[0], a_rows[1:], c)
            for iy, y_reader in enumerate(y_readers):
                sy = y_reader[0]
                y, dy = _cramer(y_minors, y_reader)
                if not dy:
                    # once the game is flagged degenerate, "none" and "many"
                    # lead to the same result
                    degenerate = degenerate or _singular(a_rows, sy) == "many"
                    continue
                # and so does any x behind a negative y or a first player
                # who deviates, so x is then not solved
                first = None
                if degenerate and (min(y) < 0
                                   or not (first := _screened(a_rows[0], a_out, y_reader[3], y))):
                    continue
                if x_tables[iy] is None:
                    b_rows = [bt[j] for j in sy]
                    x_tables[iy] = (b_rows, _minors(b_rows[0], b_rows[1:], r),
                                    [row for j, row in enumerate(bt) if j not in sy])
                b_rows, x_minors, b_out = x_tables[iy]
                x, dx = _cramer(x_minors, x_reader)
                if not dx:
                    degenerate = degenerate or _singular(b_rows, sx) == "many"
                    continue
                if min(y) < 0 or min(x) < 0:
                    continue
                first = first or _screened(a_rows[0], a_out, y_reader[3], y)
                second = first and _screened(b_rows[0], b_out, x_reader[3], x)
                if not second:
                    continue
                (p1, tie1), (p2, tie2) = first, second
                degenerate |= tie1 or tie2 or 0 in x or 0 in y
                X, Y = _weights(sx, x, r), _weights(sy, y, c)
                xf, yf = _fractions(X, dx), _fractions(Y, dy)
                key = (tuple(xf), tuple(yf))
                if key not in found:
                    _checked(_profile_violations(a_nz, la, b_nz, lb, X, dx, Y, dy)[0],
                             "support-enumeration candidate")
                    found[key] = NeCertificate(xf, yf, Fraction(p1, dy * la),
                                               Fraction(p2, dx * lb))
    return EnumerationResult(tuple(found.values()), degenerate)


def enumerate_symmetric_ne(S: Mat) -> EnumerationResult:
    """Symmetric equilibria unique on their support, with degeneracy flag."""
    r, c = mat_shape(S)
    if r != c:
        raise ValueError("matrix must be square")
    check_dimension(r, r)
    s_nz, ls = _int_rows(S)
    s = _spread(s_nz, r)
    found: dict[tuple, SymCertificate] = {}
    degenerate = False
    for size in range(1, r + 1):
        # a support's system lies on its own columns, so its minors do too
        own = _readers(size, size)[0]
        for supp, _, _, entries in _readers(r, size):
            rows = [s[i] for i in supp]
            first, *rest = map(entries, rows)
            z, d = _cramer(_minors(first, rest, size), own)
            if not d:
                degenerate = degenerate or _singular(rows, supp) == "many"
                continue
            screened = min(z) >= 0 and _screened(
                rows[0], [row for i, row in enumerate(s) if i not in supp], entries, z)
            if not screened:
                continue
            degenerate |= screened[1] or 0 in z
            Z = _weights(supp, z, r)
            zf = _fractions(Z, d)
            key = tuple(zf)
            if key not in found:
                _checked(_best_response_violations(Z, d, _row_payoffs(s_nz, Z), ls * d,
                                                   "strategy"), "symmetric candidate")
                found[key] = SymCertificate(zf)
    return EnumerationResult(tuple(found.values()), degenerate)


# --- Lemke-Howson ----------------------------------------------------------

class _Condensed:
    """One block M z + w = 1 of an LCP, with M > 0, held in revised form and
    pivoted lexicographically.

    B is the basis matrix: the columns, in M or in the identity, of the
    variables `basis`, one per row.  The tableau is B^-1 [1, M, I], and only
    its non-unit parts are stored.  Row i is N_i / d_i with d_i > 0 and
    gcd(d_i, *N_i) = 1, so every stored entry is in lowest terms without a
    Fraction per entry, and the form is unique.  Slot 0 of N_i is the rhs
    beta = B^-1 1; slot j >= 1 is the column of the nonbasic slack slots[j],
    a column of B^-1 (slots[0] is -1, the rhs's placeholder).  The column
    of a basic variable is a unit vector, not stored, and that of a
    nonbasic payoff variable v is computed when it enters (`_column`): M's
    column is m_v + shift, with m_v the sparse integer column cols[v] over
    the slacks, and since q = 1 its tableau column is B^-1 m_v + shift
    beta.  So a row holds 1 + (number of basic payoff variables) slots.
    Every slack is numbered below every payoff variable, and B^-1 is
    nonsingular, so the ratio test breaks every tie within B^-1's columns,
    stored or unit, and never reads a payoff column.
    """

    __slots__ = ("rows", "dens", "basis", "slots", "where", "order", "cols", "shift")

    def __init__(self, rows: list[list[int]], dens: list[int], basis: Iterable[int],
                 slots: Iterable[int], cols: dict[int, list[tuple[int, int]]], shift: int):
        """Rows [beta_i, columns of the nonbasic slacks], each in lowest
        terms over its denominator in `dens`; the variables `basis` are
        basic, one per row, and the slacks `slots` nonbasic, in slot order.
        `cols` maps each payoff variable to its column's nonzeros (slack,
        entry), and `shift` is added to every entry of M.  Variables are
        integers >= 0, every slack below every payoff variable."""
        self.rows, self.dens = rows, dens
        self.basis = list(basis)
        self.slots = [-1, *slots]
        self.cols, self.shift = cols, shift
        # a nonbasic payoff variable maps to None, a nonbasic slack to its
        # slot (>= 1), the variable basic in row k to ~k (< 0), and -1 to the
        # rhs's slot 0, so that `order` walks the rhs first
        self.where = dict.fromkeys(cols)
        self.where.update(zip(self.slots, itertools.count()))
        self.where.update(zip(self.basis, itertools.count(-1, -1)))
        self.order = sorted(v for v in self.where if v not in cols)
        if cols and min(cols) < self.order[-1]:
            raise ValueError(f"payoff variable {min(cols)} is numbered below a slack")

    def enter(self, var: int) -> int | None:
        """Bring the nonbasic `var` into the basis and return the variable
        that leaves, or None when no entry in its column is positive (the
        path is unbounded).

        The pivot row has the lexicographically least ratio vector (the
        rhs first, then every variable's column in increasing order, over
        the entry in var's column), found one column at a time, the rhs
        and then the slacks', keeping only the rows still tied.  A ratio
        does not depend on the row's denominator, so on a stored column
        two rows compare by cross-multiplying numerators.  The column of
        the variable basic in row k is positive in row k only, so there
        row k drops out whenever other rows are still tied.
        """
        rows, where = self.rows, self.where
        s = where[var]
        col = self._column(var)
        tied = [i for i, f in enumerate(col) if f > 0]
        if not tied:
            return None
        for v in self.order:
            if len(tied) == 1:
                break
            j = where[v]
            if j < 0:
                tied = [i for i in tied if i != ~j]
                continue
            vals = [rows[i][j] for i in tied]
            a, q = vals[0], col[tied[0]]
            for i, a2 in zip(tied, vals):
                if a2 * q < a * col[i]:
                    a, q = a2, col[i]
            tied = [i for i, a2 in zip(tied, vals) if a2 * q == a * col[i]]
        if len(tied) > 1:
            raise AssertionError(f"rows {tied} still tie after every column of B^-1")
        r = tied[0]
        leaving, slots = self.basis[r], self.slots
        if leaving in self.cols:
            # a payoff variable's column is not stored, and an entering
            # slack's slot goes: the last slot takes its place
            t, where[leaving] = None, None
            if s is not None:
                last = slots.pop()
                if s < len(slots):
                    slots[s], where[last] = last, s
                for N in rows:
                    N[s] = N[-1]
                    N.pop()
        else:
            # a slack's column is stored, in the entering slack's slot or a new one
            if s is None:
                t = len(slots)
                slots.append(leaving)
                for N in rows:
                    N.append(0)
            else:
                t, slots[s] = s, leaving
            where[leaving] = t
        self._pivot(r, col, t)
        self.basis[r], where[var] = var, ~r
        return leaving

    def _column(self, v: int) -> list[int]:
        """The numerators, over their rows' denominators, of the nonbasic
        variable v's column.  A nonbasic slack's column is a stored slot,
        read in place.  A payoff variable's column B^-1 m_v + shift beta is
        summed over the nonzeros of m_v only: a nonbasic slack's adds its
        stored column, a basic slack's its implicit unit column."""
        R, dens, where = self.rows, self.dens, self.where
        j = where[v]
        if j is not None:
            return [N[j] for N in R]
        out = [self.shift * N[0] for N in R]
        for k, a in self.cols[v]:
            j = where[k]
            if j >= 0:
                out = [o + N[j] * a for o, N in zip(out, R)]
            else:
                out[~j] += dens[~j] * a
        return out

    def values(self, lo: int, hi: int) -> list[int]:
        """The values of the variables lo..hi-1 in this basis, over one
        common denominator: a basic variable's is its row's rhs, a
        nonbasic variable's 0."""
        basic = [(t, N[0], d) for t, N, d in zip(self.basis, self.rows, self.dens)
                 if lo <= t < hi]
        den = lcm(*(d for _, _, d in basic))
        out = [0] * (hi - lo)
        for t, v, d in basic:
            out[t - lo] = v * (den // d)
        return out

    def _pivot(self, r: int, col: list[int], t: int | None) -> None:
        """Gauss-Jordan step on row r of the entering column `col`, whose
        numerators are over the rows' denominators and col[r] > 0.  Slot t
        is to hold the column of the slack leaving row r, which was the
        unit e_r, and is a new last slot of every row when t is their
        width; t is None when a payoff variable leaves.  The entering
        variable's slot, if it had one, is already gone or is slot t.  Row
        r becomes N_r / p with p = col[r] and d_r written into slot t; that
        is in lowest terms, as gcd(d_r, *N_r) = 1, and without slot t it is
        reduced here.  A row i with f = col[i] nonzero becomes (p' N_i - f'
        N_r) / (d_i p') with p, N_r the new pivot row, c = gcd(p, f), p' =
        p / c and f' = f / c, except that its slot t is -f' d_r.  N_i is
        copied as it is when p' = 1 and scaled by p' otherwise, and f' N_r
        is subtracted at the pivot row's nonzero slots only, listed once
        per pivot.  Rows with f = 0 are untouched, and every other row
        written is divided by its gcd; the lowest-terms form is unique, so
        dividing by c first changes no row."""
        rows, dens = self.rows, self.dens
        Nr, p = rows[r], col[r]
        if t is None:
            g = gcd(p, *Nr)
            if g != 1:
                Nr = [v // g for v in Nr]
                p //= g
        else:
            Nr[t] = w = dens[r]
        rows[r], dens[r] = Nr, p
        nonzero = [(j, u) for j, u in enumerate(Nr) if u and j != t]
        for i, f in enumerate(col):
            if not f or i == r:
                continue
            Ni = rows[i]
            c = gcd(p, f)
            pc, f = p // c, f // c
            if pc == 1:
                N = Ni[:]
            else:
                N = [pc * v for v in Ni]
            for j, u in nonzero:
                N[j] -= f * u
            if t is not None:
                N[t] = -f * w
            d = dens[i] * pc
            g = gcd(d, *N)
            if g != 1:
                N = [v // g for v in N]
                d //= g
            rows[i], dens[i] = N, d


def _lcp_blocks(a: IntRows, la: int, b: IntRows, lb: int, c: int
                ) -> tuple[_Condensed, _Condensed]:
    """The two blocks A1 y + u = 1 and B1^T x + v = 1 of the LCP of the
    r x c game (a / la, b / lb), its payoffs as `_int_rows` gives them,
    and u, v, x, y (slacks first) the variables from 0, r, n and n + r on
    (n = r + c).  A1 and B1 are the payoffs shifted to positive entries,
    and a block takes them scaled by its l: m + l - min m for the block
    of the matrix m / l, where an entry missing from m's nonzeros is a
    zero.  Scaling a block's payoff variables by a positive constant
    multiplies their columns by it and divides the rows they are basic in
    by it, which changes neither a pivot nor the normalized profile.  Each
    block starts at the slack basis B = I, its rows the rhs 1 alone, and
    keeps the nonzeros of its payoff columns: y_j's are A's column j, over
    the u_i, and x_i's are B's row i, over the v_j."""
    r = len(a)
    n = r + c

    def shift(m: IntRows, l: int) -> int:
        values = [v for row in m for _, v in row]
        if len(values) < r * c:
            values.append(0)
        return l - min(values)
    y_cols: dict[int, list[tuple[int, int]]] = {n + r + j: [] for j in range(c)}
    for i, row in enumerate(a):
        for j, v in row:
            y_cols[n + r + j].append((i, v))
    x_cols = {n + i: [(r + j, v) for j, v in row] for i, row in enumerate(b)}
    return (_Condensed([[1] for _ in range(r)], [1] * r, range(r), (), y_cols, shift(a, la)),
            _Condensed([[1] for _ in range(c)], [1] * c, range(r, n), (), x_cols, shift(b, lb)))


def lemke_howson(A: Mat, B: Mat, dropped_label: int = 0, max_dim: int | None = None,
                 max_pivots: int = MAX_PIVOTS) -> NeCertificate:
    """One equilibrium by complementary pivoting on the dropped label.

    Labels 0..rows-1 are first-player strategies, rows..rows+cols-1 second
    player's.  Ray termination is reported, never silently retried; a path
    longer than `max_pivots` raises PivotLimitReached.  `max_dim`, when
    given, refuses games with more rows or columns.
    """
    r, c = _game_shape(A, B, max_dim)
    n = r + c
    if not 0 <= dropped_label < n:
        raise ValueError(f"label must lie in 0..{n - 1}")
    (a, la), (b, lb) = _int_rows(A), _int_rows(B)

    # The game's LCP over w = (u, v), the variables 0..n-1, and z = (x, y),
    # the variables n..2n-1, in two blocks (see `_lcp_blocks`): u and y lie
    # in the first, v and x in the second.  Variable t carries label t % n,
    # so its complement is (t + n) % 2n.
    first, second = _lcp_blocks(a, la, b, lb, c)
    var = n + dropped_label
    for pivots in range(max_pivots):
        leaving = (first if var < r or var >= n + r else second).enter(var)
        if leaving is None:
            raise RayTermination(f"Lemke-Howson found no positive pivot entry after {pivots}"
                                 f" pivots on the {r}x{c} game from label {dropped_label};"
                                 " the path is unbounded")
        if leaving % n == dropped_label:
            break
        var = (leaving + n) % (2 * n)
    else:
        raise PivotLimitReached(f"Lemke-Howson found no equilibrium within its bound of"
                                f" {max_pivots} pivots on the {r}x{c} game from label"
                                f" {dropped_label}")

    instance = f"after {pivots + 1} pivots on the {r}x{c} game from label {dropped_label}"
    # x is basic in the second block only, y in the first
    X, Y = second.values(n, n + r), first.values(n + r, 2 * n)
    sx, sy = sum(X), sum(Y)
    if sx == 0 or sy == 0:
        raise RayTermination(f"Lemke-Howson terminated at the artificial equilibrium {instance}")
    bad, pi1, pi2 = _profile_violations(a, la, b, lb, X, sx, Y, sy)
    if bad:
        raise RayTermination(f"Lemke-Howson's result fails the equilibrium checker {instance}: "
                             + bad[0])
    return NeCertificate(_fractions(X, sx), _fractions(Y, sy), pi1, pi2)


# --- fixed points -----------------------------------------------------------

def check_fixed_point(circ: FixpCircuit, lam: Vec) -> bool:
    """Exact test evaluate(circ, lam) == lam."""
    point = exact_vec(lam)
    return evaluate(circ, point) == point
