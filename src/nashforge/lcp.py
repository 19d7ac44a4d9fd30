"""LCP formulations of the parameterized LP and the games built from them.

Scaling column j of the constraint matrix by 1/c_j turns the cost into the
all-ones vector; substituting the output variables for the parameters then
eliminates the parameters entirely and leaves a linear complementarity
problem whose solutions carry exactly the circuit's fixed points.  Two
routes are implemented and cross-checked:

* via the LP and its dual: the two-sided system with matrix
  M = [[0, H^T], [-H', 0]] and q = (1, -b), whose blocks H^T and -H' are
  the only copies of the scaled matrices, paired with the (m+1)-strategy
  game
  (A~, B~) = ([[H^T, 0], [0^T, 1]], [[-H'^T, 0], [b^T + 1^T, 1]]),
  whose first matrix is upper-triangular and whose payoff sum
  [[sum_l e_{r_l} u^l^T, 0], [b^T + 1^T, 2]] is zero outside the k output
  rows and the slack row, so has rank at most k+1;
* directly from the constraints: x >= 0, A'x >= b with complementarity,
  paired with the symmetric game S = [[-A', b+1], [0^T, 1]].

Equilibrium profiles append one slack strategy; dividing the strategy
weights by that slack recovers the LCP coordinates, and the designated
output rows of those coordinates are the fixed point.  Zero slack weight
would falsify the construction's supporting lemmas, so the converters
treat it as a hard alarm rather than filtering it away.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from operator import mul

from .exactmath import (
    Mat, Row, Vec, densify, int_from_json, int_vec, is_upper_triangular, rank, row_add,
    rows_from_strs, rows_to_strs, sparse_transpose, spread, vec_from_strs, vec_to_strs,
)
from .lp import ParamLP


class LemmaFalsified(Exception):
    """A condition the construction proves in general failed on a concrete
    instance; always an implementation bug, never a data condition."""


@dataclass(frozen=True)
class LcpInstance:
    """Conditions z >= 0, M z <= q, z_i (M z - q)_i = 0, M as sparse rows,
    and the LP they were built from."""

    kind: str                     # "lcp_c" | "direct"
    M: list[Row]
    q: Vec
    lp: ParamLP

    @cached_property
    def _int_rows(self) -> list[tuple[list[int], list[int], int]]:
        """Each row of M as its columns, its entries times their lcm l, and
        l: cleared on first use, then shared by every check of this M."""
        return [(list(row), *int_vec(row.values())) for row in self.M]


def normalize(lp: ParamLP) -> LcpInstance:
    """The two-sided system on z = (x, y): H'x >= b, H^T y <= 1,
    complementary, as M = [[0, H^T], [-H', 0]] and q = (1, -b).

    H = A diag(1/c) and H' = H - sum_l u^l e_{r_l}^T are held only as M's
    blocks: row j of the H^T block is column j of H, shifted to the y
    columns m.., and the -H' block is the negated scaled rows of A'."""
    if lp.c is None:
        raise ValueError("cost vector missing; call with_cost first")
    for r in lp.output_rows:
        if lp.c[r] != 1:
            raise LemmaFalsified(
                f"cost at output row {r} is {lp.c[r]}, not 1; upstream construction bug")
    m = lp.m
    HT: list[Row] = [{} for _ in range(m)]
    for i, row in enumerate(lp.A_rows):
        for j, v in row.items():
            HT[j][m + i] = v / lp.c[j]
    # c_r = 1 at every output row r, so scaling the columns of
    # A' = A - sum_l u^l e_{r_l}^T gives H' with no separate subtraction
    negHp = [{j: -v / lp.c[j] for j, v in row.items()} for row in _direct_rows(lp)]
    two_sided = LcpInstance("lcp_c", HT + negHp, [Fraction(1)] * m + [-bi for bi in lp.b], lp)
    _assert_scaled_structure(two_sided)
    return two_sided


def _direct_rows(lp: ParamLP) -> list[Row]:
    """A' = A - sum_l u^l e_{r_l}^T, r_l the output rows."""
    return [row_add(row, {r: -u for r, u in zip(lp.output_rows, L.lam) if u})
            for row, L in zip(lp.A_rows, lp.rows)]


def _assert_scaled_structure(two_sided: LcpInstance):
    # Column of H at each output row stays the unit vector, so the dual
    # constraint there reads y_row <= 1; the primal row reads
    # x_inner/c_inner + x_row >= 1.
    lp, M = two_sided.lp, two_sided.M
    for r in lp.output_rows:
        if M[r] != {lp.m + r: 1}:
            raise LemmaFalsified(f"H column {r} is not the unit vector")
        if M[lp.m + r] != {r - 1: -1 / lp.c[r - 1], r: -1}:
            raise LemmaFalsified(f"scaled clamp row {r} has unexpected shape")


def scale_solution(lp: ParamLP, x: Vec) -> Vec:
    """x'_j = x_j * c_j, the change of variables matching the scaling."""
    if lp.c is None:
        raise ValueError("cost vector missing")
    if len(x) != lp.m:
        raise ValueError("dimension mismatch")
    return [xi * ci for xi, ci in zip(x, lp.c)]


def build_direct_lcp(lp: ParamLP) -> LcpInstance:
    """One-sided system on x alone: x >= 0, A'x >= b, complementary."""
    M = [{j: -v for j, v in row.items()} for row in _direct_rows(lp)]
    return LcpInstance("direct", M, [-bi for bi in lp.b], lp)


def lcp_violations(lcp: LcpInstance, z: Vec, q: Vec | None = None) -> list[str]:
    """The conditions z >= 0, Mz <= q and z_i (q - Mz)_i = 0, on integers,
    against `q` when given and the instance's own q otherwise: z = Z / dz
    over one denominator and each row over its own lcm l, so (Mz)_i = mz /
    (l dz) is compared with q_i by cross-multiplication."""
    n = len(lcp.M)
    if len(z) != n:
        raise ValueError(f"expected solution of length {n}")
    if q is None:
        q = lcp.q
    Z, dz = int_vec(z)
    out = []
    for i, ((cols, vals, l), qi, zi) in enumerate(zip(lcp._int_rows, q, Z)):
        mz = sum(map(mul, vals, map(Z.__getitem__, cols))) * qi.denominator
        qz = qi.numerator * l * dz
        if zi < 0:
            out.append(f"z_{i} negative")
        if mz > qz:
            out.append(f"row {i} infeasible: (Mz)_{i} > q_{i}")
        if zi and mz != qz:
            out.append(f"complementarity fails at row {i}")
    return out


def semimonotone_witness(two_sided: LcpInstance, z: Vec, q: Vec) -> str:
    """Name a violated LCP condition for nonzero z >= 0 against q > 0.

    The block matrix of the two-sided system admits only the zero solution
    when q is strictly positive, so some condition must fail; finding none
    is a construction-bug alarm.
    """
    if two_sided.kind != "lcp_c":
        raise ValueError(
            f"semimonotone_witness needs the two-sided LCP, got a {two_sided.kind!r} LCP")
    n = len(two_sided.M)
    if len(z) != n or len(q) != n:
        raise ValueError(f"expected vectors of length {n}")
    # a Fraction's sign is its numerator's
    if any(zi.numerator < 0 for zi in z) or not any(zi.numerator for zi in z):
        raise ValueError("z must be nonnegative and nonzero")
    if any(qi.numerator <= 0 for qi in q):
        raise ValueError("q must be strictly positive")
    bad = lcp_violations(two_sided, z, q)
    if not bad:
        raise LemmaFalsified("nonzero z solves the LCP against positive q")
    return bad[0]


# --- games ---------------------------------------------------------------

# the constructions a game can come from; `verify` picks its checks and
# `solve` the strategy that carries the fixed point by this kind
GAME_KINDS = ("rank_k_plus_1", "symmetric", "imitation")


@dataclass(frozen=True)
class GameMeta:
    m: int
    k: int
    c: Vec | None
    output_rows: tuple[int, ...]
    kind: str


@dataclass(frozen=True)
class BimatrixGame:
    """A square game as sparse rows; A and B are dense views built on each
    access, for the solvers and the referees."""

    A_rows: list[Row]
    B_rows: list[Row]
    meta: GameMeta

    @property
    def A(self) -> Mat:
        return densify(self.A_rows, len(self.A_rows))

    @property
    def B(self) -> Mat:
        return densify(self.B_rows, len(self.B_rows))


@dataclass(frozen=True)
class SymmetricGame:
    """The game (S, S^T) as the sparse rows of S; S is a dense view."""

    S_rows: list[Row]
    meta: GameMeta

    @property
    def S(self) -> Mat:
        return densify(self.S_rows, len(self.S_rows))


def build_game(two_sided: LcpInstance) -> BimatrixGame:
    """The (m+1)-strategy game whose equilibria carry the LCP solutions,
    read off the two-sided LCP: A is its H^T block with the columns shifted
    back to 0.., B the transpose of its -H' block, and B's slack row is
    b + 1 = 1 - q on the x rows.

    Certifies on sparse rows that A is upper-triangular and that A + B has
    the shape which bounds its rank by k+1 (see `_certify_payoff_sum`)."""
    if two_sided.kind != "lcp_c":
        raise ValueError(f"build_game needs the two-sided LCP, got a {two_sided.kind!r} LCP")
    lp = two_sided.lp
    m = lp.m
    A = [{j - m: v for j, v in row.items()} for row in two_sided.M[:m]] + [{m: Fraction(1)}]
    B = (sparse_transpose(two_sided.M[m:], m)
         + [{**{j: 1 - qj for j, qj in enumerate(two_sided.q[m:]) if qj != 1}, m: Fraction(1)}])
    if not is_upper_triangular(A):
        raise LemmaFalsified("first payoff matrix is not upper-triangular")
    _certify_payoff_sum(A, B, lp)
    return BimatrixGame(A, B, GameMeta(m, lp.k, list(lp.c), lp.output_rows, "rank_k_plus_1"))


def _certify_payoff_sum(A: list[Row], B: list[Row], lp: ParamLP):
    """Check A + B = [[sum_l e_{r_l} u^l^T, 0], [b^T + 1^T, 2]] exactly.

    That matrix is zero outside the k output rows and the slack row, so
    rank(A + B) <= k + 1 follows without an elimination."""
    want = {r: {j: L.lam[l] for j, L in enumerate(lp.rows) if L.lam[l]}
            for l, r in enumerate(lp.output_rows)}
    want[lp.m] = {**{j: bj + 1 for j, bj in enumerate(lp.b) if bj != -1}, lp.m: Fraction(2)}
    for i, (ra, rb) in enumerate(zip(A, B)):
        if row_add(ra, rb) != want.get(i, {}):
            raise LemmaFalsified(
                f"row {i} of A + B differs from [[sum_l e_r u^l^T, 0], [b^T + 1^T, 2]];"
                f" rank(A + B) <= {lp.k + 1} is not certified")


def payoff_sum_rank(A: list[Row], B: list[Row]) -> int:
    """rank(A + B) for square sparse A and B, by Bareiss elimination of the
    nonzero rows of A + B; 0 when there are none.  It reads every row, so
    it does not rest on the row set `build_game` certifies."""
    rows = [row for row in map(row_add, A, B) if row]
    return rank([spread(row, len(A)) for row in rows]) if rows else 0


def build_symmetric_game(lp: ParamLP) -> SymmetricGame:
    """S = [[-A', b+1], [0^T, 1]], -A' the direct LCP's matrix; symmetric
    equilibria carry the direct LCP."""
    direct = build_direct_lcp(lp)
    S = ([row_add(row, {lp.m: 1 - qi}) for row, qi in zip(direct.M, direct.q)]
         + [{lp.m: Fraction(1)}])
    return SymmetricGame(S, GameMeta(lp.m, lp.k, list(lp.c) if lp.c else None,
                                     lp.output_rows, "symmetric"))


def symmetrize(A: list[Row], B: list[Row], cols: int) -> SymmetricGame:
    """Block symmetrization [[0, A], [B^T, 0]] of the game with these sparse
    rows and `cols` columns.

    The payoff sum of the result has twice the rank of A + B.  The
    classical equilibrium correspondence additionally needs positive
    payoffs; splits with an all-zero half do not map back.
    """
    ra = len(A)
    if len(B) != ra:
        raise ValueError("payoff matrices must share a shape")
    S = [{ra + j: v for j, v in row.items()} for row in A] + sparse_transpose(B, cols)
    return SymmetricGame(S, GameMeta(ra, 0, None, (), "symmetric"))


def imitation_game(S: SymmetricGame) -> BimatrixGame:
    """The game (S, I): its second-player equilibrium strategies are the
    symmetric equilibria of (S, S^T)."""
    one = Fraction(1)
    return BimatrixGame(S.S_rows, [{i: one} for i in range(len(S.S_rows))],
                        replace(S.meta, kind="imitation"))


# --- equilibrium <-> LCP <-> fixed point mappings ------------------------

def _without_slack(z_full: Vec, who: str) -> Vec:
    """Divide the strategy weights by the slack weight, the last entry;
    zero slack weight is a falsification alarm."""
    t = z_full[-1]
    if t == 0:
        raise LemmaFalsified(f"{who} has zero slack weight")
    return [v / t for v in z_full[:-1]]


def ne_to_lcp(two_sided: LcpInstance, x_full: Vec, y_full: Vec) -> tuple[Vec, Vec]:
    """Divide out the slack strategy weights; verifies the result solves
    the two-sided system."""
    x = _without_slack(x_full, "equilibrium's first strategy")
    y = _without_slack(y_full, "equilibrium's second strategy")
    bad = lcp_violations(two_sided, x + y)
    if bad:
        raise LemmaFalsified("mapped equilibrium violates the LCP: " + bad[0])
    return x, y


def lcp_to_ne(x: Vec, y: Vec) -> tuple[Vec, Vec]:
    """Append the slack strategy and renormalize both sides."""
    return lcp_to_symne(x), lcp_to_symne(y)


def symne_to_lcp(lp: ParamLP, z_full: Vec) -> Vec:
    x = _without_slack(z_full, "symmetric equilibrium")
    bad = lcp_violations(build_direct_lcp(lp), x)
    if bad:
        raise LemmaFalsified("mapped symmetric equilibrium violates the LCP: " + bad[0])
    return x


def lcp_to_symne(x: Vec) -> Vec:
    s = 1 + sum(x)
    return [v / s for v in x] + [Fraction(1) / s]


def game_to_fixed_point(x_full: Vec, meta: GameMeta) -> Vec:
    """Fixed point carried by a first-player (or symmetric) strategy."""
    x = _without_slack(x_full, "strategy")
    return [x[r] for r in meta.output_rows]


# --- JSON wire format ---

def game_to_json(game: BimatrixGame | SymmetricGame) -> dict:
    if isinstance(game, SymmetricGame):
        A, meta = game.S_rows, game.meta
        B = sparse_transpose(A, len(A))
    else:
        A, B, meta = game.A_rows, game.B_rows, game.meta
    n = len(A)
    return {
        "rows": n, "cols": n,
        "A": rows_to_strs(A, n), "B": rows_to_strs(B, n),
        "meta": {
            "m": meta.m, "k": meta.k,
            "c": vec_to_strs(meta.c) if meta.c is not None else None,
            "output_rows": list(meta.output_rows),
            "kind": meta.kind,
        },
    }


def game_from_json(doc: dict) -> BimatrixGame:
    meta = doc["meta"]
    (A, ca), (B, cb) = rows_from_strs(doc["A"]), rows_from_strs(doc["B"])
    shape = (int_from_json(doc["rows"]), int_from_json(doc["cols"]))
    if (len(A), ca) != shape or (len(B), cb) != shape:
        raise ValueError(f"A and B must both be {shape[0]}x{shape[1]} (rows x cols)")
    if shape[0] != shape[1]:
        raise ValueError(f"game is {shape[0]}x{shape[1]}; every game kind is square")
    output_rows = tuple(int_from_json(r) for r in meta["output_rows"])
    if len(set(output_rows)) != len(output_rows):
        # each output row carries its own coordinate of the fixed point
        raise ValueError(f"output rows {list(output_rows)} repeat a row")
    last = shape[0] - 2   # the last strategy is the slack
    if not all(0 <= r <= last for r in output_rows):
        raise ValueError(f"output rows {list(output_rows)} must lie in 0..{last}")
    k = int_from_json(meta["k"])
    if len(output_rows) != k:
        # the rank bound k + 1 is read from meta.k, so it must be the game's own
        raise ValueError(f"meta.k is {k}, but output_rows has {len(output_rows)} entries")
    kind = meta["kind"]
    if kind not in GAME_KINDS:
        raise ValueError(f"meta.kind is {kind!r}, not one of {', '.join(GAME_KINDS)}")
    c = meta.get("c")
    return BimatrixGame(A, B, GameMeta(int_from_json(meta["m"]), k,
                                       None if c is None else vec_from_strs(c),
                                       output_rows, kind))


def lcp_to_json(lcp: LcpInstance) -> dict:
    return {
        "block": lcp.kind,
        "M": rows_to_strs(lcp.M, len(lcp.M)),
        "q": vec_to_strs(lcp.q),
        "m": lcp.lp.m, "k": lcp.lp.k,
        "output_rows": list(lcp.lp.output_rows),
    }
