"""LCP formulations of the parameterized LP and the games built from them.

Scaling column j of the constraint matrix by 1/c_j turns the cost into the
all-ones vector; substituting the output variables for the parameters then
eliminates the parameters entirely and leaves a linear complementarity
problem whose solutions carry exactly the circuit's fixed points.  Two
routes are implemented and cross-checked:

* via the LP and its dual: the two-sided system with matrix
  [[0, H^T], [-H', 0]], paired with the (m+1)-strategy game
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

from .exactmath import (
    Mat, Vec, identity, int_from_json, is_upper_triangular, mat_from_strs, mat_shape,
    mat_to_strs, mat_vec, transpose, vec_add, vec_from_strs, vec_to_strs,
)
from .lp import ParamLP


class LemmaFalsified(Exception):
    """A condition the construction proves in general failed on a concrete
    instance; always an implementation bug, never a data condition."""


@dataclass(frozen=True)
class NormalizedSystem:
    """Cost-scaled constraints: H = A diag(1/c), Hp = H - sum_l u^l e_{r_l}^T."""

    H: Mat
    Hp: Mat
    b: Vec
    lp: ParamLP


def normalize(lp: ParamLP) -> NormalizedSystem:
    if lp.c is None:
        raise ValueError("cost vector missing; call with_cost first")
    for r in lp.output_rows:
        if lp.c[r] != 1:
            raise LemmaFalsified(
                f"cost at output row {r} is {lp.c[r]}, not 1; upstream construction bug")
    # c_r = 1 at every output row r, so scaling the columns of
    # A' = A - sum_l u^l e_{r_l}^T gives Hp with no separate subtraction
    ns = NormalizedSystem(_scale_columns(lp.A, lp.c), _scale_columns(direct_matrix(lp), lp.c),
                          list(lp.b), lp)
    _assert_scaled_structure(ns)
    return ns


def _scale_columns(M: Mat, c: Vec) -> Mat:
    """M diag(1/c); zero entries, nearly all of them, are kept as they are."""
    return [[v / cj if v else v for v, cj in zip(row, c)] for row in M]


def _negated(row) -> Vec:
    """-row, keeping the zero entries as they are."""
    return [-v if v else v for v in row]


def _assert_scaled_structure(ns: NormalizedSystem):
    # Column of H at each output row stays the unit vector, so the dual
    # constraint there reads y_row <= 1; the primal row reads
    # x_inner/c_inner + x_row >= 1.
    lp = ns.lp
    for r in lp.output_rows:
        col = [ns.H[i][r] for i in range(lp.m)]
        unit = [Fraction(1 if i == r else 0) for i in range(lp.m)]
        if col != unit:
            raise LemmaFalsified(f"H column {r} is not the unit vector")
        inner = r - 1
        expect = [Fraction(0)] * lp.m
        expect[inner] = 1 / lp.c[inner]
        expect[r] = Fraction(1)
        if ns.Hp[r] != expect:
            raise LemmaFalsified(f"scaled clamp row {r} has unexpected shape")


def scale_solution(lp: ParamLP, x: Vec) -> Vec:
    """x'_j = x_j * c_j, the change of variables matching the scaling."""
    if lp.c is None:
        raise ValueError("cost vector missing")
    if len(x) != lp.m:
        raise ValueError("dimension mismatch")
    return [xi * ci for xi, ci in zip(x, lp.c)]


@dataclass(frozen=True)
class LcpInstance:
    """Conditions z >= 0, M z <= q, z_i (M z - q)_i = 0, componentwise."""

    kind: str                     # "lcp_c" | "direct" | "generic"
    M: Mat
    q: Vec
    m: int
    k: int
    output_rows: tuple[int, ...]


def build_lcp_C(ns: NormalizedSystem) -> LcpInstance:
    """Two-sided system on z = (x, y): H'x >= b, H^T y <= 1, complementary."""
    lp = ns.lp
    zero = [Fraction(0)] * lp.m
    M = ([zero + list(col) for col in zip(*ns.H)]
         + [_negated(row) + zero for row in ns.Hp])
    q = [Fraction(1)] * lp.m + [-bi for bi in ns.b]
    return LcpInstance("lcp_c", M, q, lp.m, lp.k, lp.output_rows)


def direct_matrix(lp: ParamLP) -> Mat:
    """A' = A - sum_l u^l e_{r_l}^T, r_l the output rows."""
    Ap = lp.A                 # a fresh dense view, free to change in place
    for r, u in zip(lp.output_rows, lp.U):
        for row, ui in zip(Ap, u):
            row[r] -= ui
    return Ap


def build_direct_lcp(lp: ParamLP) -> LcpInstance:
    """One-sided system on x alone: x >= 0, A'x >= b, complementary."""
    Ap = direct_matrix(lp)
    M = [_negated(row) for row in Ap]
    q = [-bi for bi in lp.b]
    return LcpInstance("direct", M, q, lp.m, lp.k, lp.output_rows)


def lcp_violations(lcp: LcpInstance, z: Vec) -> list[str]:
    n = len(lcp.M)
    if len(z) != n:
        raise ValueError(f"expected solution of length {n}")
    out = []
    mz = mat_vec(lcp.M, z)
    for i in range(n):
        if z[i] < 0:
            out.append(f"z_{i} negative")
        if mz[i] > lcp.q[i]:
            out.append(f"row {i} infeasible: (Mz)_{i} > q_{i}")
        if z[i] * (mz[i] - lcp.q[i]) != 0:
            out.append(f"complementarity fails at row {i}")
    return out


def semimonotone_witness(ns: NormalizedSystem, z: Vec, q: Vec) -> str:
    """Name a violated LCP condition for nonzero z >= 0 against q > 0.

    The block matrix of the two-sided system admits only the zero solution
    when q is strictly positive, so some condition must fail; finding none
    is a construction-bug alarm.
    """
    lcp = build_lcp_C(ns)
    n = len(lcp.M)
    if len(z) != n or len(q) != n:
        raise ValueError(f"expected vectors of length {n}")
    if any(zi < 0 for zi in z) or all(zi == 0 for zi in z):
        raise ValueError("z must be nonnegative and nonzero")
    if any(qi <= 0 for qi in q):
        raise ValueError("q must be strictly positive")
    mz = mat_vec(lcp.M, z)
    for i in range(n):
        if mz[i] > q[i]:
            return f"row {i} infeasible: (Mz)_{i} = {mz[i]} > q_{i} = {q[i]}"
    for i in range(n):
        if z[i] * (mz[i] - q[i]) != 0:
            return f"complementarity fails at row {i}: z_{i} = {z[i]}, slack {mz[i] - q[i]}"
    raise LemmaFalsified("nonzero z solves the LCP against positive q")


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
    A: Mat
    B: Mat
    meta: GameMeta


@dataclass(frozen=True)
class SymmetricGame:
    S: Mat
    meta: GameMeta


def build_game(ns: NormalizedSystem) -> BimatrixGame:
    """The (m+1)-strategy game whose equilibria carry the LCP solutions.

    Certifies that A is upper-triangular and that A + B has the shape
    which bounds its rank by k+1 (see `_certify_payoff_sum`)."""
    lp = ns.lp
    m = lp.m
    zero, one = Fraction(0), Fraction(1)
    A = [list(col) + [zero] for col in zip(*ns.H)] + [[zero] * m + [one]]
    B = ([_negated(col) + [zero] for col in zip(*ns.Hp)]
         + [[bj + 1 for bj in ns.b] + [one]])
    if not is_upper_triangular(A):
        raise LemmaFalsified("first payoff matrix is not upper-triangular")
    _certify_payoff_sum(A, B, lp)
    return BimatrixGame(A, B, GameMeta(m, lp.k, list(lp.c), lp.output_rows, "rank_k_plus_1"))


def _certify_payoff_sum(A: Mat, B: Mat, lp: ParamLP):
    """Check A + B = [[sum_l e_{r_l} u^l^T, 0], [b^T + 1^T, 2]] exactly.

    That matrix is zero outside the k output rows and the slack row, so
    rank(A + B) <= k + 1 follows without an elimination."""
    zero = [Fraction(0)] * (lp.m + 1)
    want = {}
    for r, u in zip(lp.output_rows, lp.U):
        want[r] = vec_add(want.get(r, zero), u + [Fraction(0)])
    want[lp.m] = [bj + 1 for bj in lp.b] + [Fraction(2)]
    for i, (ra, rb) in enumerate(zip(A, B)):
        expect = want.get(i)
        if expect is None:
            # a row the construction leaves zero: skip the pairs of zeros
            bad = any(a + b for a, b in zip(ra, rb) if a or b)
        else:
            bad = vec_add(ra, rb) != expect
        if bad:
            raise LemmaFalsified(
                f"row {i} of A + B differs from [[sum_l e_r u^l^T, 0], [b^T + 1^T, 2]];"
                f" rank(A + B) <= {lp.k + 1} is not certified")


def payoff_sum_rows(game: BimatrixGame) -> Mat:
    """The rows of A + B at the output rows and the slack row.

    `build_game` certifies that every other row is zero, so these at most
    k+1 rows have the rank of A + B."""
    return [vec_add(game.A[i], game.B[i]) for i in (*game.meta.output_rows, game.meta.m)]


def build_symmetric_game(lp: ParamLP) -> SymmetricGame:
    """S = [[-A', b+1], [0^T, 1]]; symmetric equilibria carry the direct LCP."""
    S = ([_negated(row) + [bi + 1] for row, bi in zip(direct_matrix(lp), lp.b)]
         + [[Fraction(0)] * lp.m + [Fraction(1)]])
    return SymmetricGame(S, GameMeta(lp.m, lp.k, list(lp.c) if lp.c else None,
                                     lp.output_rows, "symmetric"))


def symmetrize(A: Mat, B: Mat) -> SymmetricGame:
    """Block symmetrization [[0, A], [B^T, 0]].

    The payoff sum of the result has twice the rank of A + B.  The
    classical equilibrium correspondence additionally needs positive
    payoffs; splits with an all-zero half do not map back.
    """
    ra, ca = mat_shape(A)
    if mat_shape(B) != (ra, ca):
        raise ValueError("payoff matrices must share a shape")
    S = ([[Fraction(0)] * ra + row for row in A]
         + [list(col) + [Fraction(0)] * ca for col in zip(*B)])
    return SymmetricGame(S, GameMeta(ra, 0, None, (), "symmetric"))


def imitation_game(S: SymmetricGame) -> BimatrixGame:
    """The game (S, I): its second-player equilibrium strategies are the
    symmetric equilibria of (S, S^T)."""
    r, c = mat_shape(S.S)
    if r != c:
        raise ValueError("matrix must be square")
    return BimatrixGame([row[:] for row in S.S], identity(r), replace(S.meta, kind="imitation"))


# --- equilibrium <-> LCP <-> fixed point mappings ------------------------

def ne_to_lcp(ns: NormalizedSystem, x_full: Vec, y_full: Vec) -> tuple[Vec, Vec]:
    """Divide out the slack strategy weights; verifies the result solves
    the two-sided system.  Zero slack weight is a falsification alarm."""
    s, t = x_full[-1], y_full[-1]
    if s == 0 or t == 0:
        raise LemmaFalsified(f"equilibrium has slack weights s={s}, t={t}; both must be positive")
    x = [v / s for v in x_full[:-1]]
    y = [v / t for v in y_full[:-1]]
    bad = lcp_violations(build_lcp_C(ns), x + y)
    if bad:
        raise LemmaFalsified("mapped equilibrium violates the LCP: " + bad[0])
    return x, y


def lcp_to_ne(x: Vec, y: Vec) -> tuple[Vec, Vec]:
    """Append the slack strategy and renormalize both sides."""
    sx = 1 + sum(x)
    sy = 1 + sum(y)
    return ([v / sx for v in x] + [Fraction(1) / sx],
            [v / sy for v in y] + [Fraction(1) / sy])


def symne_to_lcp(lp: ParamLP, z_full: Vec) -> Vec:
    t = z_full[-1]
    if t == 0:
        raise LemmaFalsified("symmetric equilibrium has zero slack weight")
    x = [v / t for v in z_full[:-1]]
    bad = lcp_violations(build_direct_lcp(lp), x)
    if bad:
        raise LemmaFalsified("mapped symmetric equilibrium violates the LCP: " + bad[0])
    return x


def lcp_to_symne(x: Vec) -> Vec:
    s = 1 + sum(x)
    return [v / s for v in x] + [Fraction(1) / s]


def game_to_fixed_point(x_full: Vec, meta: GameMeta) -> Vec:
    """Fixed point carried by a first-player (or symmetric) strategy."""
    s = x_full[-1]
    if s == 0:
        raise LemmaFalsified("strategy puts no weight on the slack row")
    return [x_full[r] / s for r in meta.output_rows]


# --- JSON wire format ---

def game_to_json(game: BimatrixGame | SymmetricGame) -> dict:
    if isinstance(game, SymmetricGame):
        A, B, meta = game.S, transpose(game.S), game.meta
    else:
        A, B, meta = game.A, game.B, game.meta
    r, c = mat_shape(A)
    return {
        "rows": r, "cols": c,
        "A": mat_to_strs(A), "B": mat_to_strs(B),
        "meta": {
            "m": meta.m, "k": meta.k,
            "c": vec_to_strs(meta.c) if meta.c is not None else None,
            "output_rows": list(meta.output_rows),
            "kind": meta.kind,
        },
    }


def game_from_json(doc: dict) -> BimatrixGame:
    meta = doc["meta"]
    A, B = mat_from_strs(doc["A"]), mat_from_strs(doc["B"])
    shape = (int_from_json(doc["rows"]), int_from_json(doc["cols"]))
    if mat_shape(A) != shape or mat_shape(B) != shape:
        raise ValueError(f"A and B must both be {shape[0]}x{shape[1]} (rows x cols)")
    output_rows = tuple(int_from_json(r) for r in meta["output_rows"])
    last = min(shape) - 2     # the last strategy is the slack
    if not all(0 <= r <= last for r in output_rows):
        raise ValueError(f"output rows {list(output_rows)} must lie in 0..{last}")
    k = int_from_json(meta["k"])
    if len(output_rows) != k:
        # the rank bound k + 1 is read from meta.k, so it must be the game's own
        raise ValueError(f"meta.k is {k}, but output_rows has {len(output_rows)} entries")
    kind = meta["kind"]
    if kind not in GAME_KINDS:
        raise ValueError(f"meta.kind is {kind!r}, not one of {', '.join(GAME_KINDS)}")
    return BimatrixGame(A, B, GameMeta(int_from_json(meta["m"]), k,
                                       vec_from_strs(meta["c"]) if meta.get("c") else None,
                                       output_rows, kind))


def lcp_to_json(lcp: LcpInstance) -> dict:
    return {
        "block": lcp.kind,
        "M": mat_to_strs(lcp.M),
        "q": vec_to_strs(lcp.q),
        "m": lcp.m, "k": lcp.k,
        "output_rows": list(lcp.output_rows),
    }

