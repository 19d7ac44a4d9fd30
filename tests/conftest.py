import importlib
import random
from fractions import Fraction as F
from pathlib import Path
from typing import NamedTuple

import pytest

from nashforge import brouwer, compiler, fixp, lcp, lp
from nashforge.exactmath import mat_shape, rank, walk

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    """perfbench's workloads module, read only: the benchmark's modules
    import each other by name from its directory."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


def one_minus_circuit():
    """F(x) = 1 - x, the worked instance used across the suite."""
    b = fixp.Builder(1)
    return b.build([b.one_minus(b.input(0))])


def swap_circuit():
    """F(x1, x2) = (x2, x1); its fixed points form the diagonal."""
    b = fixp.Builder(2)
    return b.build([b.input(1), b.input(0)])


def false_clamp_claim_circuit():
    """Normalized and claiming clamped outputs, but its "clamp pair" (2, 3)
    is max{0, x} and max{0, max{0, x}}, not the clamp gadget: it decodes
    and evaluates, and only its LP (row 1 reads x_0 alone) shows the lie."""
    return fixp.FixpCircuit(
        1, (fixp.Input(0), fixp.Const(F(0)), fixp.Max(1, 0), fixp.Max(1, 2)), (3,),
        normalized=True, clamped=True, clamp_pairs=((2, 3),))


def encode_case(k: int, color: int) -> list[int]:
    """Inverse of brouwer.decode_case for a legal color value."""
    if not 0 <= color <= k:
        raise ValueError(f"color {color} outside 0..{k}")
    bits = []
    for i in range(1, k + 1):
        up = 1 if color == i else 0
        down = 1 if color == 0 else 0
        bits.extend((up, down))
    return bits


def extract_bits_gadget(n: int, L: int) -> fixp.FixpCircuit:
    """The bit extraction compile_brouwer emits, alone: one real input, n outputs."""
    b = fixp.Builder(1)
    bits = compiler._emit_extract_bits(b, b.input(0), n, L)
    return fixp.FixpCircuit(1, tuple(b.gates), tuple(bits))


def simulate_bool(cb: brouwer.BoolCircuit) -> fixp.FixpCircuit:
    """The Boolean simulation compile_brouwer emits, alone: k*n inputs, 2k outputs."""
    b = fixp.Builder(cb.k * cb.n)
    outs = compiler._emit_bool_sim(b, cb, [b.input(i) for i in range(cb.k * cb.n)])
    return fixp.FixpCircuit(cb.k * cb.n, tuple(b.gates), tuple(outs))


def sampled_increment_sum(samples, well_flags, color_fn, grid, poor_increments=None) -> list:
    """Sum of sampled increments: colors decide well samples, the given
    vectors (default zero) stand in for poor ones."""
    k = grid.k
    total = [F(0)] * k
    poor_seen = 0
    for s, well in zip(samples, well_flags):
        if well:
            inc = brouwer.increment(color_fn(compiler.floor_point(s, grid)), k)
        else:
            inc = poor_increments[poor_seen] if poor_increments else [0] * k
            poor_seen += 1
        for i in range(k):
            total[i] += F(inc[i])
    return total


def referee_grid_restriction_violations(cf) -> list:
    """The grid check point by point on the Fraction interpreter: the
    referee of the batched integer evaluation in grid_restriction_violations."""
    bad = []
    for p in cf.grid.points():
        expected = brouwer.discrete_map(cf.source, p)
        got = fixp.evaluate_with_trace(cf.circuit, [F(x) for x in p])[0]
        if got != [F(x) for x in expected]:
            bad.append((p, expected, got))
    return bad


def is_unit_lower_triangular(m) -> bool:
    r, c = mat_shape(m)
    if r != c:
        return False
    for i in range(r):
        if m[i][i] != 1:
            return False
        for j in range(i + 1, c):
            if m[i][j] != 0:
                return False
    return True


# --- the Fraction LP construction and solver, the referees of the integer
# walk in lp.build_constraints and the integer recursion in lp.solve_lp ---

class Affine(NamedTuple):
    """sum_j xs[j] x_j + sum_l lam[l] lam_l + const, over Fractions."""

    xs: dict
    lam: tuple
    const: F


def referee_build_constraints(circ) -> tuple:
    """(A_rows, U, b) of a normalized, clamped circuit, from a gate walk over
    Fraction affine values: add sums them, mulc scales them, and each max
    gate appends its nonzero operand L_i as the row x_i >= L_i and stands
    for x_i."""
    k = circ.k
    no_lam = (F(0),) * k
    rows = []

    def add(a, b):
        xs = dict(a.xs)
        for j, v in b.xs.items():
            xs[j] = xs.get(j, 0) + v
            if not xs[j]:
                del xs[j]
        return Affine(xs, tuple(u + w for u, w in zip(a.lam, b.lam)), a.const + b.const)

    def scale(s, a):
        return Affine({j: s * v for j, v in a.xs.items() if s * v},
                      tuple(s * v for v in a.lam), s * a.const)

    def max_row(g, v):
        rows.append(v[g.b] if circ.gates[g.a] == fixp.ZERO else v[g.a])
        return Affine({len(rows) - 1: F(1)}, no_lam, F(0))

    walk(circ.gates, {
        fixp.Input: lambda g, v: Affine({}, tuple(F(int(l == g.index)) for l in range(k)), F(0)),
        fixp.Const: lambda g, v: Affine({}, no_lam, g.value),
        fixp.Add: lambda g, v: add(v[g.a], v[g.b]),
        fixp.MulC: lambda g, v: scale(g.coeff, v[g.a]),
        fixp.Max: max_row,
    })
    A_rows = [{**{j: -v for j, v in L.xs.items()}, i: F(1)} for i, L in enumerate(rows)]
    return A_rows, [[L.lam[l] for L in rows] for l in range(k)], [L.const for L in rows]


def referee_solve_lp(P, lam) -> list:
    """x_i = max{0, b_i + sum_l lam_l U[l][i] - sum_{j<i} a_ij x_j} over
    Fractions, row after row."""
    x = []
    for i, row in enumerate(P.A_rows):
        acc = P.b[i] + sum((F(v) * u[i] for v, u in zip(lam, P.U)), F(0))
        acc -= sum((v * x[j] for j, v in row.items() if j != i), F(0))
        x.append(max(acc, F(0)))
    return x


# --- dense matrix forms, the referees of the sparse structure checks in
# lcp.py and cli.py ---

def referee_identity(n: int) -> list:
    return [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]


def referee_transpose(m) -> list:
    return [list(col) for col in zip(*m)]


def referee_mat_add(a, b) -> list:
    """a + b, entry by entry; a and b share a shape."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def referee_is_upper_triangular(m) -> bool:
    """m is square and every entry strictly below its diagonal is zero."""
    r, c = mat_shape(m)
    return r == c and all(m[i][j] == 0 for i in range(r) for j in range(i))


# --- dense Fraction products and checkers, the referees of the integer
# checkers in nash.py, lcp.py and lp.py ---

def referee_dot(u, v) -> F:
    return sum((a * b for a, b in zip(u, v)), F(0))


def referee_mat_vec(m, v) -> list:
    return [referee_dot(row, v) for row in m]


def referee_vec_mat(v, m) -> list:
    return referee_mat_vec(referee_transpose(m), v)


def referee_best_response_violations(w, payoffs, name: str) -> list[str]:
    """w is a mixed strategy, and only best responses to `payoffs` carry weight."""
    if any(v < 0 for v in w):
        return [f"{name} weights include a negative one"]
    if sum(w) != 1:
        return [f"{name} weights sum to {sum(w)}, not 1"]
    pi = referee_dot(w, payoffs)
    out = []
    for i, (wi, v) in enumerate(zip(w, payoffs)):
        if v > pi:
            out.append(f"{name} {i} pays {v} > {pi}: profitable deviation")
        if wi * (v - pi) != 0:
            out.append(f"{name} complementarity fails at {i}")
    return out


def referee_ne_violations(A, B, x, y) -> list[str]:
    return (referee_best_response_violations(x, referee_mat_vec(A, y), "row")
            + referee_best_response_violations(y, referee_vec_mat(x, B), "column"))


def referee_symmetric_ne_violations(S, z) -> list[str]:
    return referee_best_response_violations(z, referee_mat_vec(S, z), "strategy")


def referee_kkt_violations(P, lam, x, y) -> list[str]:
    """The KKT conditions of the LP at lam, from the dense view of A."""
    out = []
    rhs = lp.lam_rhs(P, lam)
    A = P.A
    ax = referee_mat_vec(A, x)
    for i in range(P.m):
        if x[i] < 0:
            out.append(f"x_{i} negative")
        if ax[i] < rhs[i]:
            out.append(f"primal row {i} infeasible")
        if y[i] * (ax[i] - rhs[i]) != 0:
            out.append(f"dual complementarity fails at row {i}")
    aty = referee_vec_mat(y, A)
    for i in range(P.m):
        if y[i] < 0:
            out.append(f"y_{i} negative")
        if aty[i] > P.c[i]:
            out.append(f"dual row {i} infeasible")
        if x[i] * (aty[i] - P.c[i]) != 0:
            out.append(f"primal complementarity fails at row {i}")
    return out


def referee_pivot(t, r: int, s: int) -> None:
    """Gauss-Jordan step in place on a Fraction matrix: scale row r so that
    t[r][s] = 1, then clear column s from every other row nonzero there."""
    p = t[r][s]
    row = t[r] = [x / p if x else x for x in t[r]]
    for i, other in enumerate(t):
        f = other[s]
        if f and i != r:
            t[i] = [x - f * y if y else x for x, y in zip(other, row)]


def referee_solve_linear_system(a, b) -> tuple:
    """Solve A x = b over Fractions by Gauss-Jordan elimination.

    Returns ("unique", x), ("none", None) for an inconsistent system, or
    ("many", None) when the solution set is a positive-dimensional affine
    space.  A may be rectangular.
    """
    r, c = mat_shape(a)
    if len(b) != r:
        raise ValueError("dimension mismatch")
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    piv_cols = []
    pr = 0
    for col in range(c):
        piv = next((i for i in range(pr, r) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[pr], aug[piv] = aug[piv], aug[pr]
        referee_pivot(aug, pr, col)
        piv_cols.append(col)
        pr += 1
        if pr == r:
            break
    if any(aug[i][-1] != 0 for i in range(pr, r)):
        return "none", None
    if pr < c:
        return "many", None
    x = [F(0)] * c
    for row_i, col in enumerate(piv_cols):
        x[col] = aug[row_i][-1]
    return "unique", x


def ne_to_symmetrized(x, y, pi1, pi2) -> list:
    """Embed an equilibrium of (A, B) into lcp.symmetrize(A, B).

    x's half weighs pi1 / (pi1 + pi2) and y's half pi2 / (pi1 + pi2), so
    every strategy in either support earns pi1 pi2 / (pi1 + pi2); both
    payoffs must be positive (shift the game first otherwise).
    """
    if pi1 <= 0 or pi2 <= 0:
        raise ValueError("embedding needs strictly positive payoffs")
    alpha, beta = pi1 / (pi1 + pi2), pi2 / (pi1 + pi2)
    return [alpha * v for v in x] + [beta * v for v in y]


def symmetrized_to_ne(z, rows: int) -> tuple[list, list]:
    """Split a symmetric equilibrium of lcp.symmetrize(A, B) back into a
    profile of (A, B); an all-zero half does not split."""
    zx, zy = z[:rows], z[rows:]
    sx, sy = sum(zx), sum(zy)
    if sx == 0 or sy == 0:
        raise ValueError("degenerate split: one half of the strategy is zero")
    return [v / sx for v in zx], [v / sy for v in zy]


# --- dense LCP and game builders, the referees of the sparse ones in lcp.py ---

class DenseSystem(NamedTuple):
    """The cost-scaled matrices H and H' of an LP, dense, beside b and the LP."""

    H: list
    Hp: list
    b: list
    lp: object


def referee_normalize(P) -> DenseSystem:
    """H = A diag(1/c) and Hp = H - sum_l u^l e_{r_l}^T as dense matrices,
    entry by entry from the dense view of A."""
    H = [[a / c for a, c in zip(row, P.c)] for row in P.A]
    Hp = H
    for r, u in zip(P.output_rows, P.U):
        Hp = [[h - ui * (j == r) for j, h in enumerate(row)] for row, ui in zip(Hp, u)]
    return DenseSystem(H, Hp, list(P.b), P)


def referee_direct_matrix(P) -> list:
    """A' = A - sum_l u^l e_{r_l}^T, dense."""
    Ap = P.A
    for r, u in zip(P.output_rows, P.U):
        for row, ui in zip(Ap, u):
            row[r] -= ui
    return Ap


def referee_build_lcp_C(dense) -> tuple[list, list]:
    """(M, q) of the two-sided system [[0, H^T], [-H', 0]] from referee_normalize."""
    m = dense.lp.m
    zero = [F(0)] * m
    M = ([zero + list(col) for col in zip(*dense.H)]
         + [[-v for v in row] + zero for row in dense.Hp])
    return M, [F(1)] * m + [-bi for bi in dense.b]


def referee_build_direct_lcp(P) -> tuple[list, list]:
    return [[-v for v in row] for row in referee_direct_matrix(P)], [-bi for bi in P.b]


def referee_lcp_violations(M, q, z) -> list[str]:
    out = []
    mz = referee_mat_vec(M, z)
    for i in range(len(M)):
        if z[i] < 0:
            out.append(f"z_{i} negative")
        if mz[i] > q[i]:
            out.append(f"row {i} infeasible: (Mz)_{i} > q_{i}")
        if z[i] * (mz[i] - q[i]) != 0:
            out.append(f"complementarity fails at row {i}")
    return out


def referee_build_game(dense) -> tuple:
    """(A, B, meta) of the dense (m+1)-strategy game, certified by the dense
    triangularity test and the Bareiss rank of A + B."""
    P = dense.lp
    m = P.m
    A = [list(col) + [F(0)] for col in zip(*dense.H)] + [[F(0)] * m + [F(1)]]
    B = ([[-v for v in col] + [F(0)] for col in zip(*dense.Hp)]
         + [[bj + 1 for bj in dense.b] + [F(1)]])
    assert referee_is_upper_triangular(A)
    assert rank(referee_mat_add(A, B)) <= P.k + 1
    return A, B, lcp.GameMeta(m, P.k, list(P.c), P.output_rows, "rank_k_plus_1")


def referee_build_symmetric_game(P) -> tuple:
    """(S, meta) of the dense symmetric game."""
    S = ([[-v for v in row] + [bi + 1] for row, bi in zip(referee_direct_matrix(P), P.b)]
         + [[F(0)] * P.m + [F(1)]])
    return S, lcp.GameMeta(P.m, P.k, list(P.c) if P.c else None, P.output_rows, "symmetric")


def sparse_rows(m) -> list[dict]:
    """The sparse rows of a dense matrix."""
    return [{j: v for j, v in enumerate(row) if v} for row in m]


def random_raw_circuit(rng: random.Random, k: int, max_max_gates: int,
                       const_bits: int = 8) -> fixp.FixpCircuit:
    """Random DAG circuit over the full basis with bounded max-gate count."""
    b = fixp.Builder(k)
    refs = [b.input(i) for i in range(k)]
    max_budget = max_max_gates
    bound = 2 ** const_bits - 1
    for _ in range(rng.randint(2, 10)):
        ops = ["const", "add", "mulc"] + (["max"] if max_budget else [])
        op = rng.choice(ops)
        if op == "const":
            refs.append(b.const(F(rng.randint(-bound, bound), rng.randint(1, bound))))
        elif op == "add":
            refs.append(b.add(rng.choice(refs), rng.choice(refs)))
        elif op == "mulc":
            coeff = F(rng.randint(-bound, bound), rng.randint(1, bound))
            refs.append(b.mulc(coeff, rng.choice(refs)))
        else:
            refs.append(b.maxg(rng.choice(refs), rng.choice(refs)))
            max_budget -= 1
    outputs = [rng.choice(refs) for _ in range(k)]
    return b.build(outputs)


def random_lambda(rng: random.Random, k: int, spread: int = 3) -> list:
    """Random rational parameter vectors, inside and outside the unit box."""
    return [F(rng.randint(-spread * 8, spread * 8), rng.randint(1, 8)) for _ in range(k)]


@pytest.fixture
def rng():
    return random.Random(20240817)


class SyntheticTrial:
    """Hand-built sampling configuration: a diagonal sample run crossing
    k cell walls, a color bijection on the visited cells, designated
    "poor" samples absorbing the drift, and the full-grid coloring."""

    def __init__(self, grid, samples, well_flags, chain, color_of, poor_incs):
        self.grid = grid
        self.samples = samples
        self.well_flags = well_flags
        self.chain = chain
        self.color_of = color_of
        self.poor_incs = poor_incs

    def color_fn(self, p):
        return self.color_of.get(tuple(p), 0)


def make_synthetic_trial(rng: random.Random, k: int, exact_zero: bool) -> SyntheticTrial:
    grid = brouwer.Grid(k, 2)
    count = max(16, k ** 4)
    L = 32 if k == 2 else 128
    while True:
        # crossing sample indices, roughly equidistant, spaced >= 2
        crossings = []
        ok = True
        for t in range(1, k + 1):
            m = round(t * count / (k + 1)) + rng.randint(-1, 1)
            if crossings and m - crossings[-1] < 2:
                ok = False
                break
            crossings.append(m)
        if not ok or crossings[0] < 2 or crossings[-1] > count - 2:
            continue
        order = list(range(k))
        rng.shuffle(order)
        base = tuple(rng.randint(0, grid.side - 2) for _ in range(k))
        point = [F(0)] * k
        for t, coord in enumerate(order):
            point[coord] = base[coord] + 1 - F(2 * crossings[t] - 1, 2 * L)
        samples = [[point[i] + F(j, L) for i in range(k)] for j in range(count)]
        chain = [base]
        for coord in order:
            prev = chain[-1]
            chain.append(tuple(v + (1 if i == coord else 0) for i, v in enumerate(prev)))
        colors = list(range(k + 1))
        rng.shuffle(colors)
        color_of = {cell: colors[t] for t, cell in enumerate(chain)}
        poor = {m - 1 for m in crossings}
        flags = [j not in poor for j in range(count)]
        trial = SyntheticTrial(grid, samples, flags, chain, color_of, None)
        well_sum = sampled_increment_sum(
            samples, flags, trial.color_fn, grid)
        if max(abs(v) for v in well_sum) > k:
            continue
        scale = F(1) if exact_zero else F(7, 8)
        trial.poor_incs = [[-v * scale / k for v in well_sum] for _ in range(k)]
        return trial
