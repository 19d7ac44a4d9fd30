"""Parameterized LP that simulates a normalized, clamped circuit.

Write x_i for the value of the i-th max gate (in the canonical order).
Because the other gates are affine, the nontrivial operand of gate i is a
linear expression L_i in x_1..x_{i-1} and the circuit inputs; the gate
means exactly

    x_i >= 0,  x_i >= L_i,  x_i * (x_i - L_i) = 0.

Dropping the complementarity line leaves the linear system
A x >= sum_l lam_l u^l + b with A lower-triangular and unit diagonal.  The
cost vector built here makes the complementarity line hold automatically
at the optimum of

    min c.x  s.t.  A x >= sum_l lam_l u^l + b,  x >= 0,

so solving the LP evaluates the circuit, for every real parameter vector.
The solver below uses the forward recursion x_i = max{0, L_i}, which is
that unique optimum; the explicit dual plus the KKT checker provide the
independent certificate that it is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .exactmath import (
    Mat, Vec, int_from_json, mat_from_strs, mat_to_strs, mat_vec, transpose,
    vec_from_strs, vec_to_strs, zeros_vec,
)
from .fixp import (
    Add, Const, FixpCircuit, Input, MulC, clamp_outputs, normalize_max_zero,
    order_max_gates,
)


@dataclass(frozen=True)
class LinExpr:
    """Affine expression over earlier max-gate variables and the inputs."""

    xs: dict[int, Fraction]       # keyed by max-gate row index
    lam: tuple[Fraction, ...]
    const: Fraction

    @staticmethod
    def zero(k: int) -> "LinExpr":
        return LinExpr({}, (Fraction(0),) * k, Fraction(0))

    @staticmethod
    def parameter(k: int, l: int) -> "LinExpr":
        lam = [Fraction(0)] * k
        lam[l] = Fraction(1)
        return LinExpr({}, tuple(lam), Fraction(0))

    @staticmethod
    def constant(k: int, v: Fraction) -> "LinExpr":
        return LinExpr({}, (Fraction(0),) * k, Fraction(v))

    @staticmethod
    def variable(k: int, row: int) -> "LinExpr":
        return LinExpr({row: Fraction(1)}, (Fraction(0),) * k, Fraction(0))

    def __add__(self, other: "LinExpr") -> "LinExpr":
        xs = dict(self.xs)
        for r, v in other.xs.items():
            xs[r] = xs.get(r, Fraction(0)) + v
        lam = tuple(a + b for a, b in zip(self.lam, other.lam))
        return LinExpr({r: v for r, v in xs.items() if v != 0}, lam, self.const + other.const)

    def scale(self, s: Fraction) -> "LinExpr":
        return LinExpr({r: s * v for r, v in self.xs.items() if s * v != 0},
                       tuple(s * v for v in self.lam), s * self.const)


@dataclass(frozen=True)
class ParamLP:
    """Constraint system A x >= sum_l lam_l U[:,l] + b, with cost data.

    m is the max-gate count, npre = m - 2k the count before clamping; the
    outer clamp gate of output l sits at row output_rows[l] (0-based).
    U is stored as k columns of length m.
    """

    m: int
    k: int
    npre: int
    A: Mat
    b: Vec
    U: list[Vec]
    output_rows: tuple[int, ...]
    c: Vec | None = None
    beta: Vec | None = None


def build_constraints(circ: FixpCircuit) -> ParamLP:
    """Extract (A, b, U) from a normalized, clamped circuit."""
    order = order_max_gates(circ)     # also enforces the normalized/clamped pre
    row_of = {g: i for i, g in enumerate(order)}
    k = circ.k
    m = len(order)
    npre = m - 2 * k

    exprs: list[LinExpr | None] = [None] * len(circ.gates)
    rows_L: list[LinExpr] = [LinExpr.zero(k)] * m
    for idx, g in enumerate(circ.gates):
        if isinstance(g, Input):
            exprs[idx] = LinExpr.parameter(k, g.index)
        elif isinstance(g, Const):
            exprs[idx] = LinExpr.constant(k, g.value)
        elif isinstance(g, Add):
            exprs[idx] = exprs[g.a] + exprs[g.b]
        elif isinstance(g, MulC):
            exprs[idx] = exprs[g.a].scale(g.coeff)
        else:
            a_zero = isinstance(circ.gates[g.a], Const) and circ.gates[g.a].value == 0
            b_zero = isinstance(circ.gates[g.b], Const) and circ.gates[g.b].value == 0
            if not (a_zero or b_zero):
                raise ValueError(f"max gate {idx} has no zero operand; normalize first")
            operand = exprs[g.b] if a_zero else exprs[g.a]
            row = row_of[idx]
            rows_L[row] = operand
            exprs[idx] = LinExpr.variable(k, row)

    A = [[Fraction(0)] * m for _ in range(m)]
    b = zeros_vec(m)
    U = [zeros_vec(m) for _ in range(k)]
    for i in range(m):
        L = rows_L[i]
        A[i][i] = Fraction(1)
        for j, v in L.xs.items():
            if j >= i:
                raise ValueError(f"row {i} references a later max gate {j}")
            A[i][j] = -v
        for l in range(k):
            U[l][i] = L.lam[l]
        b[i] = L.const

    output_rows = tuple(row_of[outer] for _, outer in circ.clamp_pairs)
    lp = ParamLP(m, k, npre, A, b, U, output_rows)
    problems = property_violations(lp)
    if problems:
        raise AssertionError("constructed LP violates structure: " + "; ".join(problems))
    return lp


def property_violations(lp: ParamLP) -> list[str]:
    """Structural facts the construction must deliver.

    Per output l with inner row i = npre+2l and outer row o = i+1
    (0-based): row o reads x_i + x_o >= 1 with no parameter part, and
    column o of A is the unit vector (the outer clamp value feeds
    nothing).  With cost present, c_o = 1 as well.
    """
    out = []
    m, k = lp.m, lp.k
    if lp.output_rows != tuple(lp.npre + 2 * l + 1 for l in range(k)):
        out.append(f"output rows {lp.output_rows} are not the outer clamp rows")
    for i in range(m):
        if lp.A[i][i] != 1:
            out.append(f"diagonal entry {i} is {lp.A[i][i]}, not 1")
        for j in range(i + 1, m):
            if lp.A[i][j] != 0:
                out.append(f"entry ({i},{j}) above the diagonal is nonzero")
    for l in range(k):
        o = lp.npre + 2 * l + 1
        inner = o - 1
        row = lp.A[o]
        if row[inner] != 1 or any(row[j] != 0 for j in range(m) if j not in (inner, o)):
            out.append(f"clamp row {o} is not x_{inner} + x_{o}")
        if lp.b[o] != 1:
            out.append(f"clamp row {o} has threshold {lp.b[o]}, not 1")
        if any(lp.U[lp2][o] != 0 for lp2 in range(k)):
            out.append(f"clamp row {o} carries a parameter coefficient")
        if any(lp.A[i][o] != 0 for i in range(m) if i != o):
            out.append(f"column {o} of A is not the unit vector")
        if lp.c is not None and lp.c[o] != 1:
            out.append(f"cost entry {o} is {lp.c[o]}, not 1")
    if lp.c is not None:
        if lp.c[m - 1] != 1:
            out.append("last cost entry is not 1")
        if any(v < 1 for v in lp.c):
            out.append("cost entries must be >= 1")
    return out


def construct_cost(A: Mat) -> tuple[Vec, Vec]:
    """Backward recurrence for the cost vector c and its bound beta.

    c_m = beta_m = 1;  c_i = sum_{j>i} |a_ji| beta_j + 1;
    beta_i = c_i + sum_{j>i} |a_ji| beta_j.
    """
    m = len(A)
    c = zeros_vec(m)
    beta = zeros_vec(m)
    c[m - 1] = Fraction(1)
    beta[m - 1] = Fraction(1)
    for i in range(m - 2, -1, -1):
        below = sum((abs(A[j][i]) * beta[j] for j in range(i + 1, m)), Fraction(0))
        c[i] = below + 1
        beta[i] = c[i] + below
    return c, beta


def with_cost(lp: ParamLP) -> ParamLP:
    c, beta = construct_cost(lp.A)
    return replace(lp, c=c, beta=beta)


def build_param_lp(circ: FixpCircuit) -> tuple[ParamLP, FixpCircuit]:
    """Clamp, normalize and reduce a raw circuit; returns (LP, prepared circuit)."""
    prepared = circ
    if not prepared.clamped:
        prepared = clamp_outputs(prepared)
    if not prepared.normalized:
        prepared = normalize_max_zero(prepared)
    return with_cost(build_constraints(prepared)), prepared


def lam_rhs(lp: ParamLP, lam: Vec) -> Vec:
    """Right-hand side sum_l lam_l u^l + b."""
    if len(lam) != lp.k:
        raise ValueError(f"expected {lp.k} parameters")
    rhs = list(lp.b)
    for l in range(lp.k):
        for i in range(lp.m):
            rhs[i] += Fraction(lam[l]) * lp.U[l][i]
    return rhs


def solve_lp(lp: ParamLP, lam: Vec) -> Vec:
    """The unique optimum, by the forward recursion x_i = max{0, L_i}."""
    rhs = lam_rhs(lp, lam)
    x = zeros_vec(lp.m)
    for i in range(lp.m):
        acc = rhs[i]
        for j in range(i):
            if lp.A[i][j] != 0:
                acc -= lp.A[i][j] * x[j]
        x[i] = acc if acc > 0 else Fraction(0)
    return x


def construct_dual(lp: ParamLP, lam: Vec, x: Vec) -> Vec:
    """Complementary dual: y_r = 0 when x_r = 0, else the tightening value."""
    if lp.c is None:
        raise ValueError("cost vector missing; call with_cost first")
    y = zeros_vec(lp.m)
    for r in range(lp.m - 1, -1, -1):
        if x[r] == 0:
            continue
        acc = lp.c[r]
        for j in range(r + 1, lp.m):
            acc -= lp.A[j][r] * y[j]
        y[r] = acc
    return y


def kkt_violations(lp: ParamLP, lam: Vec, x: Vec, y: Vec) -> list[str]:
    """Exact primal/dual feasibility plus both complementarity families."""
    if lp.c is None:
        raise ValueError("cost vector missing; call with_cost first")
    out = []
    rhs = lam_rhs(lp, lam)
    ax = mat_vec(lp.A, x)
    for i in range(lp.m):
        if x[i] < 0:
            out.append(f"x_{i} negative")
        if ax[i] < rhs[i]:
            out.append(f"primal row {i} infeasible")
        if y[i] * (ax[i] - rhs[i]) != 0:
            out.append(f"dual complementarity fails at row {i}")
    aty = mat_vec(transpose(lp.A), y)
    for i in range(lp.m):
        if y[i] < 0:
            out.append(f"y_{i} negative")
        if aty[i] > lp.c[i]:
            out.append(f"dual row {i} infeasible")
        if x[i] * (aty[i] - lp.c[i]) != 0:
            out.append(f"primal complementarity fails at row {i}")
    return out


def check_kkt(lp: ParamLP, lam: Vec, x: Vec, y: Vec) -> bool:
    return not kkt_violations(lp, lam, x, y)


def eval_flp(lp: ParamLP, lam: Vec) -> Vec:
    """Output rows of the LP solution; lands in [0,1]^k for every lam."""
    x = solve_lp(lp, lam)
    return [x[r] for r in lp.output_rows]


# --- JSON wire format ---

def lp_to_json(lp: ParamLP) -> dict:
    doc = {
        "m": lp.m, "k": lp.k, "n": lp.npre,
        "A": mat_to_strs(lp.A),
        "b": vec_to_strs(lp.b),
        "U": [vec_to_strs(col) for col in lp.U],
        "output_rows": list(lp.output_rows),
    }
    if lp.c is not None:
        doc["c"] = vec_to_strs(lp.c)
        doc["beta"] = vec_to_strs(lp.beta)
    return doc


def lp_from_json(doc: dict) -> ParamLP:
    return ParamLP(
        int_from_json(doc["m"]), int_from_json(doc["k"]), int_from_json(doc["n"]),
        mat_from_strs(doc["A"]), vec_from_strs(doc["b"]),
        [vec_from_strs(col) for col in doc["U"]],
        tuple(int_from_json(r) for r in doc["output_rows"]),
        vec_from_strs(doc["c"]) if "c" in doc else None,
        vec_from_strs(doc["beta"]) if "beta" in doc else None,
    )
