"""Parameterized LP that simulates a normalized, clamped circuit.

Write x_i for the value of the i-th max gate (in the canonical order).
Because the other gates are affine, the nontrivial operand of gate i is a
linear expression L_i in x_1..x_{i-1} and the circuit inputs; the gate
means exactly

    x_i >= 0,  x_i >= L_i,  x_i * (x_i - L_i) = 0.

Dropping the complementarity line leaves the linear system
A x >= sum_l lam_l u^l + b with A lower-triangular and unit diagonal.  It
is stored as its sparse rows x_i >= L_i; A, b and U are dense views, and
A_rows is A in the sparse row form that the LCP layer and the JSON writer
read.  The cost vector built here makes the complementarity line hold
automatically at the optimum of

    min c.x  s.t.  A x >= sum_l lam_l u^l + b,  x >= 0,

so solving the LP evaluates the circuit, for every real parameter vector.
The solver below uses the forward recursion x_i = max{0, L_i}, which is
that unique optimum; the explicit dual plus the KKT checker provide the
independent certificate that it is.

The rows come from one walk over the gates on integers: a gate's value
is one denominator and the integer numerators of its row, parameter and
constant terms.  The solver reads the rows with their denominators
cleared, kept on the LP after its first call, and builds a Fraction per
entry of its result only.  Cost, dual and KKT checker stay on Fractions,
so the certificate shares no arithmetic with the solver it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .exactmath import (
    Mat, Row, Vec, densify, exact_vec, int_vec, row_add, rows_to_strs, vec_to_strs, walk,
    zeros_vec,
)
from .fixp import (
    ZERO, Add, Const, FixpCircuit, Input, Max, MulC, clamp_outputs, normalize_max_zero,
    order_max_gates,
)


@dataclass(frozen=True)
class LinExpr:
    """Affine expression over earlier max-gate variables and the inputs."""

    xs: dict[int, Fraction]       # keyed by max-gate row index
    lam: tuple[Fraction, ...]
    const: Fraction


@dataclass(frozen=True)
class ParamLP:
    """Constraint rows x_i >= L_i, i.e. A x >= sum_l lam_l U[:,l] + b, with cost data.

    m is the max-gate count, npre = m - 2k the count before clamping; the
    outer clamp gate of output l sits at row output_rows[l] (0-based).
    rows[i] is L_i, affine in x_0..x_{i-1} and the parameters.  A_rows, A,
    b and U (k columns of length m) are built from the rows on each access;
    the rows with their denominators cleared are built once, on first use
    by solve_lp, and kept on this LP (a `replace`d LP builds its own).
    """

    m: int
    k: int
    npre: int
    rows: tuple[LinExpr, ...]
    output_rows: tuple[int, ...]
    c: Vec | None = None
    beta: Vec | None = None

    @property
    def A_rows(self) -> list[Row]:
        """A as sparse rows: row i is e_i minus the x-coefficients of L_i."""
        return [{**{j: -v for j, v in L.xs.items()}, i: Fraction(1)}
                for i, L in enumerate(self.rows)]

    @property
    def A(self) -> Mat:
        """Dense A, for the KKT referee and the benchmark."""
        return densify(self.A_rows, self.m)

    @property
    def b(self) -> Vec:
        return [L.const for L in self.rows]

    @property
    def U(self) -> list[Vec]:
        return [[L.lam[l] for L in self.rows] for l in range(self.k)]

    @cached_property
    def _int_rows(self) -> list[tuple[list[int], list[int], list[int], int, int]]:
        """Each row L_i as its columns, then its x-coefficients, parameter
        coefficients and constant times their lcm l, then l."""
        out = []
        for L in self.rows:
            nums, l = int_vec([*L.xs.values(), *L.lam, L.const])
            n = len(L.xs)
            out.append((list(L.xs), nums[:n], nums[n:-1], nums[-1], l))
        return out


def _times(a: dict, f: int) -> dict:
    return a if f == 1 else {j: n * f for j, n in a.items()}


def _affine_sum(va, vb):
    """The sum of two affine values (D, {key: numerator}), over lcm(D_a, D_b)."""
    (da, a), (db, b) = va, vb
    if da == db:
        return da, row_add(a, b)
    d = lcm(da, db)
    return d, row_add(_times(a, d // da), _times(b, d // db))


def _affine_scale(q: Fraction, va):
    """q times an affine value, with the gcd of the result divided out."""
    d, a = va
    if not q or not a:
        return 1, {}
    d *= q.denominator
    a = _times(a, q.numerator)
    g = gcd(d, *a.values())
    return d // g, {j: n // g for j, n in a.items()} if g > 1 else a


def build_constraints(circ: FixpCircuit) -> ParamLP:
    """Extract the rows x_i >= L_i from a normalized, clamped circuit.

    Each gate's value is affine in the rows x_j (key j < m), the
    parameters lam_l (key m + l) and the constant 1 (key m + k), held as
    one denominator D and its integer numerators, no zero stored.  Only
    integers move inside the walk; Fractions are built for the m rows the
    max gates append.
    """
    order = order_max_gates(circ)     # also enforces the normalized/clamped pre
    k = circ.k
    m = len(order)
    npre = m - 2 * k
    one = m + k
    rows_L: list[LinExpr] = []

    def max_row(g: Max, v):
        a_zero = circ.gates[g.a] == ZERO
        if not (a_zero or circ.gates[g.b] == ZERO):
            raise ValueError(f"max gate {len(v)} has no zero operand; normalize first")
        d, nums = v[g.b] if a_zero else v[g.a]
        rows_L.append(LinExpr({j: Fraction(n, d) for j, n in nums.items() if j < m},
                              tuple(Fraction(nums.get(m + l, 0), d) for l in range(k)),
                              Fraction(nums.get(one, 0), d)))
        return 1, {len(rows_L) - 1: 1}     # max gates arrive in row order

    walk(circ.gates, {
        Input: lambda g, v: (1, {m + g.index: 1}),
        Const: lambda g, v: (g.value.denominator, {one: g.value.numerator} if g.value else {}),
        Add: lambda g, v: _affine_sum(v[g.a], v[g.b]),
        MulC: lambda g, v: _affine_scale(g.coeff, v[g.a]),
        Max: max_row,
    })

    output_rows = tuple(order.index(outer) for _, outer in circ.clamp_pairs)
    lp = ParamLP(m, k, npre, tuple(rows_L), output_rows)
    problems = property_violations(lp)
    if problems:
        raise AssertionError("constructed LP violates structure: " + "; ".join(problems))
    return lp


def property_violations(lp: ParamLP) -> list[str]:
    """Structural facts the construction must deliver.

    Every row reads only earlier rows, so A is unit lower-triangular.  Per
    output l with inner row i = npre+2l and outer row o = i+1 (0-based):
    row o reads x_i + x_o >= 1 with no parameter part, and column o of A
    is the unit vector (the outer clamp value feeds nothing).  With cost
    present, c_o = 1 as well.
    """
    out = []
    m, k = lp.m, lp.k
    if lp.output_rows != tuple(lp.npre + 2 * l + 1 for l in range(k)):
        out.append(f"output rows {lp.output_rows} are not the outer clamp rows")
    for i, L in enumerate(lp.rows):
        for j in L.xs:
            if j >= i:
                out.append(f"row {i} reads x_{j}, not an earlier row")
    read = set().union(*(L.xs for L in lp.rows))
    for l in range(k):
        o = lp.npre + 2 * l + 1
        inner = o - 1
        L = lp.rows[o]
        if L.xs != {inner: -1}:
            out.append(f"clamp row {o} is not x_{inner} + x_{o}")
        if L.const != 1:
            out.append(f"clamp row {o} has threshold {L.const}, not 1")
        if any(L.lam):
            out.append(f"clamp row {o} carries a parameter coefficient")
        if o in read:
            out.append(f"column {o} of A is not the unit vector")
        if lp.c is not None and lp.c[o] != 1:
            out.append(f"cost entry {o} is {lp.c[o]}, not 1")
    if lp.c is not None:
        if lp.c[m - 1] != 1:
            out.append("last cost entry is not 1")
        if any(v < 1 for v in lp.c):
            out.append("cost entries must be >= 1")
    return out


def construct_cost(rows: tuple[LinExpr, ...]) -> tuple[Vec, Vec]:
    """Backward recurrence for the cost vector c and its bound beta.

    c_m = beta_m = 1;  c_i = sum_{j>i} |a_ji| beta_j + 1;
    beta_i = c_i + sum_{j>i} |a_ji| beta_j.  The sums are pushed down from
    each row j once beta_j is known, so the cost is O(nnz).
    """
    m = len(rows)
    c = zeros_vec(m)
    beta = zeros_vec(m)
    below = zeros_vec(m)      # sum_{j>i} |a_ji| beta_j over the rows j done so far
    for i in range(m - 1, -1, -1):
        c[i] = below[i] + 1
        beta[i] = c[i] + below[i]
        for j, v in rows[i].xs.items():
            below[j] += abs(v) * beta[i]
    return c, beta


def with_cost(lp: ParamLP) -> ParamLP:
    c, beta = construct_cost(lp.rows)
    return replace(lp, c=c, beta=beta)


def build_param_lp(circ: FixpCircuit) -> tuple[ParamLP, FixpCircuit]:
    """Clamp, normalize and reduce a raw circuit; returns (LP, prepared circuit).

    A circuit that arrives clamped names its own clamp pairs, so an LP
    that then violates the structure is bad input (ValueError); on a
    circuit clamped here it stays a construction fault (AssertionError).
    """
    prepared = circ if circ.clamped else clamp_outputs(circ)
    if not prepared.normalized:
        prepared = normalize_max_zero(prepared)
    try:
        lp = build_constraints(prepared)
    except AssertionError as exc:
        if not circ.clamped:
            raise
        raise ValueError(f"circuit claims clamped outputs, but its {exc}") from None
    return with_cost(lp), prepared


def _parameters(lp: ParamLP, lam) -> Vec:
    if len(lam) != lp.k:
        raise ValueError(f"expected {lp.k} parameters")
    return exact_vec(lam)


def lam_rhs(lp: ParamLP, lam: Vec) -> Vec:
    """Right-hand side sum_l lam_l u^l + b."""
    lam = _parameters(lp, lam)
    return [sum(map(mul, lam, L.lam), L.const) for L in lp.rows]


def solve_lp(lp: ParamLP, lam: Vec) -> Vec:
    """The unique optimum, by the forward recursion x_i = max{0, L_i}.

    The recursion runs on the cleared rows: lam is put over one
    denominator, and each x_i is held as a numerator over its own reduced
    denominator, so a Fraction is built per output entry only.
    """
    lam_nums, dl = int_vec(_parameters(lp, lam))
    X: list[int] = []         # x_i = X[i] / dx[i], in lowest terms
    dx: list[int] = []
    for cols, xs, us, c, l in lp._int_rows:
        # l L_i = sum_j xs_j X_j / dx_j + sum_l us_l Lam_l / dl + c, and acc
        # is that times d, a common multiple of dl and of every dx_j read
        d = dl
        for j in cols:
            if X[j] and d % dx[j]:
                d = lcm(d, dx[j])
        acc = (sum(map(mul, us, lam_nums)) + c * dl) * (d // dl)
        for j, a in zip(cols, xs):
            if X[j]:
                acc += a * X[j] * (d // dx[j])
        if acc > 0:
            d *= l
            g = gcd(acc, d)
            X.append(acc // g)
            dx.append(d // g)
        else:
            X.append(0)
            dx.append(1)
    return [Fraction(n, d) for n, d in zip(X, dx)]


def construct_dual(lp: ParamLP, lam: Vec, x: Vec) -> Vec:
    """Complementary dual: y_r = 0 when x_r = 0, else the tightening value
    y_r = c_r - sum_{j>r} a_jr y_j, the sum pushed down from each row j
    once y_j is known."""
    if lp.c is None:
        raise ValueError("cost vector missing; call with_cost first")
    y = zeros_vec(lp.m)
    below = zeros_vec(lp.m)   # -sum_{j>r} a_jr y_j over the rows j done so far
    for r in range(lp.m - 1, -1, -1):
        if x[r] == 0:
            continue
        y[r] = lp.c[r] + below[r]
        for j, v in lp.rows[r].xs.items():
            below[j] += v * y[r]
    return y


def kkt_violations(lp: ParamLP, lam: Vec, x: Vec, y: Vec) -> list[str]:
    """Exact primal/dual feasibility plus both complementarity families;
    Ax and A^T y are taken over the sparse rows of A."""
    if lp.c is None:
        raise ValueError("cost vector missing; call with_cost first")
    if len(x) != lp.m or len(y) != lp.m:
        raise ValueError("dimension mismatch")
    out = []
    rhs = lam_rhs(lp, lam)
    rows = lp.A_rows
    ax = [sum((v * x[j] for j, v in row.items()), Fraction(0)) for row in rows]
    aty = zeros_vec(lp.m)
    for row, yi in zip(rows, y):
        if yi:
            for j, v in row.items():
                aty[j] += v * yi
    for i in range(lp.m):
        if x[i] < 0:
            out.append(f"x_{i} negative")
        if ax[i] < rhs[i]:
            out.append(f"primal row {i} infeasible")
        if y[i] * (ax[i] - rhs[i]) != 0:
            out.append(f"dual complementarity fails at row {i}")
    for i in range(lp.m):
        if y[i] < 0:
            out.append(f"y_{i} negative")
        if aty[i] > lp.c[i]:
            out.append(f"dual row {i} infeasible")
        if x[i] * (aty[i] - lp.c[i]) != 0:
            out.append(f"primal complementarity fails at row {i}")
    return out


# --- JSON wire format ---

def lp_to_json(lp: ParamLP) -> dict:
    doc = {
        "m": lp.m, "k": lp.k, "n": lp.npre,
        "A": rows_to_strs(lp.A_rows, lp.m),
        "b": vec_to_strs(lp.b),
        "U": [vec_to_strs(col) for col in lp.U],
        "output_rows": list(lp.output_rows),
    }
    if lp.c is not None:
        doc["c"] = vec_to_strs(lp.c)
        doc["beta"] = vec_to_strs(lp.beta)
    return doc

