import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashforge import brouwer, compiler, fixp, lp
from nashforge.fixp import clamp_outputs, evaluate_with_trace, normalize_max_zero, order_max_gates
from nashforge.lp import (
    LinExpr, build_constraints, build_param_lp, construct_cost, construct_dual,
    kkt_violations, lam_rhs, lp_to_json, property_violations, solve_lp,
)

from conftest import (
    false_clamp_claim_circuit, is_unit_lower_triangular, one_minus_circuit, random_lambda,
    random_raw_circuit, referee_build_constraints, referee_kkt_violations, referee_solve_lp,
    swap_circuit,
)
from test_fixp import raw_builder_circuits


def frac_mat(rows):
    return [[F(v) for v in row] for row in rows]


def rows_of(A):
    """The rows x_i >= L_i of a unit lower-triangular A (no parameters, b = 0)."""
    return tuple(LinExpr({j: -v for j, v in enumerate(row[:i]) if v}, (), F(0))
                 for i, row in enumerate(A))


# --- dense referees: the recurrences over all m^2 entries of A ---

def dense_cost(A):
    m = len(A)
    c = [F(0)] * m
    beta = [F(0)] * m
    c[m - 1] = beta[m - 1] = F(1)
    for i in range(m - 2, -1, -1):
        below = sum((abs(A[j][i]) * beta[j] for j in range(i + 1, m)), F(0))
        c[i] = below + 1
        beta[i] = c[i] + below
    return c, beta


def dense_solve(A, rhs):
    """Forward substitution x_i = max{0, rhs_i - sum_{j<i} a_ij x_j}."""
    x = []
    for i, row in enumerate(A):
        acc = rhs[i] - sum((row[j] * x[j] for j in range(i)), F(0))
        x.append(max(acc, F(0)))
    return x


def dense_dual(A, c, x):
    """Backward substitution y_r = c_r - sum_{j>r} a_jr y_j where x_r > 0, else 0."""
    m = len(A)
    y = [F(0)] * m
    for r in range(m - 1, -1, -1):
        if x[r] != 0:
            y[r] = c[r] - sum((A[j][r] * y[j] for j in range(r + 1, m)), F(0))
    return y


@pytest.fixture(scope="module")
def worked():
    """F(x) = 1 - x reduced: A=[[1,0],[1,1]], b=(0,1), u=(1,0), c=(2,1)."""
    P, prepared = build_param_lp(one_minus_circuit())
    return P, prepared


class TestBuildConstraints:
    def test_worked_instance_matrices(self, worked):
        P, _ = worked
        assert P.A == frac_mat([[1, 0], [1, 1]])
        assert P.b == [F(0), F(1)]
        assert P.U == [[F(1), F(0)]]
        assert (P.m, P.k, P.npre) == (2, 1, 0)
        assert P.output_rows == (1,)

    def test_clamp_row_structure(self, worked):
        P, _ = worked
        assert P.b[1] == 1 and P.U[0][1] == 0

    def test_requires_prepared_circuit(self):
        with pytest.raises(ValueError):
            build_constraints(one_minus_circuit())


class TestClampClaim:
    def test_false_claim_is_bad_input(self):
        with pytest.raises(ValueError, match=r"claims clamped outputs.*clamp row 1 is not x_0"):
            build_param_lp(false_clamp_claim_circuit())

    def test_own_clamp_stays_a_construction_fault(self, monkeypatch):
        # a clamp that build_param_lp applied itself is not the input's fault
        monkeypatch.setattr(lp, "clamp_outputs", lambda circ: false_clamp_claim_circuit())
        with pytest.raises(AssertionError, match="clamp row 1 is not x_0"):
            build_param_lp(one_minus_circuit())


class TestConstructCost:
    def test_base_case(self):
        a = frac_mat([[1]])
        c, beta = construct_cost(rows_of(a))
        assert c == [F(1)] and beta == [F(1)]
        assert dense_cost(a) == (c, beta)

    def test_worked_two_by_two(self):
        a = frac_mat([[1, 0], [1, 1]])
        c, beta = construct_cost(rows_of(a))
        assert c == [F(2), F(1)]
        assert beta == [F(3), F(1)]
        assert dense_cost(a) == (c, beta)

    def test_hand_trace_three_by_three(self):
        a = frac_mat([[1, 0, 0], [2, 1, 0], [-1, 3, 1]])
        c, beta = construct_cost(rows_of(a))
        assert c == [F(16), F(4), F(1)]
        assert beta == [F(31), F(7), F(1)]
        assert dense_cost(a) == (c, beta)


class TestSparseMatchesDense:
    """The O(nnz) recurrences over the rows agree with the dense referees
    run on the views A, b and U."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 2]),
           lam=st.lists(st.fractions(-3, 3, max_denominator=8), min_size=2, max_size=2))
    def test_cost_solve_and_dual(self, seed, k, lam):
        P, _ = build_param_lp(random_raw_circuit(random.Random(seed), k, 4))
        lam = lam[:k]
        A = P.A
        assert is_unit_lower_triangular(A)
        assert (P.c, P.beta) == dense_cost(A)
        rhs = [bi + sum((v * u[i] for v, u in zip(lam, P.U)), F(0))
               for i, bi in enumerate(P.b)]
        assert lam_rhs(P, lam) == rhs
        x = solve_lp(P, lam)
        assert x == dense_solve(A, rhs)
        assert construct_dual(P, lam, x) == dense_dual(A, P.c, x)


class TestSolveLp:
    def test_worked_three_quarters(self, worked):
        P, _ = worked
        assert solve_lp(P, [F(3, 4)]) == [F(3, 4), F(1, 4)]

    def test_worked_half(self, worked):
        P, _ = worked
        assert solve_lp(P, [F(1, 2)]) == [F(1, 2), F(1, 2)]

    def test_matches_gate_trace(self, worked):
        P, prepared = worked
        order = order_max_gates(prepared)
        for lam in ([F(0)], [F(2)], [F(-1, 3)], [F(5, 7)]):
            _, trace = evaluate_with_trace(prepared, lam)
            assert solve_lp(P, lam) == [trace[g] for g in order]


def compiled_shrunk(k: int) -> fixp.FixpCircuit:
    """make_example_coloring(Grid(k, 1)) compiled, shrunk, clamped and normalized."""
    cb = brouwer.make_example_coloring(brouwer.Grid(k, 1))
    shrunk = compiler.shrink_range(compiler.compile_brouwer(cb, validate=False))
    return normalize_max_zero(clamp_outputs(shrunk.circuit))


@pytest.fixture(scope="module", params=[1, 2], ids=["grid_1_1", "grid_2_1"])
def compiled(request):
    prepared = compiled_shrunk(request.param)
    return lp.build_constraints(prepared), prepared


# parameters as ints and Fractions of either sign, zero among them, with
# denominators up to 2^20
lam_entries = st.one_of(st.just(0), st.integers(-40, 40),
                        st.fractions(-40, 40, max_denominator=2 ** 20))


def assert_solves_like_referee_and_trace(P, prepared, lam):
    x = solve_lp(P, lam)
    assert x == referee_solve_lp(P, lam)
    _, trace = evaluate_with_trace(prepared, lam)
    assert x == [trace[g] for g in order_max_gates(prepared)]


class TestIntegerWalkMatchesFractionReferee:
    """build_constraints and solve_lp on integers against the Fraction gate
    walk and the Fraction recursion of the tests' referees."""

    @settings(deadline=None)
    @given(raw_builder_circuits())
    def test_rows_on_random_circuits(self, c):
        prepared = normalize_max_zero(clamp_outputs(c))
        assert build_constraints(prepared).rows == referee_build_constraints(prepared)

    def test_rows_on_compiled_circuits(self, compiled):
        P, prepared = compiled
        assert P.rows == referee_build_constraints(prepared)

    @settings(deadline=None)
    @given(raw_builder_circuits(), st.data())
    def test_solve_on_random_circuits(self, c, data):
        prepared = normalize_max_zero(clamp_outputs(c))
        P = build_constraints(prepared)
        for _ in range(3):
            lam = data.draw(st.lists(lam_entries, min_size=c.k, max_size=c.k))
            assert_solves_like_referee_and_trace(P, prepared, lam)

    @settings(deadline=None, max_examples=25)
    @given(st.data())
    def test_solve_on_compiled_circuits(self, compiled, data):
        P, prepared = compiled
        lam = data.draw(st.lists(lam_entries, min_size=P.k, max_size=P.k))
        assert_solves_like_referee_and_trace(P, prepared, lam)

    def test_zero_coefficient_drops_the_operand(self):
        # the output 0*x_0 + (x_0 - x_0) reads no row, so the inner clamp row is 1 - 0
        b = fixp.Builder(1)
        x = b.input(0)
        m = b.maxg(b.const(0), b.mulc(F(3, 4), x))
        out = b.add(b.mulc(0, m), b.add(m, b.neg(m)))
        prepared = normalize_max_zero(clamp_outputs(b.build([out])))
        P = build_constraints(prepared)
        assert P.rows == referee_build_constraints(prepared)
        assert P.rows[1] == LinExpr({}, (F(0),), F(1))

    def test_operand_without_zero_keeps_its_gate_index(self):
        c = fixp.FixpCircuit(1, (fixp.Input(0), fixp.Const(F(1)), fixp.Max(0, 1),
                                 fixp.Const(F(0)), fixp.Max(3, 2), fixp.Max(3, 4)), (5,),
                             normalized=True, clamped=True, clamp_pairs=((4, 5),))
        with pytest.raises(ValueError, match="max gate 2 has no zero operand"):
            build_constraints(c)

    def test_replaced_lp_clears_its_own_rows(self, worked):
        P, _ = worked
        lam = [F(1, 2)]
        assert solve_lp(P, lam) == [F(1, 2), F(1, 2)]
        L = P.rows[0]
        Q = replace(P, rows=(LinExpr(L.xs, (F(2, 3),), F(-1, 5)),) + P.rows[1:])
        assert Q._int_rows != P._int_rows
        assert Q._int_rows[0] == ([], [], [10], -3, 15)
        assert solve_lp(Q, lam) == referee_solve_lp(Q, lam) == [F(2, 15), F(13, 15)]

    @pytest.mark.parametrize("lam", [[], [F(1), F(2)]])
    def test_wrong_parameter_count(self, worked, lam):
        P, _ = worked
        with pytest.raises(ValueError, match="expected 1 parameters"):
            solve_lp(P, lam)
        with pytest.raises(ValueError, match="expected 1 parameters"):
            lam_rhs(P, lam)


class TestDual:
    def test_worked_dual(self, worked):
        P, _ = worked
        x = solve_lp(P, [F(1, 2)])
        assert construct_dual(P, [F(1, 2)], x) == [F(1), F(1)]

    def test_zero_primal_coordinate_zeroes_dual(self, worked):
        P, _ = worked
        lam = [F(-1)]              # x_1 = max(0, -1) = 0
        x = solve_lp(P, lam)
        assert x[0] == 0
        y = construct_dual(P, lam, x)
        assert y[0] == 0

    def test_dual_bounded_by_beta(self, rng):
        for _ in range(30):
            k = rng.randint(1, 2)
            P, _ = build_param_lp(random_raw_circuit(rng, k, 4))
            for _ in range(4):
                lam = random_lambda(rng, k)
                x = solve_lp(P, lam)
                y = construct_dual(P, lam, x)
                assert all(F(0) <= yi <= bi for yi, bi in zip(y, P.beta))


class TestKkt:
    def test_solver_output_verifies(self, worked):
        P, _ = worked
        lam = [F(1, 3)]
        x = solve_lp(P, lam)
        assert not kkt_violations(P, lam, x, construct_dual(P, lam, x))

    def test_perturbed_primal_rejected(self, worked):
        P, _ = worked
        lam = [F(1, 2)]
        x = solve_lp(P, lam)
        y = construct_dual(P, lam, x)
        x2 = list(x)
        x2[0] += 1
        assert kkt_violations(P, lam, x2, y)

    def test_zero_dual_with_positive_primal_rejected(self, worked):
        P, _ = worked
        lam = [F(1, 2)]
        x = solve_lp(P, lam)
        assert kkt_violations(P, lam, x, [F(0), F(0)])


class TestKktMatchesDenseReferee:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 2]))
    def test_same_messages(self, seed, k):
        # the solver's (x, y), then copies with entries moved, negatives among them
        rng = random.Random(seed)
        P, _ = build_param_lp(random_raw_circuit(rng, k, 3))
        lam = random_lambda(rng, k)
        x = solve_lp(P, lam)
        y = construct_dual(P, lam, x)
        for _ in range(4):
            assert kkt_violations(P, lam, x, y) == referee_kkt_violations(P, lam, x, y)
            v = rng.choice((x, y))
            v[rng.randrange(P.m)] += F(rng.randint(-3, 3), rng.randint(1, 4))


def lp_outputs(P, lam):
    """The output rows of the LP's solution at lam."""
    x = solve_lp(P, lam)
    return [x[r] for r in P.output_rows]


class TestFlp:
    def test_worked_fixed_point(self, worked):
        P, _ = worked
        assert lp_outputs(P, [F(1, 2)]) == [F(1, 2)]

    def test_out_of_box_parameter_still_lands_inside(self, worked):
        P, _ = worked
        out = lp_outputs(P, [F(2)])
        assert all(F(0) <= v <= F(1) for v in out)

    def test_agrees_with_circuit_on_unit_box(self, rng, worked):
        P, prepared = worked
        for _ in range(20):
            lam = [F(rng.randint(0, 16), 16)]
            assert lp_outputs(P, lam) == fixp.evaluate(prepared, lam)

    def test_swap_fixed_points_on_diagonal(self):
        P, prepared = build_param_lp(swap_circuit())
        assert lp_outputs(P, [F(1, 3), F(1, 3)]) == [F(1, 3), F(1, 3)]
        assert lp_outputs(P, [F(1, 4), F(3, 4)]) == [F(3, 4), F(1, 4)]


class TestRandomizedEquivalence:
    def test_lp_equals_trace_and_kkt_holds(self, rng):
        for _ in range(40):
            k = rng.randint(1, 2)
            P, prepared = build_param_lp(random_raw_circuit(rng, k, 4))
            order = order_max_gates(prepared)
            for _ in range(4):
                lam = random_lambda(rng, k)
                x = solve_lp(P, lam)
                _, trace = evaluate_with_trace(prepared, lam)
                assert x == [trace[g] for g in order]
                y = construct_dual(P, lam, x)
                assert not kkt_violations(P, lam, x, y)


class TestProperties:
    def test_worked_instance_clean(self, worked):
        P, _ = worked
        assert property_violations(P) == []

    def test_random_instances_clean(self, rng):
        for _ in range(20):
            P, _ = build_param_lp(random_raw_circuit(rng, rng.randint(1, 2), 4))
            assert property_violations(P) == []

    def test_size_polynomial_in_circuit(self, rng):
        # every coefficient entering A, b, U is a subproduct of circuit
        # constants; assert the total bit size against that explicit bound
        for _ in range(10):
            raw = random_raw_circuit(rng, 1, 3)
            P, prepared = build_param_lp(raw)
            total_bits = 0
            for row in P.A:
                for v in row:
                    total_bits += abs(v.numerator).bit_length() + v.denominator.bit_length()
            for v in P.b + P.U[0] + P.c + P.beta:
                total_bits += abs(v.numerator).bit_length() + v.denominator.bit_length()
            s = fixp.circuit_size(prepared)
            assert total_bits <= 4 * s * s


class TestPropertyViolations:
    """Each structural fault, planted alone, is reported by its own message."""

    @staticmethod
    def lps():
        return build_param_lp(one_minus_circuit())[0], build_param_lp(swap_circuit())[0]

    @staticmethod
    def with_row(P, i, L):
        rows = list(P.rows)
        rows[i] = L
        return replace(P, rows=tuple(rows))

    def test_row_reads_itself(self):
        P, _ = self.lps()
        bad = self.with_row(P, 0, LinExpr({0: F(1)}, P.rows[0].lam, P.rows[0].const))
        assert property_violations(bad) == ["row 0 reads x_0, not an earlier row"]

    def test_row_reads_later_row(self):
        _, S = self.lps()
        bad = self.with_row(S, 0, LinExpr({2: F(1)}, S.rows[0].lam, S.rows[0].const))
        assert property_violations(bad) == ["row 0 reads x_2, not an earlier row"]

    def test_clamp_row_shape(self):
        P, _ = self.lps()
        L = P.rows[1]
        bad = self.with_row(P, 1, LinExpr({0: F(-2)}, L.lam, L.const))
        assert property_violations(bad) == ["clamp row 1 is not x_0 + x_1"]

    def test_clamp_threshold(self):
        P, _ = self.lps()
        L = P.rows[1]
        bad = self.with_row(P, 1, LinExpr(L.xs, L.lam, F(2)))
        assert property_violations(bad) == ["clamp row 1 has threshold 2, not 1"]

    def test_clamp_parameter_coefficient(self):
        P, _ = self.lps()
        L = P.rows[1]
        bad = self.with_row(P, 1, LinExpr(L.xs, (F(1),), L.const))
        assert property_violations(bad) == ["clamp row 1 carries a parameter coefficient"]

    def test_other_row_reads_output_column(self):
        _, S = self.lps()
        L = S.rows[2]
        bad = self.with_row(S, 2, LinExpr({**L.xs, 1: F(1)}, L.lam, L.const))
        assert property_violations(bad) == ["column 1 of A is not the unit vector"]

    def test_output_cost_not_one(self):
        _, S = self.lps()
        c = list(S.c)
        c[1] = F(2)
        assert property_violations(replace(S, c=c)) == ["cost entry 1 is 2, not 1"]

    def test_cost_below_one(self):
        P, _ = self.lps()
        c = list(P.c)
        c[0] = F(1, 2)
        assert property_violations(replace(P, c=c)) == ["cost entries must be >= 1"]


class TestJson:
    def test_one_minus_document(self, worked):
        P, _ = worked
        assert lp_to_json(P) == {
            "m": 2, "k": 1, "n": 0,
            "A": [["1", "0"], ["1", "1"]], "b": ["0", "1"], "U": [["1", "0"]],
            "output_rows": [1], "c": ["2", "1"], "beta": ["3", "1"],
        }
