import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashforge import fixp
from nashforge.fixp import (
    Add, Builder, Const, FixpCircuit, Input, Max, MulC, circuit_from_json,
    circuit_size, circuit_to_json, clamp_outputs, evaluate, evaluate_points, evaluate_with_trace,
    normalize_max_zero, order_max_gates,
)

from conftest import one_minus_circuit, random_lambda, random_raw_circuit


class TestEvaluate:
    def test_identity(self):
        c = FixpCircuit(1, (Input(0),), (0,))
        assert evaluate(c, [F(1, 2)]) == [F(1, 2)]

    def test_max_of_constants(self):
        c = FixpCircuit(1, (Input(0), Const(F(0)), Const(F(-1)), Max(1, 2)), (3,))
        assert evaluate(c, [F(5)]) == [F(0)]

    def test_clamp_of_large_value_is_one(self):
        b = Builder(1)
        raw = b.build([b.const(F(3, 2))])
        clamped = clamp_outputs(raw)
        assert evaluate(clamped, [F(0)]) == [F(1)]

    def test_arity_mismatch(self):
        c = FixpCircuit(2, (Input(0), Input(1)), (0, 1))
        with pytest.raises(ValueError):
            evaluate(c, [F(1)])

    def test_trace_exposes_every_gate(self):
        c = one_minus_circuit()
        outs, trace = evaluate_with_trace(c, [F(1, 4)])
        assert outs == [F(3, 4)]
        assert len(trace) == len(c.gates)

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            FixpCircuit(1, (Add(0, 1), Input(0)), (0,))


class TestClampOutputs:
    @pytest.mark.parametrize("value,expected", [
        (F(-2), F(0)),       # lower clamp
        (F(3, 2), F(1)),     # upper clamp
        (F(1, 3), F(1, 3)),  # interior pass-through
    ])
    def test_clamp_values(self, value, expected):
        b = Builder(1)
        raw = b.build([b.const(value)])
        assert evaluate(clamp_outputs(raw), [F(0)]) == [expected]

    def test_double_clamp_rejected(self):
        c = clamp_outputs(one_minus_circuit())
        with pytest.raises(ValueError):
            clamp_outputs(c)

    def test_adds_four_gates_per_output_plus_shared_constants(self):
        raw = one_minus_circuit()
        c = clamp_outputs(raw)
        assert len(c.gates) - len(raw.gates) == 4 * raw.k + 2

    def test_range_lands_in_unit_box(self, rng):
        for _ in range(30):
            k = rng.randint(1, 2)
            raw = random_raw_circuit(rng, k, 3)
            c = clamp_outputs(raw)
            for _ in range(5):
                out = evaluate(c, random_lambda(rng, k, spread=5))
                assert all(F(0) <= v <= F(1) for v in out)


class TestNormalizeMaxZero:
    def test_semantic_equivalence_simple(self):
        b = Builder(1)
        raw = b.build([b.maxg(b.const(F(2)), b.const(F(5)))])
        norm = normalize_max_zero(raw)
        assert evaluate(norm, [F(0)]) == [F(5)]

    def test_already_normalized_unchanged(self):
        b = Builder(1)
        raw = b.build([b.maxg(b.const(0), b.input(0))])
        norm = normalize_max_zero(raw)
        assert norm.gates == raw.gates
        assert norm.outputs == raw.outputs

    def test_max_of_lambda_and_one_minus_lambda(self):
        b = Builder(1)
        x = b.input(0)
        raw = b.build([b.maxg(x, b.one_minus(x))])
        norm = normalize_max_zero(raw)
        assert evaluate(raw, [F(1, 4)]) == evaluate(norm, [F(1, 4)]) == [F(3, 4)]

    def test_every_max_gate_has_zero_operand(self, rng):
        for _ in range(30):
            k = rng.randint(1, 2)
            c = normalize_max_zero(clamp_outputs(random_raw_circuit(rng, k, 4)))
            for g in c.gates:
                if isinstance(g, Max):
                    assert any(isinstance(c.gates[r], Const) and c.gates[r].value == 0
                               for r in (g.a, g.b))

    def test_equivalence_randomized(self, rng):
        for _ in range(40):
            k = rng.randint(1, 2)
            raw = random_raw_circuit(rng, k, 4)
            norm = normalize_max_zero(raw)
            for _ in range(4):
                lam = random_lambda(rng, k)
                assert evaluate(raw, lam) == evaluate(norm, lam)

    def test_gate_growth_at_most_three_per_max_plus_shared_zero(self, rng):
        for _ in range(20):
            raw = clamp_outputs(random_raw_circuit(rng, 1, 4))
            n_max = sum(isinstance(g, Max) for g in raw.gates)
            norm = normalize_max_zero(raw)
            assert len(norm.gates) <= len(raw.gates) + 3 * n_max + 1


class TestOrderMaxGates:
    def test_clamp_only_circuit(self):
        c = normalize_max_zero(clamp_outputs(one_minus_circuit()))
        order = order_max_gates(c)
        assert len(order) == 2
        assert order == [c.clamp_pairs[0][0], c.clamp_pairs[0][1]]

    def test_chain_preserved(self):
        b = Builder(1)
        inner = b.maxg(b.const(0), b.input(0))
        outer = b.maxg(b.const(0), b.add(inner, b.const(F(-1, 2))))
        raw = b.build([outer])
        c = normalize_max_zero(clamp_outputs(raw))
        order = order_max_gates(c)
        assert len(order) == 4
        assert order == sorted(order)

    def test_each_max_exactly_once_and_edges_forward(self, rng):
        for _ in range(20):
            c = normalize_max_zero(clamp_outputs(random_raw_circuit(rng, 2, 4)))
            order = order_max_gates(c)
            assert sorted(order) == order
            assert len(set(order)) == len(order)
            assert len(order) == sum(isinstance(g, Max) for g in c.gates)
            pos = {g: i for i, g in enumerate(order)}
            for g_idx in order:
                g = c.gates[g_idx]
                for ref in (g.a, g.b):
                    if ref in pos:
                        assert pos[ref] < pos[g_idx]

    def test_requires_normalized_and_clamped(self):
        with pytest.raises(ValueError):
            order_max_gates(one_minus_circuit())


class TestSize:
    def test_identity(self):
        c = FixpCircuit(1, (Input(0),), (0,))
        assert circuit_size(c) == 2

    def test_constant_bits_counted(self):
        c = FixpCircuit(1, (Input(0), Const(F(1, 2))), (1,))
        # 1 input + 2 gates + (1 bit numerator + 2 bit denominator)
        assert circuit_size(c) == 1 + 2 + 3

    def test_clamp_growth(self):
        raw = one_minus_circuit()
        c = clamp_outputs(raw)
        # 6 gates (consts -1, 0 plus four per-output ops) and 8 constant
        # bits (2 each for the const values and the two -1 coefficients)
        grown = circuit_size(c) - circuit_size(raw)
        assert grown == 6 + 8


@st.composite
def raw_builder_circuits(draw):
    """Random Builder circuits over the full basis, neither clamped nor normalized."""
    k = draw(st.integers(1, 3))
    b = Builder(k)
    refs = [b.input(i) for i in range(k)]
    rats = st.fractions(-8, 8, max_denominator=16)
    for _ in range(draw(st.integers(0, 10))):
        op = draw(st.sampled_from(["const", "add", "mulc", "max"]))
        ref = st.sampled_from(refs)
        if op == "const":
            refs.append(b.const(draw(rats)))
        elif op == "mulc":
            refs.append(b.mulc(draw(rats), draw(ref)))
        else:
            refs.append((b.add if op == "add" else b.maxg)(draw(ref), draw(ref)))
    return b.build([draw(st.sampled_from(refs)) for _ in range(k)])


@st.composite
def builder_circuits(draw):
    """Random Builder circuits, sometimes clamped and max-zero normalized."""
    c = draw(raw_builder_circuits())
    if draw(st.booleans()):
        c = clamp_outputs(c)
    if draw(st.booleans()):
        c = normalize_max_zero(c)
    return c


def points(k):
    """Random rational points, inside and outside the unit box."""
    return st.lists(st.fractions(-4, 4, max_denominator=16), min_size=k, max_size=k)


class TestRewriteProperties:
    @settings(deadline=None)
    @given(builder_circuits(), st.data())
    def test_normalize_preserves_evaluation(self, c, data):
        lam = data.draw(points(c.k))
        assert evaluate(normalize_max_zero(c), lam) == evaluate(c, lam)

    @settings(deadline=None)
    @given(raw_builder_circuits(), st.data())
    def test_clamp_then_normalize_is_the_clamp(self, c, data):
        # each output t becomes max{0, min{1, t}}
        lam = data.draw(points(c.k))
        want = [max(F(0), min(F(1), t)) for t in evaluate(c, lam)]
        assert evaluate(normalize_max_zero(clamp_outputs(c)), lam) == want


class TestEvaluatePoints:
    """The batched integer evaluator against the Fraction trace, its referee."""

    @settings(deadline=None)
    @given(raw_builder_circuits(), st.data())
    def test_matches_the_trace_on_raw_clamped_and_normalized_forms(self, c, data):
        pts = data.draw(st.lists(points(c.k), max_size=6))
        clamped = clamp_outputs(c)
        for form in (c, clamped, normalize_max_zero(c), normalize_max_zero(clamped)):
            assert evaluate_points(form, pts) == [evaluate_with_trace(form, p)[0] for p in pts]

    def test_mixed_signs_and_denominators_share_one_walk(self):
        b = Builder(2)
        x, y = b.input(0), b.input(1)
        c = b.build([b.maxg(b.mulc(F(3, 7), x), b.add(y, b.const(F(-5, 6)))),
                     b.mulc(F(-2, 9), b.add(x, y))])
        pts = [[F(1, 2), F(-3, 4)], [F(-7, 5), F(2)], [F(0), F(11, 13)], [3, F(-1, 6)]]
        assert evaluate_points(c, pts) == [evaluate_with_trace(c, p)[0] for p in pts]

    def test_no_points_no_outputs(self):
        assert evaluate_points(one_minus_circuit(), []) == []

    @pytest.mark.parametrize("pts", [[[F(1)]], [[F(0), F(1)], [F(1)]], [[F(0), F(1)], []]])
    def test_wrong_arity_raises_like_the_trace(self, pts):
        c = FixpCircuit(2, (Input(0), Input(1)), (0, 1))
        bad = next(p for p in pts if len(p) != 2)
        with pytest.raises(ValueError) as want:
            evaluate_with_trace(c, bad)
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            evaluate_points(c, pts)


class TestJson:
    @settings(deadline=None)
    @given(builder_circuits())
    def test_roundtrip(self, c):
        assert circuit_from_json(json.loads(json.dumps(circuit_to_json(c)))) == c

    def test_wire_format_fields(self):
        c = FixpCircuit(1, (Input(0), Const(F(-1, 2)), MulC(F(2), 0), Add(1, 2), Max(1, 3)),
                        (4,))
        doc = circuit_to_json(c)
        assert doc["gates"][0] == {"op": "input", "i": 0}
        assert doc["gates"][1] == {"op": "const", "v": "-1/2"}
        assert doc["gates"][2] == {"op": "mulc", "c": "2", "a": 0}
        assert doc["gates"][3] == {"op": "add", "a": 1, "b": 2}
        assert doc["gates"][4] == {"op": "max", "a": 1, "b": 3}
