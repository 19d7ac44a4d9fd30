import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashforge import brouwer
from nashforge.brouwer import (
    BAnd, BConst, BInput, BNot, BOr, BoolCircuit, Grid, GridTooLarge,
    IllegalPattern, InvalidBrouwerCircuit, bool_from_json, bool_to_json,
    boundary_color, brute_force_fixtures, color_at, decode_case, discrete_map,
    eval_bool, increment, make_example_coloring, panchromatic_cubes,
    validate_circuit,
)
from nashforge.compiler import compile_brouwer

from conftest import encode_case


def constant_case_circuit(k: int, n: int, color: int) -> BoolCircuit:
    bits = encode_case(k, color)
    gates = [BConst(v) for v in bits]
    return BoolCircuit(k, n, tuple(gates), tuple(range(len(bits))))


class TestEvalBool:
    def test_constant_outputs(self):
        cb = constant_case_circuit(2, 2, 0)
        assert eval_bool(cb, (1, 2)) == [0, 1, 0, 1]

    def test_not_of_input_bit(self):
        # single output pair wired to (not msb of coord 1, const)
        gates = (BInput(0), BNot(0), BConst(0))
        cb = BoolCircuit(1, 2, gates, (1, 2))
        assert eval_bool(cb, (2,))[0] == 0   # msb of 2 is 1 -> negated 0
        assert eval_bool(cb, (1,))[0] == 1

    def test_fixture_at_origin_is_case_two(self):
        cb = make_example_coloring(Grid(2, 2))
        assert decode_case(eval_bool(cb, (0, 0))) == 2

    def test_point_out_of_grid(self):
        cb = constant_case_circuit(2, 2, 0)
        with pytest.raises(ValueError):
            eval_bool(cb, (4, 0))

    def test_msb_first_encoding(self):
        assert brouwer.encode_point(Grid(2, 2), (2, 1)) == [1, 0, 0, 1]


class TestDecodeCase:
    def test_all_down_bits_is_color_zero(self):
        assert decode_case([0, 1, 0, 1]) == 0

    def test_single_up_bit_is_its_color(self):
        assert decode_case([1, 0, 0, 0]) == 1
        assert decode_case([0, 0, 1, 0]) == 2

    def test_mixed_bits_rejected(self):
        with pytest.raises(IllegalPattern):
            decode_case([1, 1, 0, 0])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_roundtrip_with_encoder(self, k):
        for color in range(k + 1):
            assert decode_case(encode_case(k, color)) == color


class TestIncrement:
    def test_color_one_2d(self):
        assert increment(1, 2) == (1, 0)

    def test_color_zero_3d(self):
        assert increment(0, 3) == (-1, -1, -1)

    def test_color_two_2d(self):
        assert increment(2, 2) == (0, 1)


class TestDiscreteMap:
    def test_boundary_bottom_moves_up(self):
        cb = make_example_coloring(Grid(2, 2))
        assert discrete_map(cb, (0, 0)) == (0, 1)

    def test_left_wall_moves_right(self):
        cb = make_example_coloring(Grid(2, 2))
        assert color_at(cb, (0, 2)) == 1
        assert discrete_map(cb, (0, 2)) == (1, 2)

    def test_far_corner_moves_down_left(self):
        cb = make_example_coloring(Grid(2, 2))
        assert color_at(cb, (3, 3)) == 0
        assert discrete_map(cb, (3, 3)) == (2, 2)

    def test_maps_grid_into_grid_exhaustively(self):
        for k, n in [(2, 2), (3, 2), (2, 3)]:
            cb = make_example_coloring(Grid(k, n))
            for p in Grid(k, n).points():
                assert Grid(k, n).contains(discrete_map(cb, p))

    def test_escaping_image_reported(self):
        # color 1 everywhere pushes the right edge off the grid
        cb = constant_case_circuit(2, 2, 1)
        with pytest.raises(InvalidBrouwerCircuit):
            discrete_map(cb, (3, 1))


class TestValidation:
    def test_fixture_is_valid(self):
        assert validate_circuit(make_example_coloring(Grid(2, 2))).ok

    def test_fixture_valid_3d(self):
        assert validate_circuit(make_example_coloring(Grid(3, 2))).ok

    def test_illegal_pattern_everywhere(self):
        gates = (BConst(1), BConst(1), BConst(0), BConst(0))
        cb = BoolCircuit(2, 2, gates, (0, 1, 2, 3))
        report = validate_circuit(cb)
        assert not report.ok
        assert len(report.violations) == 16

    def test_boundary_rule_violation_cited(self):
        # valid interior but the origin reports color 0: boundary violation
        grid = Grid(2, 2)
        base = make_example_coloring(grid)
        gates = list(base.gates)

        def emit(g):
            gates.append(g)
            return len(gates) - 1

        nots = [emit(BNot(i)) for i in range(4)]
        origin = nots[0]
        for r in nots[1:]:
            origin = emit(BAnd(origin, r))
        outputs = []
        for i in range(2):
            up, down = base.outputs[2 * i], base.outputs[2 * i + 1]
            not_origin = emit(BNot(origin))
            outputs.append(emit(BAnd(up, not_origin)))
            outputs.append(emit(BOr(down, origin)))
        cb = BoolCircuit(2, 2, tuple(gates), tuple(outputs))
        assert color_at(cb, (0, 0)) == 0
        report = validate_circuit(cb)
        assert not report.ok
        points = [p for p, _ in report.violations]
        assert (0, 0) in points
        reason = dict(report.violations)[(0, 0)]
        assert "boundary" in reason

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundary_rule_matches_2d_reading(self, n):
        # the two-dimensional phrasing of the rule, read independently of
        # the k-dimensional one: if p2=0 take 2, else if p1=0 take 1, else 0
        grid = Grid(2, n)
        for p in grid.points():
            text_rule = None
            if grid.on_boundary(p):
                text_rule = 2 if p[1] == 0 else 1 if p[0] == 0 else 0
            assert boundary_color(grid, p) == text_rule

    def test_grid_too_large(self):
        # 25 input bits: the limit is checked before any point is evaluated
        cb = make_example_coloring(Grid(1, 25))
        with pytest.raises(GridTooLarge):
            validate_circuit(cb)


class TestBruteForce:
    def test_fixture_has_known_cube(self):
        grid = Grid(2, 2)
        cubes = brute_force_fixtures(make_example_coloring(grid))
        assert [c.base for c in cubes] == [(0, 0)]
        assert set(cubes[0].colors) == {0, 1, 2}

    def test_invalid_circuit_rejected_first(self):
        cb = constant_case_circuit(2, 2, 0)   # interior fine, boundary wrong
        with pytest.raises(InvalidBrouwerCircuit, match="invalid at"):
            brute_force_fixtures(cb)

    def test_compiler_and_oracle_name_the_same_first_violation(self):
        # the origin's zeros are coordinates 1 and 2, so the boundary rule asks for color 2
        cb = constant_case_circuit(2, 2, 0)
        for reader in (brute_force_fixtures, compile_brouwer):
            with pytest.raises(InvalidBrouwerCircuit) as exc:
                reader(cb)
            assert str(exc.value) == "invalid at (0, 0): boundary rule requires color 2, got 0"

    def test_3d_fixture_nonempty_with_simplices(self):
        cubes = brute_force_fixtures(make_example_coloring(Grid(3, 2)))
        assert cubes
        for cube in cubes:
            for simplex in cube.simplices:
                assert len(simplex) == 4
                colors = {color_at(make_example_coloring(Grid(3, 2)), v) for v in simplex}
                assert colors == {0, 1, 2, 3}

    def test_every_valid_fixture_scale_has_fixtures(self):
        for k, n in [(2, 2), (2, 3), (3, 2)]:
            assert brute_force_fixtures(make_example_coloring(Grid(k, n)))

    def test_simplices_are_accommodated(self):
        cubes = brute_force_fixtures(make_example_coloring(Grid(2, 3)))
        for cube in cubes:
            for simplex in cube.simplices:
                for i in range(2):
                    span = {v[i] for v in simplex}
                    assert span <= {cube.base[i], cube.base[i] + 1}


class TestFixtureGenerator:
    def test_deterministic(self):
        a = make_example_coloring(Grid(2, 2))
        b = make_example_coloring(Grid(2, 2))
        assert a == b

    def test_matches_closed_form_coloring(self):
        grid = Grid(3, 2)
        cb = make_example_coloring(grid)
        for p in grid.points():
            zeros = [i + 1 for i, x in enumerate(p) if x == 0]
            expected = max(zeros) if zeros else 0
            assert color_at(cb, p) == expected


class TestPanchromaticGeneric:
    def test_synthetic_coloring_dict(self):
        grid = Grid(2, 2)
        colors = {p: 0 for p in grid.points()}
        colors[(1, 1)] = 1
        colors[(2, 1)] = 2
        cubes = panchromatic_cubes(lambda p: colors[p], grid)
        bases = {c.base for c in cubes}
        assert (1, 0) in bases or (1, 1) in bases


@st.composite
def bool_circuits(draw):
    """Random well-formed mapping circuits over every gate type."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gates = [draw(st.one_of(st.builds(BInput, st.integers(0, k * n - 1)),
                            st.builds(BConst, st.integers(0, 1))))]
    for _ in range(draw(st.integers(0, 12))):
        ref = st.integers(0, len(gates) - 1)
        gates.append(draw(st.one_of(
            st.builds(BInput, st.integers(0, k * n - 1)), st.builds(BConst, st.integers(0, 1)),
            st.builds(BAnd, ref, ref), st.builds(BOr, ref, ref), st.builds(BNot, ref))))
    outputs = draw(st.lists(st.integers(0, len(gates) - 1), min_size=2 * k, max_size=2 * k))
    return BoolCircuit(k, n, tuple(gates), tuple(outputs))


class TestJson:
    @settings(deadline=None)
    @given(bool_circuits())
    @example(make_example_coloring(Grid(2, 2)))
    def test_roundtrip(self, cb):
        assert bool_from_json(json.loads(json.dumps(bool_to_json(cb)))) == cb

    def test_gate_encodings(self):
        cb = BoolCircuit(1, 1, (BInput(0), BNot(0), BConst(1), BAnd(1, 2), BOr(0, 3)),
                         (3, 4))
        doc = bool_to_json(cb)
        ops = [g["op"] for g in doc["gates"]]
        assert ops == ["input", "not", "const", "and", "or"]
