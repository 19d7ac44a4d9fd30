import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from nashforge import brouwer, compiler, fixp
from nashforge.brouwer import Grid, make_example_coloring
from nashforge.compiler import (
    NotPanchromatic, SamplingParams, check_approx_fixed_point, compile_brouwer, default_params,
    well_positioned,
)

from conftest import (
    encode_case, extract_bits_gadget, make_synthetic_trial, referee_grid_restriction_violations,
    sampled_increment_sum, simulate_bool,
)


L = 32
L2 = F(L * L)


@pytest.fixture(scope="module")
def fixture_2d():
    cb = make_example_coloring(Grid(2, 2))
    return compile_brouwer(cb)


class TestExtractBits:
    def test_zero(self):
        gadget = extract_bits_gadget(2, L)
        assert fixp.evaluate(gadget, [F(0)]) == [F(0), F(0)]

    def test_interior_point(self):
        # oracle: binary expansion of floor(5 + 1/4) = 5 -> 101
        gadget = extract_bits_gadget(3, L)
        assert fixp.evaluate(gadget, [F(21, 4)]) == [F(1), F(0), F(1)]

    def test_poorly_positioned_trace(self):
        # hand trace: first bit saturates at 1, the second lands mid-window
        gadget = extract_bits_gadget(2, L)
        a = F(3) - 1 / (2 * L2)
        assert fixp.evaluate(gadget, [a]) == [F(1), F(1, 2)]

    def test_outputs_always_in_unit_interval(self):
        gadget = extract_bits_gadget(3, L)
        rng = random.Random(5)
        for _ in range(150):
            a = F(rng.randint(0, 8 * 4096), 4096)
            for bit in fixp.evaluate(gadget, [a]):
                assert F(0) <= bit <= F(1)

    def test_exact_on_well_positioned_sweep(self):
        # quarter-resolution sweep of the acceptance grid, n=2
        gadget = extract_bits_gadget(2, L)
        step = F(1, 4 * L * L)
        for t in range(4):
            want = [F((t >> 1) & 1), F(t & 1)]
            for j in range(0, 4 * L * L - 3, 7):
                assert fixp.evaluate(gadget, [t + j * step]) == want


class TestSimulateBool:
    def test_and_at_ones(self):
        cb = brouwer.BoolCircuit(1, 2, (brouwer.BInput(0), brouwer.BInput(1),
                                        brouwer.BAnd(0, 1), brouwer.BConst(0)), (2, 3))
        sim = simulate_bool(cb)
        assert fixp.evaluate(sim, [F(1), F(1)])[0] == F(1)

    def test_not_at_one(self):
        cb = brouwer.BoolCircuit(1, 2, (brouwer.BInput(0), brouwer.BNot(0),
                                        brouwer.BConst(0)), (1, 2))
        sim = simulate_bool(cb)
        assert fixp.evaluate(sim, [F(1), F(0)])[0] == F(0)

    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
    def test_matches_eval_bool_on_every_grid_point(self, k, n):
        cb = make_example_coloring(Grid(k, n))
        sim = simulate_bool(cb)
        for p in Grid(k, n).points():
            bits = [F(v) for v in brouwer.encode_point(cb.grid, p)]
            assert fixp.evaluate(sim, bits) == [F(v) for v in brouwer.eval_bool(cb, p)]

    def test_fractional_inputs_stay_in_unit_box(self):
        cb = make_example_coloring(Grid(2, 2))
        sim = simulate_bool(cb)
        rng = random.Random(9)
        for _ in range(50):
            bits = [F(rng.randint(0, 16), 16) for _ in range(4)]
            for v in fixp.evaluate(sim, bits):
                assert F(0) <= v <= F(1)


class TestCompile:
    def test_grid_restriction_2d(self, fixture_2d):
        assert compiler.grid_restriction_violations(fixture_2d) == []

    def test_boundary_point_moves_up(self, fixture_2d):
        assert fixp.evaluate(fixture_2d.circuit, [F(0), F(0)]) == [F(0), F(1)]

    def test_outputs_stay_in_box_on_random_reals(self, fixture_2d):
        rng = random.Random(12)
        for _ in range(25):
            p = [F(rng.randint(0, 3 * 64), 64) for _ in range(2)]
            out = fixp.evaluate(fixture_2d.circuit, p)
            assert all(F(0) <= v <= F(3) for v in out)

    def test_invalid_source_rejected(self):
        bits = encode_case(2, 0)
        gates = tuple(brouwer.BConst(v) for v in bits)
        cb = brouwer.BoolCircuit(2, 2, gates, (0, 1, 2, 3))
        with pytest.raises(brouwer.InvalidBrouwerCircuit, match="invalid at"):
            compile_brouwer(cb)

    def test_size_within_budget(self, fixture_2d):
        cb = fixture_2d.source
        params = fixture_2d.params
        size = fixp.circuit_size(fixture_2d.circuit)
        bound = params.sample_count * (
            10 * brouwer.bool_circuit_size(cb)
            + 16 * 2 * 2 * (2 * params.L.bit_length() + 4)) + 60 * 2 + 2 * params.sample_count + 64
        assert size <= bound

    def test_default_params(self):
        p2 = default_params(make_example_coloring(Grid(2, 2)))
        assert (p2.L, p2.sample_count) == (32, 16)
        p3 = default_params(make_example_coloring(Grid(3, 2)))
        assert (p3.L, p3.sample_count) == (128, 81)


class TestShrink:
    def test_fixed_point_correspondence(self, fixture_2d):
        sh = compiler.shrink_range(fixture_2d)
        p = [F(1055, 1536), F(2591, 3072)]   # exact fixed point of the 2D fixture
        scaled = [v / 3 for v in p]
        assert fixp.evaluate(sh.circuit, scaled) == scaled

    def test_pointwise_equivalence(self, fixture_2d):
        sh = compiler.shrink_range(fixture_2d)
        rng = random.Random(3)
        for _ in range(10):
            lam = [F(rng.randint(0, 64), 64) for _ in range(2)]
            lhs = fixp.evaluate(sh.circuit, lam)
            rhs = [v / 3 for v in fixp.evaluate(fixture_2d.circuit, [3 * x for x in lam])]
            assert lhs == rhs

    def test_double_shrink_rejected(self, fixture_2d):
        sh = compiler.shrink_range(fixture_2d)
        with pytest.raises(ValueError):
            compiler.shrink_range(sh)

    def test_scale_recorded(self, fixture_2d):
        sh = compiler.shrink_range(fixture_2d)
        assert sh.shrunk
        assert compiler.compiled_meta_json(sh)["shrunk"] is True


class TestClassifyPosition:
    def test_halves_are_well(self):
        assert well_positioned([F(1, 2), F(1, 2)], L)

    def test_window_membership(self):
        assert not well_positioned([F(2) - F(1, 3 * L * L)], L)

    def test_integers_are_well(self):
        assert well_positioned([F(5)], L)

    def test_window_boundary_is_well(self):
        assert well_positioned([F(1) - F(1, L * L)], L)

    def test_one_poor_coordinate_makes_the_point_poor(self):
        assert not well_positioned([F(1, 2), F(2) - F(1, 3 * L * L)], L)

    @pytest.mark.parametrize("p", [[F(-1, 2)], [F(2) - F(1, 3 * L * L), F(-1)]])
    def test_negative_coordinate_anywhere_refused(self, p):
        # a poor first coordinate does not settle the answer before the second is read
        with pytest.raises(ValueError, match="nonnegative"):
            well_positioned(p, L)


class TestApproxFixedPoint:
    def test_exact_fixed_point_passes_any_eps(self, fixture_2d):
        p = [F(1055, 1536), F(2591, 3072)]
        assert check_approx_fixed_point(fixture_2d, p, 0)
        assert check_approx_fixed_point(fixture_2d, p, F(1, L))

    def test_moving_grid_point_fails(self, fixture_2d):
        # the discrete map displaces (1,1) by a full unit
        assert brouwer.discrete_map(fixture_2d.source, (1, 1)) != (1, 1)
        assert not check_approx_fixed_point(fixture_2d, [F(1), F(1)], F(1, L))

    def test_zero_eps_is_exact_test(self, fixture_2d):
        assert not check_approx_fixed_point(fixture_2d, [F(1, 2), F(1, 2)], 0)

    # Fraction() would read 0.1 as its binary expansion, parse "1/4" as
    # text and take True for 1; points and eps are ints or Fractions only
    @pytest.mark.parametrize("bad", [0.1, "1/4", True])
    def test_coordinate_of_another_type_refused(self, fixture_2d, bad):
        with pytest.raises(TypeError, match=f"entry 1 is {bad!r} .*int or a Fraction"):
            check_approx_fixed_point(fixture_2d, [F(1, 2), bad], F(1, L))
        for read in (lambda p: compiler.floor_point(p, fixture_2d.grid),
                     lambda p: compiler.sample_set(p, fixture_2d.params),
                     lambda p: well_positioned(p, L)):
            with pytest.raises(TypeError, match=f"entry 1 is {bad!r}"):
                read([0, bad])

    @pytest.mark.parametrize("bad", [0.1, "1/4", True])
    def test_eps_of_another_type_refused(self, fixture_2d, bad):
        with pytest.raises(TypeError, match=f"eps is {bad!r} .*int or a Fraction"):
            check_approx_fixed_point(fixture_2d, [F(1, 2), F(1, 2)], bad)
        with pytest.raises(TypeError, match=f"eps is {bad!r}"):
            compiler.extract_panchromatic_simplex([F(1055, 1536), F(2591, 3072)], fixture_2d, bad)


class TestSimplexExtraction:
    def test_exact_fixed_point_yields_panchromatic_simplex(self, fixture_2d):
        p = [F(1055, 1536), F(2591, 3072)]
        simplex = compiler.extract_panchromatic_simplex(p, fixture_2d)
        assert simplex == ((0, 0), (0, 1), (1, 1))
        colors = {brouwer.color_at(fixture_2d.source, q) for q in simplex}
        assert colors == {0, 1, 2}
        cubes = brouwer.brute_force_fixtures(fixture_2d.source)
        assert tuple(min(q[i] for q in simplex) for i in range(2)) in {c.base for c in cubes}

    def test_non_fixed_grid_point_rejected(self, fixture_2d):
        with pytest.raises(NotPanchromatic):
            compiler.extract_panchromatic_simplex([F(0), F(0)], fixture_2d)

    def test_single_color_neighborhood_rejected(self, fixture_2d):
        # deep in the interior every sample shares one color; bypass the
        # fixed-point gate to exercise the counting check directly
        samples = compiler.sample_set([F(5, 2), F(5, 2)], fixture_2d.params)
        flags = [True] * len(samples)
        with pytest.raises(NotPanchromatic):
            compiler.panchromatic_from_samples(
                samples, flags, lambda q: brouwer.color_at(fixture_2d.source, q),
                fixture_2d.grid)


class TestSamplingLemma:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("exact_zero", [True, False])
    def test_synthetic_drift_bounds_force_panchromatic(self, k, exact_zero):
        rng = random.Random(100 * k + exact_zero)
        for _ in range(10):
            trial = make_synthetic_trial(rng, k, exact_zero)
            total = sampled_increment_sum(
                trial.samples, trial.well_flags, trial.color_fn, trial.grid,
                trial.poor_incs)
            drift = max(abs(v) for v in total)
            assert drift == 0 if exact_zero else drift < 1
            cells = compiler.panchromatic_from_samples(
                trial.samples, trial.well_flags, trial.color_fn, trial.grid)
            assert set(cells) == set(trial.chain)
            cubes = brouwer.panchromatic_cubes(trial.color_fn, trial.grid)
            assert trial.chain[0] in {c.base for c in cubes}

    def test_poor_count_bound_enforced(self, fixture_2d):
        samples = compiler.sample_set([F(1, 2), F(1, 2)], fixture_2d.params)
        flags = [False] * 3 + [True] * (len(samples) - 3)
        with pytest.raises(NotPanchromatic):
            compiler.panchromatic_from_samples(
                samples, flags, lambda q: 0, fixture_2d.grid)


class TestCompiledSemanticsOracle:
    def test_gadget_feeds_simulation_like_floor(self, fixture_2d):
        # on well-positioned reals, extracting bits and simulating the
        # circuit must equal evaluating the circuit at the floor point
        rng = random.Random(21)
        cb = fixture_2d.source
        gadget = extract_bits_gadget(2, L)
        sim = simulate_bool(cb)
        for _ in range(60):
            p = [F(rng.randint(0, 3 * 128), 128) + F(1, 512) for _ in range(2)]
            if not well_positioned(p, L):
                continue
            bits = []
            for coord in p:
                bits.extend(fixp.evaluate(gadget, [coord]))
            got = fixp.evaluate(sim, bits)
            floor = compiler.floor_point(p, fixture_2d.grid)
            assert got == [F(v) for v in brouwer.eval_bool(cb, floor)]

    def test_compiled_value_matches_hand_sampling(self, fixture_2d):
        # independent reimplementation: sample, floor, color, average, clamp
        rng = random.Random(22)
        cb = fixture_2d.source
        params = fixture_2d.params
        checked = 0
        for _ in range(40):
            p = [F(rng.randint(0, 3 * 64), 64) + F(1, 256) for _ in range(2)]
            samples = compiler.sample_set(p, params)
            if not all(well_positioned(s, L) for s in samples):
                continue
            total = [F(0), F(0)]
            for s in samples:
                inc = brouwer.increment(
                    brouwer.color_at(cb, compiler.floor_point(s, fixture_2d.grid)), 2)
                total = [a + b for a, b in zip(total, inc)]
            expected = []
            for i in range(2):
                moved = p[i] + total[i] / params.sample_count
                expected.append(min(max(moved, F(0)), F(3)))
            assert fixp.evaluate(fixture_2d.circuit, p) == expected
            checked += 1
        assert checked >= 25


def lowered_top(cf):
    """cf with one gate corrupted: the last output's upper clamp reads
    2^n - 2 instead of 2^n - 1, so exactly the grid points the discrete
    map sends to the top of the last coordinate disagree."""
    top = cf.grid.side - 1
    gates = list(cf.circuit.gates)
    neg_top = fixp.MulC(F(-1), gates.index(fixp.Const(F(top))))
    last = max(i for i, g in enumerate(gates) if g == neg_top)
    gates[last] = fixp.MulC(F(-(top - 1), top), neg_top.a)
    return replace(cf, circuit=replace(cf.circuit, gates=tuple(gates)))


class TestGridCheckAgainstReferee:
    """The batched grid check reports what the per-point Fraction loop reports."""

    def test_correct_circuit_passes_both(self, fixture_2d):
        assert compiler.grid_restriction_violations(fixture_2d) == []
        assert referee_grid_restriction_violations(fixture_2d) == []

    # 2 and 16 points fit in one chunk; 256 points span four
    @pytest.mark.parametrize("k,n", [(1, 1), (2, 2), (2, 4)])
    def test_corrupt_gate_reports_the_same_points_in_order(self, k, n):
        cf = lowered_top(compile_brouwer(make_example_coloring(Grid(k, n))))
        bad = compiler.grid_restriction_violations(cf)
        assert bad == referee_grid_restriction_violations(cf)
        top = cf.grid.side - 1
        assert [p for p, _, _ in bad] == [
            p for p in cf.grid.points() if brouwer.discrete_map(cf.source, p)[-1] == top]
        assert 0 < len(bad) < cf.grid.side ** k
        for _, expected, got in bad:
            assert expected[-1] == top and got[-1] == top - 1

    def test_last_chunk_shorter_than_the_rest(self, fixture_2d, monkeypatch):
        cf = lowered_top(fixture_2d)
        want = referee_grid_restriction_violations(cf)
        monkeypatch.setattr(compiler, "GRID_CHUNK", 7)   # 16 points: chunks of 7, 7, 2
        assert compiler.grid_restriction_violations(cf) == want != []


class TestSamplingParams:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            SamplingParams(40, 16)

    def test_density_must_exceed_threshold(self):
        with pytest.raises(ValueError):
            SamplingParams(16, 16)

    def test_density_must_exceed_sample_count(self):
        with pytest.raises(ValueError):
            SamplingParams(64, 81)
