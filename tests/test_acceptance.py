"""Acceptance gate: one test per criterion, each printing its verdict.

Everything here is exact rational arithmetic, so every tolerance is zero
unless a criterion states an explicit epsilon.  Run with `pytest -v` to
see the per-criterion pass/fail lines from pytest itself; each test also
prints an uncaptured ACCEPTANCE line.
"""

import random
from fractions import Fraction as F

import pytest

from nashforge import brouwer, compiler, exactmath as em, fixp, lcp, lp, nash
from nashforge.cli import SCHEMA, main

from conftest import (
    extract_bits_gadget, make_synthetic_trial, one_minus_circuit, random_lambda,
    random_raw_circuit, referee_is_upper_triangular, referee_mat_add, referee_transpose,
    sampled_increment_sum, swap_circuit,
)


def announce(capsys, line: str):
    with capsys.disabled():
        print(line, flush=True)


def build_chain(raw):
    P, prepared = lp.build_param_lp(raw)
    two_sided = lcp.normalize(P)
    return prepared, P, two_sided, lcp.build_game(two_sided), lcp.build_symmetric_game(P)


def known_instances():
    """Hand-written circuits with analytically known fixed points."""
    out = []

    b = fixp.Builder(1)
    out.append(("one_minus", b.build([b.one_minus(b.input(0))]), {(F(1, 2),)}, False))

    b = fixp.Builder(1)   # saturates the upper clamp at the 1 endpoint
    out.append(("double", b.build([b.mulc(2, b.input(0))]), {(F(0),), (F(1),)}, False))

    b = fixp.Builder(1)
    out.append(("halve", b.build([b.mulc(F(1, 2), b.input(0))]), {(F(0),)}, False))

    b = fixp.Builder(1)   # upper clamp active on half the domain
    out.append(("three_halves_minus",
                b.build([b.add(b.const(F(3, 2)), b.neg(b.input(0)))]), {(F(3, 4),)}, False))

    b = fixp.Builder(1)   # a genuine pre-clamp max gate
    out.append(("max_third",
                b.build([b.maxg(b.const(F(1, 3)), b.one_minus(b.input(0)))]),
                {(F(1, 2),)}, False))

    out.append(("swap", swap_circuit(), {(F(0), F(0)), (F(1), F(1))}, True))

    b = fixp.Builder(2)
    out.append(("mirror", b.build([b.one_minus(b.input(0)), b.input(0)]),
                {(F(1, 2), F(1, 2))}, False))
    return out


def test_criterion_1_extract_bits_exactness(capsys):
    """Gadget output equals the binary digits of floor(a) on every
    well-positioned point of the sweep a = t + j/(4 L^2), n=4, L=32."""
    n, L = 4, 32
    gadget = extract_bits_gadget(n, L)
    step = F(1, 4 * L * L)
    checked = 0
    for t in range(2 ** n):
        want = [F((t >> (n - 1 - i)) & 1) for i in range(n)]
        # fractional parts j*step for j <= 4L^2 - 4 stay outside the
        # poor window (1 - 1/L^2, 1)
        for j in range(0, 4 * L * L - 3):
            a = t + j * step
            assert compiler.well_positioned([a], L)
            assert fixp.evaluate(gadget, [a]) == want, f"bits wrong at t={t}, j={j}"
            checked += 1
    assert checked == 2 ** n * (4 * L * L - 3)
    announce(capsys, f"ACCEPTANCE 1 PASS: bit extraction exact on {checked} sweep points")


def test_criterion_2_lp_equals_circuit(capsys):
    """200 random prepared circuits, 10 parameter draws each: LP solution
    equals the max-gate trace, KKT verifies, dual bounded by beta."""
    rng = random.Random(2001)
    circuits = 0
    draws = 0
    while circuits < 200:
        k = rng.randint(1, 2)
        raw = random_raw_circuit(rng, k, 8 - 2 * k, const_bits=8)
        P, prepared = lp.build_param_lp(raw)
        assert P.m <= 8
        order = fixp.order_max_gates(prepared)
        for _ in range(10):
            lam = random_lambda(rng, k)   # spreads well outside [0,1]^k
            x = lp.solve_lp(P, lam)
            _, trace = fixp.evaluate_with_trace(prepared, lam)
            assert x == [trace[g] for g in order]
            y = lp.construct_dual(P, lam, x)
            assert not lp.kkt_violations(P, lam, x, y)
            assert all(yi <= bi for yi, bi in zip(y, P.beta))
            draws += 1
        circuits += 1
    announce(capsys, f"ACCEPTANCE 2 PASS: LP == circuit with KKT on {circuits} circuits"
                     f" x {draws // circuits} draws")


def test_criterion_3_grid_restriction(capsys):
    """Compiled function agrees with the discrete map on every grid point
    of the 2D and 3D fixtures."""
    points = 0
    for k in (2, 3):
        cb = brouwer.make_example_coloring(brouwer.Grid(k, 2))
        cf = compiler.compile_brouwer(cb)
        assert compiler.grid_restriction_violations(cf) == []
        points += 4 ** k
    announce(capsys, f"ACCEPTANCE 3 PASS: grid restriction exact on {points} points"
                     " (2D and 3D fixtures)")


def test_criterion_4_game_correspondence(capsys):
    """First-player strategies of the built games carry exactly the known
    fixed points; slack weights always positive."""
    for name, raw, known, continuum in known_instances():
        prepared, P, two_sided, game, _ = build_chain(raw)
        res = nash.enumerate_ne(game.A, game.B)
        assert res.equilibria, name
        lams = set()
        for cert in res.equilibria:
            assert cert.x[-1] > 0 and cert.y[-1] > 0, f"{name}: slack weight zero"
            x, y = lcp.ne_to_lcp(two_sided, cert.x, cert.y)
            assert not lcp.lcp_violations(two_sided, x + y), name
            lam = lcp.game_to_fixed_point(cert.x, game.meta)
            assert nash.check_fixed_point(prepared, lam), f"{name}: lambda not fixed"
            lams.add(tuple(lam))
        if continuum:
            assert res.degenerate, f"{name}: continuum must be flagged"
            assert known <= lams, f"{name}: basic solutions missing"
        else:
            assert lams == known, f"{name}: lambda set {lams} != {known}"
    announce(capsys, f"ACCEPTANCE 4 PASS: game equilibria carry the known fixed points"
                     f" on {len(known_instances())} instances")


def test_criterion_5_symmetric_path_agreement(capsys):
    """Symmetric-game route yields the same fixed points; imitation-game
    second strategies coincide with the symmetric equilibrium set."""
    for name, raw, known, continuum in known_instances():
        prepared, P, two_sided, game, sym = build_chain(raw)
        asym = {tuple(lcp.game_to_fixed_point(c.x, game.meta))
                for c in nash.enumerate_ne(game.A, game.B).equilibria}
        sres = nash.enumerate_symmetric_ne(sym.S)
        assert sres.equilibria, name
        sym_lams = set()
        for cert in sres.equilibria:
            assert cert.z[-1] > 0, f"{name}: symmetric slack weight zero"
            x = lcp.symne_to_lcp(P, cert.z)
            assert not lcp.lcp_violations(lcp.build_direct_lcp(P), x), name
            lam = lcp.game_to_fixed_point(cert.z, sym.meta)
            assert nash.check_fixed_point(prepared, lam), name
            sym_lams.add(tuple(lam))
        assert sym_lams == asym, f"{name}: paths disagree: {sym_lams} != {asym}"
        imi = lcp.imitation_game(sym)
        second = {tuple(c.y) for c in nash.enumerate_ne(imi.A, imi.B).equilibria}
        direct = {tuple(c.z) for c in sres.equilibria}
        assert second == direct, f"{name}: imitation second strategies differ"
    announce(capsys, "ACCEPTANCE 5 PASS: symmetric and imitation routes agree on"
                     f" {len(known_instances())} instances")


def test_criterion_6_rank_and_triangularity(capsys):
    """rank(A+B) <= k+1 with A upper-triangular on every built game, and
    the symmetrized block game stays within twice that rank."""
    rng = random.Random(2006)
    raws = [(name, raw) for name, raw, _, _ in known_instances()]
    for i in range(10):
        k = rng.randint(1, 2)
        raws.append((f"random_{i}", random_raw_circuit(rng, k, 4)))
    for name, raw in raws:
        _, P, two_sided, game, _ = build_chain(raw)
        assert referee_is_upper_triangular(game.A), name
        assert em.rank(referee_mat_add(game.A, game.B)) <= P.k + 1, name
        sym = lcp.symmetrize(game.A_rows, game.B_rows, P.m + 1)
        st = referee_mat_add(sym.S, referee_transpose(sym.S))
        assert em.rank(st) <= 2 * (P.k + 1), name
    announce(capsys, f"ACCEPTANCE 6 PASS: rank and triangularity bounds on"
                     f" {len(raws)} games")


def test_criterion_7_semimonotone_battery(capsys):
    """1000 seeded draws per instance: a violated condition is always
    found, never a lemma-falsification alarm."""
    rng = random.Random(2007)
    trials_per_instance = 1000
    total = 0
    for name, raw, _, _ in known_instances():
        _, P, two_sided, _, _ = build_chain(raw)
        dim = 2 * P.m
        for _ in range(trials_per_instance):
            z = [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(dim)]
            if all(v == 0 for v in z):
                z[rng.randrange(dim)] = F(1)
            q = [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(dim)]
            witness = lcp.semimonotone_witness(two_sided, z, q)   # alarm would raise
            assert witness
            total += 1
    announce(capsys, f"ACCEPTANCE 7 PASS: {total} semimonotone draws all witnessed")


def test_criterion_8_sampling_lemma_extraction(capsys):
    """100 seeded synthetic colorings with increment drift zero or below
    one: the extracted cell set is panchromatic per the brute-force oracle."""
    rng = random.Random(2008)
    for trial_idx in range(100):
        k = 2 if trial_idx % 2 == 0 else 3
        exact_zero = trial_idx % 4 < 2
        trial = make_synthetic_trial(rng, k, exact_zero)
        total = sampled_increment_sum(
            trial.samples, trial.well_flags, trial.color_fn, trial.grid,
            trial.poor_incs)
        drift = max(abs(v) for v in total)
        assert drift == 0 if exact_zero else drift < 1
        cells = compiler.panchromatic_from_samples(
            trial.samples, trial.well_flags, trial.color_fn, trial.grid)
        assert set(cells) == set(trial.chain)
        colors = {trial.color_fn(c) for c in cells}
        assert colors == set(range(k + 1))
        oracle = brouwer.panchromatic_cubes(trial.color_fn, trial.grid)
        assert trial.chain[0] in {c.base for c in oracle}
    announce(capsys, "ACCEPTANCE 8 PASS: 100 synthetic sampling trials extracted"
                     " verified panchromatic simplices")


def test_criterion_9_negative_controls(tmp_path, capsys):
    """50 seeded single-entry corruptions all rejected by the matching
    checker; the CLI verifier exits nonzero on a corrupted game file."""
    import json

    rng = random.Random(2009)
    # full-support instances so any payoff corruption must break tightness
    instances = [known_instances()[i] for i in (0, 3)]
    prepared_data = []
    for name, raw, _, _ in instances:
        prepared, P, two_sided, game, sym = build_chain(raw)
        cert = nash.enumerate_ne(game.A, game.B).equilibria[0]
        x, y = lcp.ne_to_lcp(two_sided, cert.x, cert.y)
        lam = lcp.game_to_fixed_point(cert.x, game.meta)
        prepared_data.append((P, two_sided, game, cert, x, y, lam))

    rejected = 0
    for _ in range(50):
        P, two_sided, game, cert, x, y, lam = prepared_data[rng.randrange(len(prepared_data))]
        delta = F(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice([1, -1])
        mode = rng.randrange(5)
        if mode == 0:      # corrupt a payoff entry
            target = [row[:] for row in (game.A if rng.random() < 0.5 else game.B)]
            i = rng.randrange(len(target))
            j = rng.randrange(len(target))
            target[i][j] += delta
            if target is not game.A:
                ok = nash.check_ne(game.A, target, cert.x, cert.y)
            else:
                ok = nash.check_ne(target, game.B, cert.x, cert.y)
            assert not ok
        elif mode == 1:    # corrupt a strategy weight without renormalizing
            xx = list(cert.x)
            xx[rng.randrange(len(xx))] += delta
            assert not nash.check_ne(game.A, game.B, xx, cert.y)
        elif mode == 2:    # shift weight between two coordinates
            yy = list(cert.y)
            i, j = rng.sample(range(len(yy)), 2)
            eps = F(1, rng.randint(7, 23))
            yy[i] += eps
            yy[j] -= eps
            if all(v >= 0 for v in yy):
                assert not nash.check_ne(game.A, game.B, cert.x, yy)
        elif mode == 3:    # corrupt an LCP coordinate
            zz = x + y
            zz[rng.randrange(len(zz))] += abs(delta)
            assert lcp.lcp_violations(two_sided, zz)
        else:              # corrupt the dual certificate
            xs = lp.solve_lp(P, lam)
            ys = lp.construct_dual(P, lam, xs)
            ys[rng.randrange(len(ys))] += delta
            assert lp.kkt_violations(P, lam, xs, ys)
        rejected += 1
    assert rejected == 50

    # CLI: a corrupted game artifact must fail verification
    circ_path = tmp_path / "circ.json"
    doc = {"schema": SCHEMA, "kind": "circuit"}
    doc.update(fixp.circuit_to_json(one_minus_circuit()))
    circ_path.write_text(json.dumps(doc))
    game_path = tmp_path / "game.json"
    assert main(["reduce", str(circ_path), "--target", "game", "-o", str(game_path)]) == 0
    gdoc = json.loads(game_path.read_text())
    gdoc["B"][0][0] = "9/2"
    game_path.write_text(json.dumps(gdoc))
    assert main(["verify", str(game_path)]) != 0
    announce(capsys, "ACCEPTANCE 9 PASS: 50 corruptions rejected; verifier exits"
                     " nonzero on a corrupted artifact")
