"""Cross-route checks on random instances.

The two game constructions (via the scaled LP system and via the direct
complementarity system) are independent implementations of the same
fixed-point semantics, so their agreement on random circuits is the
strongest oracle this suite has for instances without analytically known
fixed points.
"""

import random
from fractions import Fraction as F

from nashforge import fixp, lcp, lp, nash

from conftest import random_raw_circuit


def random_contraction_circuit(rng):
    """Affine contraction with a known interior fixed point.

    One dimension: F(x) = a x + c with |a| < 1 and the solution of
    F(t) = t placed strictly inside (0, 1); two dimensions couple the
    coordinates, keeping the product of slopes below one.  Optionally a
    max gate with a strictly inactive floor is mixed in, which leaves the
    fixed point (and nondegeneracy) untouched.
    """
    k = rng.randint(1, 2)
    b = fixp.Builder(k)
    if k == 1:
        a = F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(8, 11))
        t = F(rng.randint(1, 7), 8)
        c = t * (1 - a)
        expr = b.add(b.mulc(a, b.input(0)), b.const(c))
        if rng.random() < 0.5:
            floor = t - F(rng.randint(1, 8), 64)
            if floor > 0:
                expr = b.maxg(b.const(floor), expr)
        return b.build([expr]), {(t,)}
    a1 = F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(6, 9))
    a2 = F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(6, 9))
    t1 = F(rng.randint(2, 6), 8)
    t2 = F(rng.randint(2, 6), 8)
    c1 = t1 - a1 * t2
    c2 = t2 - a2 * t1
    if not (0 < c1 + min(a1, 0) and c1 + max(a1, 0) < 1
            and 0 < c2 + min(a2, 0) and c2 + max(a2, 0) < 1):
        return random_contraction_circuit(rng)   # redraw until interior
    o1 = b.add(b.mulc(a1, b.input(1)), b.const(c1))
    o2 = b.add(b.mulc(a2, b.input(0)), b.const(c2))
    return b.build([o1, o2]), {(t1, t2)}


def test_routes_agree_on_random_contractions():
    rng = random.Random(424242)
    compared = 0
    for _ in range(40):
        raw, known = random_contraction_circuit(rng)
        P, prepared = lp.build_param_lp(raw)
        game = lcp.build_game(lcp.normalize(P))
        sym = lcp.build_symmetric_game(P)

        res = nash.enumerate_ne(game.A, game.B)
        sres = nash.enumerate_symmetric_ne(sym.S)
        lams = set()
        for cert in res.equilibria:
            lam = lcp.game_to_fixed_point(cert.x, game.meta)
            assert nash.check_fixed_point(prepared, lam)
            lams.add(tuple(lam))
        sym_lams = set()
        for cert in sres.equilibria:
            lam = lcp.game_to_fixed_point(cert.z, sym.meta)
            assert nash.check_fixed_point(prepared, lam)
            sym_lams.add(tuple(lam))
        assert lams == known
        assert sym_lams == known
        if not (res.degenerate or sres.degenerate):
            compared += 1
    assert compared >= 10


def test_routes_on_unstructured_random_circuits():
    # saturating circuits are usually degenerate; the fixed-point referee
    # must still hold for every equilibrium either route returns
    rng = random.Random(434343)
    for _ in range(30):
        k = rng.randint(1, 2)
        raw = random_raw_circuit(rng, k, 2)
        P, prepared = lp.build_param_lp(raw)
        game = lcp.build_game(lcp.normalize(P))
        sym = lcp.build_symmetric_game(P)
        for cert in nash.enumerate_ne(game.A, game.B).equilibria:
            lam = lcp.game_to_fixed_point(cert.x, game.meta)
            assert nash.check_fixed_point(prepared, lam)
        for cert in nash.enumerate_symmetric_ne(sym.S).equilibria:
            lam = lcp.game_to_fixed_point(cert.z, sym.meta)
            assert nash.check_fixed_point(prepared, lam)


def test_lemke_howson_lands_in_enumerated_set():
    rng = random.Random(515151)
    agreements = 0
    for _ in range(30):
        raw, known = random_contraction_circuit(rng)
        P, prepared = lp.build_param_lp(raw)
        game = lcp.build_game(lcp.normalize(P))
        res = nash.enumerate_ne(game.A, game.B)
        if res.degenerate:
            continue
        label = rng.randrange(2 * (P.m + 1))
        cert = nash.lemke_howson(game.A, game.B, label)
        assert tuple(cert.x) in {tuple(c.x) for c in res.equilibria}
        lam = lcp.game_to_fixed_point(cert.x, game.meta)
        assert nash.check_fixed_point(prepared, lam)
        agreements += 1
    assert agreements >= 7


def test_identity_circuit_extreme_continuum():
    # F(x) = x: every point of [0,1] is fixed; enumeration must flag the
    # continuum and every extracted value must still be a fixed point
    b = fixp.Builder(1)
    raw = b.build([b.input(0)])
    P, prepared = lp.build_param_lp(raw)
    game = lcp.build_game(lcp.normalize(P))
    res = nash.enumerate_ne(game.A, game.B)
    assert res.degenerate
    lams = set()
    for cert in res.equilibria:
        assert cert.x[-1] > 0 and cert.y[-1] > 0
        lam = lcp.game_to_fixed_point(cert.x, game.meta)
        assert nash.check_fixed_point(prepared, lam)
        lams.add(lam[0])
    assert {F(0), F(1)} <= lams   # endpoints of the fixed segment recovered

    sym = lcp.build_symmetric_game(P)
    sres = nash.enumerate_symmetric_ne(sym.S)
    assert sres.degenerate
    for cert in sres.equilibria:
        lam = lcp.game_to_fixed_point(cert.z, sym.meta)
        assert nash.check_fixed_point(prepared, lam)


def test_fixed_points_found_by_solver_match_direct_scan():
    # one-dimensional circuits: binary search over the piecewise-linear
    # function is an independent way to find every fixed point
    rng = random.Random(616161)
    for _ in range(15):
        raw = random_raw_circuit(rng, 1, 3)
        P, prepared = lp.build_param_lp(raw)
        game = lcp.build_game(lcp.normalize(P))
        res = nash.enumerate_ne(game.A, game.B)
        lams = {lcp.game_to_fixed_point(c.x, game.meta)[0] for c in res.equilibria}

        # independent oracle: scan the dyadic grid for sign changes of
        # F(x) - x and pin each root exactly by bisection on the lattice
        def displacement(v):
            return fixp.evaluate(prepared, [v])[0] - v

        grid_fps = set()
        steps = 256
        prev = displacement(F(0))
        if prev == 0:
            grid_fps.add(F(0))
        for i in range(1, steps + 1):
            v = F(i, steps)
            cur = displacement(v)
            if cur == 0:
                grid_fps.add(v)
            elif prev * cur < 0:
                lo, hi = F(i - 1, steps), v
                flo = displacement(lo)
                for _ in range(200):
                    mid = (lo + hi) / 2
                    fm = displacement(mid)
                    if fm == 0:
                        grid_fps.add(mid)
                        break
                    if flo * fm < 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
            prev = cur
        # every bisection-found fixed point must appear among the solver's
        # lambdas unless the instance was flagged degenerate (continua)
        if not res.degenerate:
            assert grid_fps <= lams
        for lam in lams:
            assert displacement(lam) == 0
