import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashforge import exactmath as em
from nashforge import lcp, lp, nash
from nashforge.lcp import (
    LemmaFalsified, build_direct_lcp, build_game, build_symmetric_game, game_from_json,
    game_to_fixed_point, game_to_json, imitation_game, lcp_to_ne, lcp_to_symne, lcp_violations,
    ne_to_lcp, normalize, scale_solution, semimonotone_witness, symmetrize, symne_to_lcp,
)

from conftest import (
    ne_to_symmetrized, one_minus_circuit, random_raw_circuit, referee_build_direct_lcp,
    referee_build_game, referee_build_lcp_C, referee_build_symmetric_game, referee_identity,
    referee_is_upper_triangular, referee_lcp_violations, referee_mat_add, referee_mat_vec,
    referee_normalize, referee_transpose, sparse_rows, symmetrized_to_ne,
)
from test_fixp import raw_builder_circuits


def frac_mat(rows):
    return [[F(v) for v in row] for row in rows]


@pytest.fixture(scope="module")
def worked():
    P, prepared = lp.build_param_lp(one_minus_circuit())
    two_sided = normalize(P)
    return P, prepared, two_sided


def blocks(two_sided):
    """H and H' read back, dense, off the blocks of M = [[0, H^T], [-H', 0]];
    the two zero blocks hold no entry."""
    m = two_sided.lp.m
    top, bottom = two_sided.M[:m], two_sided.M[m:]
    assert all(j >= m for row in top for j in row) and all(j < m for row in bottom for j in row)
    HT = em.densify([{j - m: v for j, v in row.items()} for row in top], m)
    return [list(col) for col in zip(*HT)], [[-v for v in row] for row in em.densify(bottom, m)]


class TestNormalize:
    def test_scaled_matrix(self, worked):
        _, _, two_sided = worked
        assert blocks(two_sided)[0] == frac_mat([[F(1, 2), 0], [F(1, 2), 1]])

    def test_substituted_matrix(self, worked):
        _, _, two_sided = worked
        assert blocks(two_sided)[1] == frac_mat([[F(1, 2), -1], [F(1, 2), 1]])

    def test_unit_cost_at_outputs_enforced(self, worked):
        P, _, _ = worked
        broken = replace(P, c=[F(2), F(2)])
        with pytest.raises(LemmaFalsified):
            normalize(broken)


class TestScaleSolution:
    def test_worked_scaling(self, worked):
        P, _, _ = worked
        assert scale_solution(P, [F(1, 2), F(1, 2)]) == [F(1), F(1, 2)]

    def test_identity_when_cost_is_ones(self, worked):
        P, _, _ = worked
        unit = replace(P, c=[F(1), F(1)])
        assert scale_solution(unit, [F(1, 3), F(2, 3)]) == [F(1, 3), F(2, 3)]


class TestLcpC:
    def test_worked_solution_accepted(self, worked):
        _, _, two_sided = worked
        assert not lcp_violations(two_sided, [F(1), F(1, 2), F(1), F(1)])

    def test_zero_x_violates_threshold_row(self, worked):
        _, _, two_sided = worked
        bad = lcp_violations(two_sided, [F(0), F(0), F(1), F(1)])
        assert any("row 3" in v for v in bad)   # -H'x <= -b fails at the clamp row

    def test_inflated_dual_rejected(self, worked):
        _, _, two_sided = worked
        # (H^T y)_1 = 2*1/2 + 1/2 = 3/2 > 1
        bad = lcp_violations(two_sided, [F(1), F(1, 2), F(2), F(1)])
        assert any("row 0" in v for v in bad)


class TestDirectLcp:
    def test_worked_matrix(self, worked):
        P, _, _ = worked
        assert em.densify(lcp._direct_rows(P), P.m) == frac_mat([[1, -1], [1, 1]])

    def test_worked_solution(self, worked):
        P, _, _ = worked
        inst = build_direct_lcp(P)
        assert not lcp_violations(inst, [F(1, 2), F(1, 2)])

    def test_feasible_but_not_complementary(self, worked):
        P, _, _ = worked
        inst = build_direct_lcp(P)
        bad = lcp_violations(inst, [F(1), F(0)])
        assert any("complementarity" in v for v in bad)

    def test_solution_carries_fixed_point(self, worked):
        P, prepared, _ = worked
        x = [F(1, 2), F(1, 2)]
        lam = [x[r] for r in P.output_rows]
        assert lam == [F(1, 2)]
        assert nash.check_fixed_point(prepared, lam)


class TestSemimonotone:
    def test_zero_rejected_by_precondition(self, worked):
        _, _, two_sided = worked
        with pytest.raises(ValueError):
            semimonotone_witness(two_sided, [F(0)] * 4, [F(1)] * 4)

    @pytest.mark.parametrize("z, q, message", [
        ([F(1), F(-1, 2), F(0), F(0)], [F(1)] * 4, "z must be nonnegative and nonzero"),
        ([F(0)] * 4, [F(1)] * 4, "z must be nonnegative and nonzero"),
        ([F(1), F(0), F(0), F(0)], [F(1), F(0), F(1), F(1)], "q must be strictly positive"),
    ], ids=["negative-z", "zero-z", "zero-q"])
    def test_preconditions_refused(self, worked, z, q, message):
        _, _, two_sided = worked
        with pytest.raises(ValueError, match=message):
            semimonotone_witness(two_sided, z, q)

    def test_worked_witness(self, worked):
        _, _, two_sided = worked
        msg = semimonotone_witness(two_sided, [F(1), F(0), F(0), F(0)], [F(1)] * 4)
        assert "complementarity" in msg

    def test_random_battery_never_alarms(self, worked, rng):
        _, _, two_sided = worked
        for _ in range(300):
            z = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(4)]
            if all(v == 0 for v in z):
                z[rng.randrange(4)] = F(1)
            q = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(4)]
            semimonotone_witness(two_sided, z, q)   # raising LemmaFalsified would fail


class TestGames:
    def test_worked_first_matrix(self, worked):
        _, _, two_sided = worked
        game = build_game(two_sided)
        assert game.A == frac_mat([[F(1, 2), F(1, 2), 0], [0, 1, 0], [0, 0, 1]])

    def test_worked_second_matrix(self, worked):
        _, _, two_sided = worked
        game = build_game(two_sided)
        assert game.B == frac_mat([[F(-1, 2), F(-1, 2), 0], [1, -1, 0], [1, 2, 1]])

    def test_rank_bound_tight_on_worked_instance(self, worked):
        _, _, two_sided = worked
        game = build_game(two_sided)
        assert em.rank(referee_mat_add(game.A, game.B)) == 2   # = k + 1

    def test_symmetric_matrix(self, worked):
        P, _, _ = worked
        sym = build_symmetric_game(P)
        assert sym.S == frac_mat([[-1, 1, 1], [-1, -1, 2], [0, 0, 1]])

    def test_symmetric_shape_facts(self, rng):
        for _ in range(10):
            P, _ = lp.build_param_lp(random_raw_circuit(rng, rng.randint(1, 2), 3))
            sym = build_symmetric_game(P)
            assert len(sym.S) == P.m + 1
            assert sym.S[-1] == [F(0)] * P.m + [F(1)]

    def test_rank_and_triangularity_on_random_instances(self, rng):
        for _ in range(10):
            k = rng.randint(1, 2)
            P, _ = lp.build_param_lp(random_raw_circuit(rng, k, 3))
            game = build_game(normalize(P))
            assert referee_is_upper_triangular(game.A)
            assert em.rank(referee_mat_add(game.A, game.B)) <= k + 1


class TestPayoffSumCertificate:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 2]))
    def test_matches_dense_formulas(self, seed, k):
        P, _ = lp.build_param_lp(random_raw_circuit(random.Random(seed), k, 3))
        two_sided = normalize(P)
        # H = A diag(1/c), Hp = H - sum_l u^l e_{r_l}^T, entry by entry
        H = [[a / c for a, c in zip(row, P.c)] for row in P.A]
        Hp = H
        for r, u in zip(P.output_rows, P.U):
            Hp = [[h - ui * (j == r) for j, h in enumerate(row)] for row, ui in zip(Hp, u)]
        assert blocks(two_sided) == (H, Hp)
        game = build_game(two_sided)
        total = referee_mat_add(game.A, game.B)
        assert sum(map(any, total)) <= k + 1
        assert em.rank(total) == lcp.payoff_sum_rank(game.A_rows, game.B_rows) <= k + 1

    def test_nonzero_row_outside_outputs_alarms(self, worked):
        P, _, two_sided = worked
        assert P.output_rows == (1,)
        # H'[1][0], at M[m + 1][0], sits in column 0, not an output column; it
        # reaches B[0][1] and makes row 0 of A + B nonzero
        M = [dict(row) for row in two_sided.M]
        M[P.m + 1][0] -= 1
        with pytest.raises(LemmaFalsified, match=r"row 0 of A \+ B"):
            build_game(replace(two_sided, M=M))

    def test_slack_row_checked(self, worked):
        P, _, two_sided = worked
        # q = (1, -b), so lowering its x rows by one raises b by one
        q = two_sided.q[:P.m] + [v - 1 for v in two_sided.q[P.m:]]
        with pytest.raises(LemmaFalsified, match=r"row 2 of A \+ B"):
            build_game(replace(two_sided, q=q))


class TestStructureChecksMatchDenseReferees:
    """payoff_sum_rank is the Bareiss rank of the dense A + B, and the
    sparse is_upper_triangular the dense triangularity test."""

    @settings(max_examples=40, deadline=None)
    @given(raw_builder_circuits())
    def test_games_symmetrizations_and_a_zero_sum_game(self, circ):
        P, _ = lp.build_param_lp(circ)
        n = P.m + 1
        game = build_game(normalize(P))
        sym = build_symmetric_game(P)
        smm = symmetrize(game.A_rows, game.B_rows, n)
        neg = [{j: -v for j, v in row.items()} for row in game.A_rows]
        cases = [(game.A_rows, game.B_rows), (sym.S_rows, em.sparse_transpose(sym.S_rows, n)),
                 (smm.S_rows, em.sparse_transpose(smm.S_rows, 2 * n)), (game.A_rows, neg)]
        for A_rows, B_rows in cases:
            A, B = em.densify(A_rows, len(A_rows)), em.densify(B_rows, len(B_rows))
            assert lcp.payoff_sum_rank(A_rows, B_rows) == em.rank(referee_mat_add(A, B))
            for rows, dense in ((A_rows, A), (B_rows, B)):
                assert em.is_upper_triangular(rows) == referee_is_upper_triangular(dense)
        # the zero-sum game's A + B has no nonzero row
        assert lcp.payoff_sum_rank(game.A_rows, neg) == 0


class TestSparseRowsMatchDenseReferees:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([1, 2]))
    def test_builders_and_checkers(self, seed, k):
        rng = random.Random(seed)
        P, _ = lp.build_param_lp(random_raw_circuit(rng, k, 3))
        two_sided, dense = normalize(P), referee_normalize(P)
        for inst, (M, q) in ((two_sided, referee_build_lcp_C(dense)),
                             (build_direct_lcp(P), referee_build_direct_lcp(P))):
            assert em.densify(inst.M, len(M)) == M and inst.q == q
            for _ in range(5):
                z = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in M]
                assert lcp_violations(inst, z) == referee_lcp_violations(M, q, z)
        game, sym = build_game(two_sided), build_symmetric_game(P)
        assert (game.A, game.B, game.meta) == referee_build_game(dense)
        assert (sym.S, sym.meta) == referee_build_symmetric_game(P)
        M, _ = referee_build_lcp_C(dense)
        for _ in range(10):
            z = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in M]
            z[rng.randrange(len(z))] = F(1)
            q = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in M]
            try:
                witness = semimonotone_witness(two_sided, z, q)
            except LemmaFalsified:
                witness = None
            assert bool(witness) == bool(referee_lcp_violations(M, q, z))


LCP_ENTRIES = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def lcp_cases(draw):
    """An n x n M (all zero, or with zeros and mixed denominators), a
    rational q and a z with negative entries among them; in half the draws
    q is moved to Mz plus a slack that is zero wherever z is nonzero, so
    that every condition but z >= 0 can hold."""
    n = draw(st.integers(1, 5))
    entries = draw(st.sampled_from([st.just(F(0)), LCP_ENTRIES]))
    M = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    z = draw(st.lists(LCP_ENTRIES, min_size=n, max_size=n))
    q = draw(st.lists(LCP_ENTRIES, min_size=n, max_size=n))
    if draw(st.booleans()):
        q = [v + (abs(s) if not zi else 0) for v, s, zi in zip(referee_mat_vec(M, z), q, z)]
    return M, q, z


class TestLcpCheckerMatchesFractionReferee:
    @settings(max_examples=300, deadline=None)
    @given(case=lcp_cases())
    def test_same_messages(self, worked, case):
        M, q, z = case
        inst = replace(build_direct_lcp(worked[0]), M=sparse_rows(M), q=q)
        assert lcp_violations(inst, z) == referee_lcp_violations(M, q, z)


def test_semimonotone_battery_builds_the_lcp_once(monkeypatch, worked):
    calls = []
    build = lcp.normalize
    monkeypatch.setattr(lcp, "normalize", lambda P: calls.append(P) or build(P))
    two_sided = lcp.normalize(worked[0])
    rng = random.Random(7)
    n = len(two_sided.M)
    for _ in range(40):
        z = [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
        z[rng.randrange(n)] = F(1)
        assert semimonotone_witness(two_sided, z, [F(rng.randint(1, 8), rng.randint(1, 4))
                                                   for _ in range(n)])
    assert calls == [worked[0]]
    assert two_sided.q == build(worked[0]).q     # the witnesses left the shared q alone


def test_semimonotone_battery_clears_the_rows_once(monkeypatch, worked):
    # the shared LCP's rows are cleared on the first check; after that each
    # check clears only its z
    two_sided = normalize(worked[0])
    calls = []
    clear = lcp.int_vec
    monkeypatch.setattr(lcp, "int_vec", lambda v: calls.append(v) or clear(v))
    rng = random.Random(7)
    n = len(two_sided.M)
    for _ in range(40):
        z = [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
        z[rng.randrange(n)] = F(1)
        semimonotone_witness(two_sided, z,
                             [F(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n)])
    assert len(calls) == len(two_sided.M) + 40


def test_direct_lcp_refused_where_the_two_sided_one_is_needed(worked):
    # the shifted block of the direct M would have negative columns, and the
    # witness would test its lemma on the wrong matrix
    direct = build_direct_lcp(worked[0])
    with pytest.raises(ValueError, match="build_game needs the two-sided LCP, got a 'direct'"):
        build_game(direct)
    n = len(direct.M)
    with pytest.raises(ValueError, match="witness needs the two-sided LCP, got a 'direct'"):
        semimonotone_witness(direct, [F(1)] * n, [F(1)] * n)


def test_lcp_layer_never_reads_dense_A(monkeypatch, rng):
    reads = []
    dense_view = lp.ParamLP.A
    monkeypatch.setattr(lp.ParamLP, "A",
                        property(lambda P: reads.append(P.m) or dense_view.fget(P)))
    for circ in (one_minus_circuit(), random_raw_circuit(rng, 2, 3)):
        P, _ = lp.build_param_lp(circ)
        two_sided = normalize(P)
        build_direct_lcp(P)
        game = build_game(two_sided)
        sym = build_symmetric_game(P)
        n = 2 * P.m
        assert semimonotone_witness(two_sided, [F(1)] + [F(0)] * (n - 1), [F(1)] * n)
        cert = nash.lemke_howson(game.A, game.B)
        ne_to_lcp(two_sided, cert.x, cert.y)
        imi = imitation_game(sym)
        symne_to_lcp(P, nash.lemke_howson(imi.A, imi.B).y)
        lam = [F(1, 3)] * P.k
        x = lp.solve_lp(P, lam)
        assert not lp.kkt_violations(P, lam, x, lp.construct_dual(P, lam, x))
    assert reads == []


class TestGamesAsSparseRows:
    """The games hold sparse rows with no stored zero; their dense views are
    the referees' games, and the wire gives back equal games."""

    @settings(max_examples=40, deadline=None)
    @given(raw_builder_circuits(), st.sampled_from(["0", "0/7", "-0", 0]))
    def test_views_rows_and_wire(self, circ, zero):
        P, _ = lp.build_param_lp(circ)
        n = P.m + 1
        game, sym = build_game(normalize(P)), build_symmetric_game(P)
        imi = imitation_game(sym)
        smm = symmetrize(game.A_rows, game.B_rows, n)
        A, B, meta = referee_build_game(referee_normalize(P))
        S, sym_meta = referee_build_symmetric_game(P)
        blank = [F(0)] * n
        assert (game.A, game.B, game.meta) == (A, B, meta)
        assert (sym.S, sym.meta) == (S, sym_meta)
        assert (imi.A, imi.B, imi.meta) == (S, referee_identity(n),
                                            replace(sym_meta, kind="imitation"))
        assert smm.S == [blank + row for row in A] + [list(col) + blank for col in zip(*B)]
        for rows in (game.A_rows, game.B_rows, sym.S_rows, imi.A_rows, imi.B_rows, smm.S_rows):
            assert all(v != 0 for row in rows for v in row.values())
        as_read = lcp.BimatrixGame(sym.S_rows, em.sparse_transpose(sym.S_rows, n), sym.meta)
        for written, want in ((game, game), (sym, as_read), (imi, imi)):
            doc = json.loads(json.dumps(game_to_json(written)))
            for key in ("A", "B"):
                doc[key] = [[zero if s == "0" else s for s in row] for row in doc[key]]
            assert game_from_json(doc) == want


def test_game_layer_never_reads_dense_views(monkeypatch, rng):
    def refuse(game):
        raise AssertionError("dense game view read")
    for cls, view in ((lcp.BimatrixGame, "A"), (lcp.BimatrixGame, "B"),
                      (lcp.SymmetricGame, "S")):
        monkeypatch.setattr(cls, view, property(refuse))
    for circ in (one_minus_circuit(), random_raw_circuit(rng, 2, 3)):
        P, _ = lp.build_param_lp(circ)
        game = build_game(normalize(P))
        sym = build_symmetric_game(P)
        lcp.payoff_sum_rank(game.A_rows, game.B_rows)
        for g in (game, sym, imitation_game(sym), symmetrize(game.A_rows, game.B_rows, P.m + 1)):
            game_from_json(game_to_json(g))


class TestNeLcpMappings:
    def test_worked_ne_to_lcp(self, worked):
        _, _, two_sided = worked
        x, y = ne_to_lcp(two_sided, [F(2, 5), F(1, 5), F(2, 5)], [F(1, 3), F(1, 3), F(1, 3)])
        assert (x, y) == ([F(1), F(1, 2)], [F(1), F(1)])

    def test_zero_slack_is_alarm(self, worked):
        _, _, two_sided = worked
        with pytest.raises(LemmaFalsified):
            ne_to_lcp(two_sided, [F(1, 2), F(1, 2), F(0)], [F(1, 3), F(1, 3), F(1, 3)])

    def test_lcp_to_ne(self):
        xt, yt = lcp_to_ne([F(1), F(1, 2)], [F(1), F(1)])
        assert xt == [F(2, 5), F(1, 5), F(2, 5)]
        assert yt == [F(1, 3), F(1, 3), F(1, 3)]

    def test_mutually_inverse(self, worked):
        _, _, two_sided = worked
        x, y = [F(1), F(1, 2)], [F(1), F(1)]
        xt, yt = lcp_to_ne(x, y)
        assert ne_to_lcp(two_sided, xt, yt) == (x, y)

    def test_symmetric_pair(self, worked):
        P, _, _ = worked
        z = [F(1, 4), F(1, 4), F(1, 2)]
        x = symne_to_lcp(P, z)
        assert x == [F(1, 2), F(1, 2)]
        assert lcp_to_symne(x) == z

    def test_symmetric_zero_slack_is_alarm(self, worked):
        P, _, _ = worked
        with pytest.raises(LemmaFalsified):
            symne_to_lcp(P, [F(1, 2), F(1, 2), F(0)])


class TestFixedPointExtraction:
    def test_worked_lambda(self, worked):
        _, _, two_sided = worked
        game = build_game(two_sided)
        lam = game_to_fixed_point([F(2, 5), F(1, 5), F(2, 5)], game.meta)
        assert lam == [F(1, 2)]

    def test_symmetric_path_same_lambda(self, worked):
        P, _, _ = worked
        sym = build_symmetric_game(P)
        assert game_to_fixed_point([F(1, 4), F(1, 4), F(1, 2)], sym.meta) == [F(1, 2)]

    def test_distinct_first_strategies_distinct_lambdas(self, rng):
        # injectivity on the instance with two fixed points: 2*lam clamped
        from nashforge import fixp
        b = fixp.Builder(1)
        raw = b.build([b.mulc(2, b.input(0))])
        P, prepared = lp.build_param_lp(raw)
        game = build_game(normalize(P))
        res = nash.enumerate_ne(game.A, game.B)
        by_x = {}
        for cert in res.equilibria:
            by_x.setdefault(tuple(cert.x), set()).add(
                tuple(game_to_fixed_point(cert.x, game.meta)))
        lams = [next(iter(v)) for v in by_x.values()]
        assert all(len(v) == 1 for v in by_x.values())
        assert len(set(lams)) == len(set(by_x))   # distinct x -> distinct lambda


class TestSymmetrize:
    def test_zero_games(self):
        sym = symmetrize([{}, {}], [{}, {}], 2)
        assert sym.S == frac_mat([[0] * 4] * 4)

    def test_worked_rank_doubles(self, worked):
        _, _, two_sided = worked
        game = build_game(two_sided)
        sym = symmetrize(game.A_rows, game.B_rows, 3)
        assert len(sym.S) == 6
        st = referee_mat_add(sym.S, referee_transpose(sym.S))
        assert em.rank(st) == 2 * em.rank(referee_mat_add(game.A, game.B))

    def test_equilibrium_embeds_and_splits(self, worked):
        _, _, two_sided = worked
        game = build_game(two_sided)
        cert = nash.enumerate_ne(game.A, game.B).equilibria[0]
        sym = symmetrize(game.A_rows, game.B_rows, 3)
        z = ne_to_symmetrized(cert.x, cert.y, cert.pi1, cert.pi2)
        assert not nash.symmetric_ne_violations(sym.S, z)
        x, y = symmetrized_to_ne(z, 3)
        assert nash.check_ne(game.A, game.B, x, y)

    def test_solver_found_symmetric_ne_maps_back(self, worked):
        _, _, two_sided = worked
        game = build_game(two_sided)
        sym = symmetrize(game.A_rows, game.B_rows, 3)
        res = nash.enumerate_symmetric_ne(sym.S)
        mapped = 0
        for cert in res.equilibria:
            try:
                x, y = symmetrized_to_ne(cert.z, 3)
            except ValueError:
                continue   # an all-zero half cannot correspond to a profile
            assert nash.check_ne(game.A, game.B, x, y)
            mapped += 1
        assert mapped >= 1


class TestImitation:
    def test_identity_side(self, worked):
        P, _, _ = worked
        imi = imitation_game(build_symmetric_game(P))
        assert imi.B == referee_identity(P.m + 1)

    def test_second_strategies_equal_symmetric_set(self, worked):
        P, _, _ = worked
        sym = build_symmetric_game(P)
        imi = imitation_game(sym)
        second = {tuple(c.y) for c in nash.enumerate_ne(imi.A, imi.B).equilibria}
        direct = {tuple(c.z) for c in nash.enumerate_symmetric_ne(sym.S).equilibria}
        assert second == direct

    def test_every_second_strategy_is_symmetric_ne(self, worked):
        P, _, _ = worked
        sym = build_symmetric_game(P)
        imi = imitation_game(sym)
        for cert in nash.enumerate_ne(imi.A, imi.B).equilibria:
            assert not nash.symmetric_ne_violations(sym.S, cert.y)


class TestJson:
    def test_game_roundtrip(self, worked):
        _, _, two_sided = worked
        game = build_game(two_sided)
        back = game_from_json(game_to_json(game))
        assert back.A == game.A and back.B == game.B and back.meta == game.meta

    def test_symmetric_serializes_transpose(self, worked):
        P, _, _ = worked
        sym = build_symmetric_game(P)
        doc = game_to_json(sym)
        assert doc["B"] == [[em.rat_to_str(v) for v in col] for col in zip(*sym.S)]
