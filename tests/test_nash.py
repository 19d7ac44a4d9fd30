import ast
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nashforge
from nashforge import lcp, lp, nash
from nashforge.nash import (
    DimensionTooLarge, RayTermination, check_fixed_point, check_ne,
    check_symmetric_ne, enumerate_ne, enumerate_symmetric_ne, lemke_howson,
    ne_violations, symmetric_ne_violations,
)
from nashforge.nash import _lex_pivot

from conftest import one_minus_circuit, random_raw_circuit, swap_circuit


def frac_mat(rows):
    return [[F(v) for v in row] for row in rows]


PENNIES_A = frac_mat([[1, -1], [-1, 1]])
PENNIES_B = frac_mat([[-1, 1], [1, -1]])
RPS = frac_mat([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])


@pytest.fixture(scope="module")
def worked_game():
    P, prepared = lp.build_param_lp(one_minus_circuit())
    return lcp.build_game(lcp.normalize(P))


class TestCheckNe:
    def test_pennies_mixed(self):
        half = [F(1, 2), F(1, 2)]
        assert check_ne(PENNIES_A, PENNIES_B, half, half)

    def test_pennies_pure_deviation(self):
        assert not check_ne(PENNIES_A, PENNIES_B, [F(1), F(0)], [F(1, 2), F(1, 2)])

    def test_worked_instance_equilibrium(self, worked_game):
        x = [F(2, 5), F(1, 5), F(2, 5)]
        y = [F(1, 3), F(1, 3), F(1, 3)]
        assert check_ne(worked_game.A, worked_game.B, x, y)

    def test_violation_names_condition(self, worked_game):
        x = [F(2, 5), F(1, 5), F(2, 5)]
        y = [F(2, 3), F(0), F(1, 3)]
        msgs = ne_violations(worked_game.A, worked_game.B, x, y)
        assert msgs and any("deviation" in m or "complementarity" in m for m in msgs)

    def test_simplex_enforced(self):
        msgs = ne_violations(PENNIES_A, PENNIES_B, [F(1, 2), F(1, 3)], [F(1), F(0)])
        assert any("sum" in m for m in msgs)


class TestCheckSymmetricNe:
    def test_zero_matrix_everything_equilibrium(self):
        assert check_symmetric_ne(frac_mat([[0, 0], [0, 0]]), [F(1, 3), F(2, 3)])

    def test_worked_symmetric(self):
        S = frac_mat([[-1, 1, 1], [-1, -1, 2], [0, 0, 1]])
        assert check_symmetric_ne(S, [F(1, 4), F(1, 4), F(1, 2)])

    def test_worked_pure_rejected(self):
        S = frac_mat([[-1, 1, 1], [-1, -1, 2], [0, 0, 1]])
        msgs = symmetric_ne_violations(S, [F(1), F(0), F(0)])
        assert any("deviation" in m for m in msgs)


class TestEnumerate:
    def test_pennies_unique(self):
        res = enumerate_ne(PENNIES_A, PENNIES_B)
        assert len(res.equilibria) == 1 and not res.degenerate
        cert = res.equilibria[0]
        assert cert.x == [F(1, 2), F(1, 2)] and cert.y == [F(1, 2), F(1, 2)]

    def test_worked_first_player_strategy_set(self, worked_game):
        res = enumerate_ne(worked_game.A, worked_game.B)
        assert {tuple(c.x) for c in res.equilibria} == {(F(2, 5), F(1, 5), F(2, 5))}

    def test_zero_game_degenerate(self):
        res = enumerate_ne(frac_mat([[0, 0], [0, 0]]), frac_mat([[0, 0], [0, 0]]))
        assert res.degenerate
        assert all(check_ne(frac_mat([[0, 0], [0, 0]]), frac_mat([[0, 0], [0, 0]]),
                            c.x, c.y) for c in res.equilibria)

    def test_battle_of_sexes_three_equilibria(self):
        A = frac_mat([[2, 0], [0, 1]])
        B = frac_mat([[1, 0], [0, 2]])
        res = enumerate_ne(A, B)
        assert len(res.equilibria) == 3 and not res.degenerate

    def test_every_result_passes_checker(self, rng):
        for _ in range(15):
            r, c = rng.randint(2, 4), rng.randint(2, 4)
            A = [[F(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)]
            B = [[F(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)]
            for cert in enumerate_ne(A, B).equilibria:
                assert check_ne(A, B, cert.x, cert.y)

    def test_dimension_cap(self):
        big = [[F(0)] * 13 for _ in range(13)]
        with pytest.raises(DimensionTooLarge):
            enumerate_ne(big, big)


class TestDegeneracyTriggers:
    """Each game fires one trigger of the enumerators' degeneracy screen."""

    def test_singular_support_system(self):
        # rows 0 and 2 of A are equal, so on the supports ({0, 2}, {0, 1})
        # the y-system leaves y undetermined; the one equilibrium is strict
        A = frac_mat([[0, 0], [1, 1], [0, 0]])
        B = frac_mat([[0, 0], [0, 1], [1, 0]])
        res = enumerate_ne(A, B)
        assert [(c.x, c.y) for c in res.equilibria] == [([0, 1, 0], [0, 1])]
        assert res.degenerate

    def test_zero_weight_inside_support(self):
        # B's row 2 is constant, so x = e_2 is an equilibrium with every y that
        # keeps row 2 a best response; it is reached only from the supports
        # ({0, 2}, {0, 1}) and ({1, 2}, {0, 1}), whose solved x puts weight 0
        # on row 0 or row 1, and no unused strategy is tight
        A = frac_mat([[3, 1], [0, 3], [2, 2]])
        B = frac_mat([[0, 3], [2, 3], [3, 3]])
        res = enumerate_ne(A, B)
        assert [(c.x, c.y) for c in res.equilibria] == [
            ([0, 1, 0], [0, 1]), ([0, 0, 1], [F(1, 2), F(1, 2)]),
            ([0, 0, 1], [F(1, 3), F(2, 3)])]
        assert res.degenerate

    def test_tight_unused_strategy(self):
        # row 0 dominates, and against it both columns pay 1: each pure
        # equilibrium leaves a column unused that pays as much as the used one
        A = frac_mat([[1, 1], [0, 0]])
        B = frac_mat([[1, 1], [0, 0]])
        res = enumerate_ne(A, B)
        assert [(c.x, c.y) for c in res.equilibria] == [([1, 0], [1, 0]), ([1, 0], [0, 1])]
        assert res.degenerate

    def test_symmetric_singular_support_system(self):
        # strategies 0 and 1 pay 0 against everything, so support {0, 1}
        # leaves z undetermined; the one equilibrium, e_2, is strict
        S = frac_mat([[0, 0, 0], [0, 0, 0], [1, 1, 1]])
        res = enumerate_symmetric_ne(S)
        assert [c.z for c in res.equilibria] == [[0, 0, 1]]
        assert res.degenerate

    def test_symmetric_zero_weight_and_tight_unused(self):
        # in a symmetric game these two triggers are one solution seen from
        # two supports: z = e_0 leaves strategy 1 unused and paying 0 = pi on
        # support {0}, and puts weight 0 on it on support {0, 1}
        S = frac_mat([[0, 0], [0, 1]])
        res = enumerate_symmetric_ne(S)
        assert [c.z for c in res.equilibria] == [[1, 0], [0, 1]]
        assert res.degenerate


class TestEnumerateSymmetric:
    def test_rock_paper_scissors_uniform(self):
        res = enumerate_symmetric_ne(RPS)
        assert [c.z for c in res.equilibria] == [[F(1, 3)] * 3]

    def test_worked_symmetric_unique(self):
        S = frac_mat([[-1, 1, 1], [-1, -1, 2], [0, 0, 1]])
        res = enumerate_symmetric_ne(S)
        assert [c.z for c in res.equilibria] == [[F(1, 4), F(1, 4), F(1, 2)]]
        assert not res.degenerate

    def test_zero_matrix_degenerate(self):
        res = enumerate_symmetric_ne(frac_mat([[0, 0], [0, 0]]))
        assert res.degenerate

    def test_results_pass_checker(self, rng):
        for _ in range(15):
            n = rng.randint(2, 4)
            S = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            for cert in enumerate_symmetric_ne(S).equilibria:
                assert check_symmetric_ne(S, cert.z)


class TestLemkeHowson:
    def test_pennies_any_label(self):
        for label in range(4):
            cert = lemke_howson(PENNIES_A, PENNIES_B, label)
            assert cert.x == [F(1, 2), F(1, 2)] and cert.y == [F(1, 2), F(1, 2)]

    def test_worked_instance_agrees_with_enumeration(self, worked_game):
        cert = lemke_howson(worked_game.A, worked_game.B, 0)
        assert cert.x == [F(2, 5), F(1, 5), F(2, 5)]

    def test_all_labels_give_valid_equilibria(self, worked_game):
        for label in range(6):
            cert = lemke_howson(worked_game.A, worked_game.B, label)
            assert check_ne(worked_game.A, worked_game.B, cert.x, cert.y)

    def test_agreement_with_enumeration_on_random_games(self, rng):
        for _ in range(15):
            r, c = rng.randint(2, 4), rng.randint(2, 4)
            A = [[F(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)]
            B = [[F(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)]
            res = enumerate_ne(A, B)
            try:
                cert = lemke_howson(A, B, rng.randrange(r + c))
            except RayTermination:
                continue
            assert check_ne(A, B, cert.x, cert.y)
            if not res.degenerate:
                assert tuple(cert.x) in {tuple(e.x) for e in res.equilibria}

    def test_degenerate_tie_breaking_terminates(self):
        # identical rows force ties in the ratio test
        A = frac_mat([[1, 1], [1, 1]])
        B = frac_mat([[1, 2], [3, 4]])
        cert = lemke_howson(A, B, 0)
        assert check_ne(A, B, cert.x, cert.y)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            lemke_howson(PENNIES_A, PENNIES_B, 9)


def referee_lex_pivot(T, basis, col):
    """The ratio test as a minimum over full ratio tuples, with the
    Gauss-Jordan step written out."""
    n_cols = len(T[0])
    candidates = [r for r in range(len(T)) if T[r][col] > 0]
    if not candidates:
        raise RayTermination("no positive pivot entry; the path is unbounded")

    def key(r):
        piv = T[r][col]
        return tuple(T[r][c] / piv for c in [n_cols - 1] + list(range(n_cols - 1)))
    best = min(candidates, key=key)
    piv = T[best][col]
    T[best] = [v / piv for v in T[best]]
    for r in range(len(T)):
        if r != best and T[r][col] != 0:
            f = T[r][col]
            T[r] = [v - f * w for v, w in zip(T[r], T[best])]
    leaving = basis[best]
    basis[best] = col
    return leaving


ENTRIES = st.sampled_from([F(v) for v in (-1, 0, 0, 1, 1, 2)] + [F(1, 2)])


@st.composite
def tied_tableaux(draw):
    """Small tableaux (last column the rhs) and a pivot column.  Entries come
    from a handful of values, so ratios tie often; positive multiples of
    other rows tie on every ratio."""
    n_cols = draw(st.integers(2, 5))
    T = draw(st.lists(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols),
                      min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(T))
        scale = draw(st.sampled_from([F(1), F(2), F(1, 3)]))
        T.insert(draw(st.integers(0, len(T))), [scale * v for v in row])
    return T, draw(st.integers(0, n_cols - 2))


class TestLexPivot:
    @settings(max_examples=400, deadline=None)
    @given(tied_tableaux())
    def test_matches_full_tuple_minimum(self, case):
        T, col = case
        basis = [100 + i for i in range(len(T))]
        got_T, got_basis = [row[:] for row in T], basis[:]
        want_T, want_basis = [row[:] for row in T], basis[:]
        try:
            want = referee_lex_pivot(want_T, want_basis, col)
        except RayTermination:
            with pytest.raises(RayTermination):
                _lex_pivot(got_T, got_basis, col)
            return
        assert _lex_pivot(got_T, got_basis, col) == want
        assert got_T == want_T and got_basis == want_basis


class TestFixedPointCheck:
    def test_one_minus_half(self):
        circ = one_minus_circuit()
        assert check_fixed_point(circ, [F(1, 2)])
        assert not check_fixed_point(circ, [F(1, 3)])

    def test_swap_diagonal(self):
        circ = swap_circuit()
        assert check_fixed_point(circ, [F(1, 3), F(1, 3)])
        assert not check_fixed_point(circ, [F(1, 3), F(2, 3)])


class TestSymmetrizationInvariant:
    def test_ne_checker_consistent_with_embedding(self, rng):
        # positive-payoff games embed exactly; the symmetric checker must agree
        for _ in range(10):
            r, c = rng.randint(2, 3), rng.randint(2, 3)
            A = [[F(rng.randint(1, 5)) for _ in range(c)] for _ in range(r)]
            B = [[F(rng.randint(1, 5)) for _ in range(c)] for _ in range(r)]
            res = enumerate_ne(A, B)
            sym = lcp.symmetrize(A, B)
            for cert in res.equilibria:
                z = lcp.ne_to_symmetrized(cert.x, cert.y, cert.pi1, cert.pi2)
                assert check_symmetric_ne(sym.S, z)


# Each guard is forced to fire: the enumerators' checkers report a
# violation, and divmod leaves a remainder inside Bareiss elimination.
FORCED_GUARDS = """
from fractions import Fraction as F
from nashforge import exactmath, nash
nash.ne_violations = lambda *args: ["forced"]
nash.symmetric_ne_violations = lambda *args: ["forced"]
exactmath.divmod = lambda a, b: (0, 1)
for call in (lambda: nash.enumerate_ne([[F(1)]], [[F(1)]]),
             lambda: nash.enumerate_symmetric_ne([[F(1)]]),
             lambda: exactmath.rank([[F(1), F(2)], [F(3), F(4)]])):
    try:
        call()
        print("silent")
    except AssertionError as exc:
        print("raised:", exc)
"""


class TestChecksSurviveOptimize:
    def test_guards_raise_under_python_O(self):
        src = str(Path(nashforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-O", "-c", FORCED_GUARDS],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: support-enumeration candidate fails checker: forced",
            "raised: symmetric candidate fails checker: forced",
            "raised: Bareiss exact-division invariant broken",
        ]

    def test_no_assert_statements_in_package(self):
        package = Path(nashforge.__file__).resolve().parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []
