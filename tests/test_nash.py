import ast
import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nashforge
from nashforge import brouwer, compiler, exactmath, fixp, lcp, lp, nash
from nashforge.exactmath import mat_shape, rank
from nashforge.nash import (
    DimensionTooLarge, EnumerationResult, NeCertificate, PivotLimitReached, RayTermination,
    SymCertificate, check_fixed_point, check_ne, enumerate_ne, enumerate_symmetric_ne,
    lemke_howson, ne_violations, symmetric_ne_violations,
)
from nashforge.nash import _Condensed, _int_rows, _lcp_blocks, _singular

from conftest import (
    ne_to_symmetrized, one_minus_circuit, referee_dot, referee_mat_vec, referee_ne_violations,
    referee_solve_linear_system, referee_symmetric_ne_violations, referee_vec_mat, sparse_rows,
    swap_circuit,
)


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
        assert not symmetric_ne_violations(frac_mat([[0, 0], [0, 0]]), [F(1, 3), F(2, 3)])

    def test_worked_symmetric(self):
        S = frac_mat([[-1, 1, 1], [-1, -1, 2], [0, 0, 1]])
        assert not symmetric_ne_violations(S, [F(1, 4), F(1, 4), F(1, 2)])

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


class TestSupportSolver:
    """The solve of one support system, weights w on the support and payoff
    p with row . w = p for each payoff row, sum w = 1: Cramer's rule on the
    shared minors, and the rank classifier of a singular system."""

    def test_unique(self):
        # matching pennies: w = (1/2, 1/2), p = 0; D comes out positive
        status, W, P, D = table_solve([[1, -1], [-1, 1]], (0, 1))
        assert status == "unique" and D > 0
        assert [F(v, D) for v in W] == [F(1, 2), F(1, 2)] and F(P, D) == 0

    def test_unique_on_a_sub_support(self):
        # columns 0 and 2 of two rows: 3 w0 + w2 = p = w0 + 2 w2
        status, W, P, D = table_solve([[3, 9, 1], [1, -7, 2]], (0, 2))
        assert status == "unique"
        assert [F(v, D) for v in W] == [F(1, 3), F(2, 3)] and F(P, D) == F(5, 3)

    def test_none(self):
        # p = w0 + w1 = 1 and p = 2 (w0 + w1) = 2 cannot both hold
        assert _singular([[1, 1], [2, 2]], (0, 1)) == "none"
        assert table_solve([[1, 1], [2, 2]], (0, 1)) == ("none", None, 0, 0)

    def test_many(self):
        # two equal rows leave w0 + w1 = 1 with one degree of freedom
        assert _singular([[1, 1], [1, 1]], (0, 1)) == "many"
        assert table_solve([[1, 1], [1, 1]], (0, 1)) == ("many", None, 0, 0)

    def test_nonsingular_system_refused_by_the_classifier(self):
        # the classifier is only for a zero determinant; a full rank([1; D])
        # means Cramer's rule and elimination disagree
        with pytest.raises(AssertionError, match="disagree"):
            _singular([[1, -1], [-1, 1]], (0, 1))

    def test_singular_x_system_behind_negative_y_flags_degenerate(self):
        # on supports ({0, 1}, {0, 1}) the y-system is unique with y = (2, -1),
        # and B's columns 0 and 1 agree on rows 0 and 1, so the x-system is
        # singular; no other support system or screen is degenerate
        A = frac_mat([[2, 0, 1], [3, 2, 3], [3, 3, 2]])
        B = frac_mat([[1, 1, 0], [2, 2, 3], [0, 2, 1]])
        status, W, _, D = table_solve([[2, 0, 1], [3, 2, 3]], (0, 1))
        assert status == "unique" and [F(v, D) for v in W] == [2, -1]
        assert _singular([[1, 2, 0], [1, 2, 2]], (0, 1)) == "many"
        res = enumerate_ne(A, B)
        assert res.degenerate
        assert [(c.x, c.y) for c in res.equilibria] == [
            ([0, 1, 0], [0, 0, 1]), ([0, 0, 1], [0, 1, 0]),
            ([0, F(1, 2), F(1, 2)], [0, F(1, 2), F(1, 2)])]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda s: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=s + 2, max_size=s + 2),
                 min_size=s, max_size=s),
        st.lists(st.integers(0, s + 1), min_size=s, max_size=s, unique=True)
        .map(lambda cols: tuple(sorted(cols))))))
    def test_matches_fraction_solver(self, case):
        assert_matches_referee(*case)


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
                assert not symmetric_ne_violations(S, cert.z)


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

    def test_no_dimension_cap_unless_asked(self):
        # a 13x13 coordination game lies beyond the enumeration cap
        eye = [[F(int(i == j)) for j in range(13)] for i in range(13)]
        cert = lemke_howson(eye, eye, 0)
        assert cert.x == cert.y == [F(1)] + [F(0)] * 12
        with pytest.raises(DimensionTooLarge):
            lemke_howson(eye, eye, 0, max_dim=12)


def _shift_positive(M):
    """M + (1 - min M), every entry a Fraction."""
    shift = 1 - min(min(row) for row in M)
    return [[v + shift for v in row] for row in M]


def _int_row(entries):
    """The tableau row (N, d) with these rational entries, denominators
    cleared by their lcm; zeros are dropped.  For every prime power
    dividing the lcm, the entry whose denominator carries it keeps a
    numerator prime to it, so the row comes out reduced."""
    d = lcm(*(v.denominator for v in entries.values()))
    return {j: v.numerator * (d // v.denominator) for j, v in entries.items() if v}, d


def referee_tableaux(A, B):
    """The starting P and Q tableau rows of `lemke_howson`, built from
    Fraction payoffs shifted by `_shift_positive`."""
    r, c = mat_shape(A)
    A1, B1, one, rhs = _shift_positive(A), _shift_positive(B), F(1), r + c
    rows_p = [_int_row({j: one, **{c + i: B1[i][j] for i in range(r)}, rhs: one})
              for j in range(c)]
    rows_q = [_int_row({i: one, **{r + j: v for j, v in enumerate(A1[i])}, rhs: one})
              for i in range(r)]
    return rows_p, rows_q


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


def referee_path(A, B, dropped_label, snapshots=None):
    """Dense Fraction Lemke-Howson: the (entering, leaving) variables of
    every pivot, and the final P and Q tableaux with their bases.  When a
    list `snapshots` is given, a copy of (TP, basis_p, TQ, basis_q) is
    appended to it after every pivot."""
    r, c = mat_shape(A)
    A1 = _shift_positive(A)
    B1 = _shift_positive(B)
    # The slacks come first on each side, so the full-tuple minimum walks
    # the rhs, the slacks and then the payoff variables.
    # Tableau P over v/x: B1^T x + v = 1 (c rows); var t<c is v_t, else x_{t-c}.
    TP = [[F(int(jj == j)) for jj in range(c)] + [B1[i][j] for i in range(r)] + [F(1)]
          for j in range(c)]
    basis_p = list(range(c))
    # Tableau Q over u/y: A1 y + u = 1 (r rows); var t<r is u_t, else y_{t-r},
    # so var t carries label t.
    TQ = [[F(int(ii == i)) for ii in range(r)] + A1[i] + [F(1)] for i in range(r)]
    basis_q = list(range(r))

    def record():
        if snapshots is not None:
            snapshots.append(([row[:] for row in TP], basis_p[:], [row[:] for row in TQ],
                              basis_q[:]))
    path = []
    in_p = dropped_label < r
    entering = c + dropped_label if in_p else dropped_label
    for _ in range(4 ** (r + c)):
        if in_p:
            leaving = referee_lex_pivot(TP, basis_p, entering)
            path.append((entering, leaving))
            record()
            # x_i carries label i, v_j label r + j; the complement of each
            # is the Q variable numbered with its label (u_i, y_j)
            label = leaving - c if leaving >= c else r + leaving
            if label == dropped_label:
                break
            entering = label
        else:
            leaving = referee_lex_pivot(TQ, basis_q, entering)
            path.append((entering, leaving))
            record()
            if leaving == dropped_label:
                break
            # complement of u_i is x_i (at c+i in P); of y_j it is v_j (at j)
            entering = c + leaving if leaving < r else leaving - r
        in_p = not in_p
    else:
        raise RayTermination("pivoting failed to terminate")
    return path, (TP, basis_p), (TQ, basis_q)


def referee_lemke_howson(A, B, dropped_label=0):
    """Lemke-Howson over dense Fraction tableaux, pivoting by
    `referee_lex_pivot`."""
    r, c = mat_shape(A)
    _, (TP, basis_p), (TQ, basis_q) = referee_path(A, B, dropped_label)
    x = [F(0)] * r
    for row, var in enumerate(basis_p):
        if var >= c:
            x[var - c] = TP[row][-1]
    y = [F(0)] * c
    for row, var in enumerate(basis_q):
        if var >= r:
            y[var - r] = TQ[row][-1]
    sx, sy = sum(x), sum(y)
    if sx == 0 or sy == 0:
        raise RayTermination("pivoting terminated at the artificial equilibrium")
    x = [v / sx for v in x]
    y = [v / sy for v in y]
    bad = referee_ne_violations(A, B, x, y)
    if bad:
        raise RayTermination("pivoting result fails the equilibrium checker: " + bad[0])
    return NeCertificate(x, y, referee_dot(x, referee_mat_vec(A, y)),
                         referee_dot(referee_vec_mat(x, B), y))


ENTRIES = st.sampled_from([F(v) for v in (-1, 0, 0, 1, 1, 2)] + [F(1, 2)])


@st.composite
def tied_tableaux(draw):
    """Small tableaux, the last column the rhs.  Entries come from a
    handful of values, so ratios tie often; positive multiples of other
    rows tie on every ratio but those of the unit basic columns."""
    n_cols = draw(st.integers(2, 5))
    T = draw(st.lists(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols),
                      min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(T))
        scale = draw(st.sampled_from([F(1), F(2), F(1, 3)]))
        T.insert(draw(st.integers(0, len(T))), [scale * v for v in row])
    return T


def dense_rows(T, variables, scale=1):
    """The rows of a `_Condensed` block as Fraction lists over `variables`,
    with the rhs last and every column rebuilt: a nonbasic slack's from
    its stored slot, a nonbasic payoff variable's as `_column` computes
    it, and a basic variable's as its implicit unit column.  A block holds
    its payoff variables scaled by `scale` (its l in `_lcp_blocks`), so
    each entry is put back on the unscaled tableau's: times `scale` in a
    row whose basic variable is a payoff one, over it in a payoff
    variable's column."""
    slot = {v: j for j, v in enumerate(T.slots) if j}
    computed = {v: T._column(v) for v in variables if v in T.cols and v not in T.basis}
    out = []
    for i, (N, d, b) in enumerate(zip(T.rows, T.dens, T.basis)):
        up = scale if b in T.cols else 1
        row = []
        for v in variables:
            if v in slot:
                num = N[slot[v]]
            elif v in computed:
                num = computed[v][i]
            else:
                # a unit column's entry is 1 on either scale
                row.append(F(int(v == b)))
                continue
            row.append(F(num * up, d * scale if v in T.cols else d))
        out.append(row + [F(N[0] * up, d)])
    return out


def assert_stored_form(T):
    """Every row of the block `T` holds the rhs and the column of each
    nonbasic slack only, in lowest terms over its denominator."""
    width = len(T.slots)
    assert sorted(T.where[v] for v in T.slots[1:]) == list(range(1, width))
    for N, d in zip(T.rows, T.dens):
        assert len(N) == width and d > 0 and gcd(d, *N) == 1


@st.composite
def payoff_columns(draw, slacks):
    """A payoff column over the slack variables `slacks`: its nonzeros
    (slack, entry)."""
    entries = draw(st.lists(st.integers(-3, 3), min_size=len(slacks), max_size=len(slacks)))
    return [(k, a) for k, a in zip(slacks, entries) if a]


def condensed_block(T, data):
    """A `_Condensed` block over the rows of T, a `tied_tableaux` draw, and
    the dense Fraction tableau it stands for.  Over the variables
    0..k+m+p-1, T's columns are the nonbasic slacks `slots` and each row's
    basic variable has a unit column.  The slacks are numbered first, in
    any order among themselves, and the payoff variables after them, as
    `_Condensed` requires.  Some rows are basic in a payoff variable, whose
    column the block does not keep once it leaves; a row is made so only
    while those rows of T stay independent, so that the slack columns,
    stored and unit, have full row rank, as B^-1's do.  The p nonbasic
    payoff variables have random columns m_v and a shift, and their
    tableau columns B^-1 m_v + shift * rhs are what the dense tableau
    holds and the block computes.  Returns the block, the dense rows (rhs
    last), the basis, the slots, the nonbasic and the basic payoff
    variables."""
    m, k = len(T), len(T[0]) - 1
    p = data.draw(st.integers(0, 2))
    payoff_rows = []
    for i in range(m):
        rows = [T[j][:-1] for j in [*payoff_rows, i]]
        if data.draw(st.booleans()) and rank(rows) == len(rows):
            payoff_rows.append(i)
    q = len(payoff_rows)
    slacks = data.draw(st.permutations(range(k + m - q)))
    payoffs = data.draw(st.permutations(range(k + m - q, k + m + p)))
    slots, basic_slacks = slacks[:k], iter(slacks[k:])
    basic_payoff, payoff = payoffs[:q], payoffs[q:]
    basic_payoffs = iter(basic_payoff)
    basis = [next(basic_payoffs if i in payoff_rows else basic_slacks) for i in range(m)]
    cols = {v: data.draw(payoff_columns(slacks)) for v in payoff}
    cols.update((v, []) for v in basic_payoff)
    shift = data.draw(st.integers(-2, 2))

    def column(v, row, b):
        return row[slots.index(v)] if v in slots else F(int(v == b))
    dense = []
    for row, b in zip(T, basis):
        dense.append([column(v, row, b) if v not in payoff else
                      sum((a * column(u, row, b) for u, a in cols[v]), shift * row[-1])
                      for v in range(k + m + p)] + [row[-1]])
    int_rows = [_int_row({0: row[-1], **{j + 1: v for j, v in enumerate(row[:-1])}})
                for row in T]
    block = _Condensed([[N.get(j, 0) for j in range(k + 1)] for N, _ in int_rows],
                       [d for _, d in int_rows], basis, slots, cols, shift)
    return block, dense, basis, slots, payoff, basic_payoff


class TestLexPivot:
    @settings(max_examples=400, deadline=None)
    @given(tied_tableaux(), st.data())
    def test_matches_full_tuple_minimum(self, T, data):
        got, want_T, basis, slots, payoff, basic_payoff = condensed_block(T, data)
        variables = range(len(want_T[0]) - 1)
        entering = data.draw(st.sampled_from([*slots, *payoff]))
        want_basis = list(basis)
        try:
            want = referee_lex_pivot(want_T, want_basis, entering)
        except RayTermination:
            assert got.enter(entering) is None
            return
        assert got.enter(entering) == want
        assert got.basis == want_basis
        # a payoff variable that leaves takes its column with it
        kept = [v for v in variables if v != want or v not in basic_payoff]
        assert ([[row[v] for v in kept] + [row[-1]] for row in dense_rows(got, variables)]
                == [[row[v] for v in kept] + [row[-1]] for row in want_T])
        assert_stored_form(got)

    def test_a_payoff_variable_below_a_slack_is_refused(self):
        # the ratio test walks the slacks only, which is the full-tuple
        # minimum only when they are numbered first
        with pytest.raises(ValueError, match="^payoff variable 0 is numbered below a slack$"):
            _Condensed([[1], [1]], [1, 1], [1, 2], (), {0: [(1, 1)], 3: [(2, 1)]}, 0)
        _Condensed([[1], [1]], [1, 1], [0, 1], (), {2: [(0, 1)], 3: [(1, 1)]}, 0)

    def test_rows_tied_on_every_slack_column_raise(self):
        # rows basic in payoff variables 1 and 2 are proportional on slack
        # 0's column, so B is singular; a Lemke-Howson block never gets there
        block = _Condensed([[1, 1], [2, 2]], [1, 1], [1, 2], [0],
                           {1: [], 2: [], 3: [(0, 1)]}, 0)
        with pytest.raises(AssertionError,
                           match=r"^rows \[0, 1\] still tie after every column of B\^-1$"):
            block.enter(3)


RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def small_games(draw):
    """2-6 x 2-6 games, entries either from the tie-prone ENTRIES alphabet
    or general rationals."""
    r, c = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    entries = draw(st.sampled_from([ENTRIES, RATIONALS]))
    mat = st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
    return draw(mat), draw(mat)


def outcome(solve, A, B, label):
    try:
        return solve(A, B, label)
    except Exception as exc:  # noqa: BLE001 - the exception class is the outcome
        return type(exc)


class TestLemkeHowsonReferee:
    @settings(max_examples=150, deadline=None)
    @given(small_games())
    def test_every_label_matches_dense_fraction_tableau(self, game):
        A, B = game
        for label in range(len(A) + len(A[0])):
            assert outcome(lemke_howson, A, B, label) == outcome(referee_lemke_howson, A, B, label)


class TestPivotBound:
    @settings(max_examples=60, deadline=None)
    @given(small_games())
    @example((frac_mat([[3, 3], [2, 5], [0, 6]]), frac_mat([[3, 2], [2, 6], [3, 1]])))
    def test_referee_path_length_is_exactly_enough(self, game):
        # the same path, not just the same endpoint: the bound the referee's
        # path needs is enough, and one pivot fewer is not
        A, B = game
        r, c = mat_shape(A)
        for label in range(r + c):
            needed = len(referee_path(A, B, label)[0])
            bounded = functools.partial(lemke_howson, max_pivots=needed)
            assert outcome(bounded, A, B, label) == outcome(referee_lemke_howson, A, B, label)
            with pytest.raises(PivotLimitReached, match=f"bound of {needed - 1} pivots on the"
                                                        f" {r}x{c} game from label {label}$"):
                lemke_howson(A, B, label, max_pivots=needed - 1)


@st.composite
def sparse_games(draw):
    """2-9 x 2-9 games whose entries are mostly zero, so that pivot rows
    are often mostly zero too.  Half of them are square and shaped as
    `lcp.build_game` makes a game: A upper-triangular and A + B zero
    outside one row, so of rank at most 1."""
    r = draw(st.integers(2, 9))
    triangular = draw(st.booleans())
    c = r if triangular else draw(st.integers(2, 9))
    entries = st.sampled_from([F(0)] * 24 + [F(v) for v in (-1, 1, 2, 3)] + [F(1, 2), F(-2, 3)])
    mat = st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
    A, B = draw(mat), draw(mat)
    if triangular:
        A = [[v if j >= i else F(0) for j, v in enumerate(row)] for i, row in enumerate(A)]
        B = [[-v for v in row] for row in A[:-1]] + [[u - v for u, v in zip(B[-1], A[-1])]]
    return A, B


def assert_blocks_follow_the_referee(A, B):
    """From every label, the blocks' pivots and their rows, every column
    rebuilt, equal the dense Fraction referee's after every pivot.  Each
    row stays in lowest terms and holds 1 + (number of basic payoff
    variables) slots."""
    r, c = mat_shape(A)
    n = r + c
    # the referee's P columns v, x and Q columns u, y as LCP variables
    p_vars = [*range(r, n + r)]
    q_vars = [*range(r), *range(n + r, 2 * n)]
    (a, la), (b, lb) = _int_rows(A), _int_rows(B)
    for label in range(n):
        snapshots = []
        path, _, _ = referee_path(A, B, label, snapshots)
        first, second = _lcp_blocks(a, la, b, lb, c)
        for pivot, ((entering, leaving), (TP, basis_p, TQ, basis_q)) in enumerate(
                zip(path, snapshots)):
            # LH alternates sides from the dropped label's own
            variables = p_vars if (pivot % 2 == 0) == (label < r) else q_vars
            block = second if variables is p_vars else first
            assert block.enter(variables[entering]) == variables[leaving]
            assert dense_rows(second, p_vars, lb) == TP
            assert dense_rows(first, q_vars, la) == TQ
            assert second.basis == [p_vars[t] for t in basis_p]
            assert first.basis == [q_vars[t] for t in basis_q]
            for block in (first, second):
                assert_stored_form(block)
                assert len(block.slots) == 1 + sum(b in block.cols for b in block.basis)


class TestCondensedPath:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_games(), sparse_games()))
    def test_blocks_equal_the_referee_after_every_pivot(self, game):
        assert_blocks_follow_the_referee(*game)


def path_and_outcome(A, B, label):
    """Every (entering, leaving) pair of `lemke_howson` from the label, and
    its outcome."""
    pivots, real = [], _Condensed.enter

    def enter(self, var):
        pivots.append((var, real(self, var)))
        return pivots[-1][1]
    with mock.patch.object(_Condensed, "enter", enter):
        return pivots, outcome(lemke_howson, A, B, label)


class TestPayoffScaling:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_games(), sparse_games()), st.integers(1, 6), st.integers(1, 6))
    def test_scaling_a_block_changes_no_pivot_and_no_certificate(self, game, k1, k2):
        # the blocks hold the payoffs scaled by l; scaling a block's payoff
        # variables further, by any positive factor, leaves the path and the
        # certificate as they are
        A, B = game
        labels = range(sum(mat_shape(A)))
        want = [path_and_outcome(A, B, label) for label in labels]
        real = nash._lcp_blocks

        def scaled(a, la, b, lb, c):
            return real([[(j, k1 * v) for j, v in row] for row in a], k1 * la,
                        [[(j, k2 * v) for j, v in row] for row in b], k2 * lb, c)
        with mock.patch.object(nash, "_lcp_blocks", scaled):
            assert [path_and_outcome(A, B, label) for label in labels] == want


class TestRayErrorsNameTheInstance:
    # LH from label 1 on this game takes 4 pivots
    GAME = (frac_mat([[3, 3], [2, 5], [0, 6]]), frac_mat([[3, 2], [2, 6], [3, 1]]))

    def test_no_positive_pivot_entry(self, monkeypatch):
        real, calls = _Condensed.enter, []

        def enter(self, var):
            calls.append(var)
            return None if len(calls) == 3 else real(self, var)
        monkeypatch.setattr(_Condensed, "enter", enter)
        with pytest.raises(RayTermination, match=r"^Lemke-Howson found no positive pivot entry"
                                                 r" after 2 pivots on the 3x2 game from label 1;"
                                                 r" the path is unbounded$"):
            lemke_howson(*self.GAME, 1)

    def test_artificial_equilibrium(self, monkeypatch):
        real = _Condensed.enter

        def enter(self, var):
            # the first pivot reports the dropped label as leaving, so the
            # path stops with only x in the basis
            real(self, var)
            return 1
        monkeypatch.setattr(_Condensed, "enter", enter)
        with pytest.raises(RayTermination, match=r"^Lemke-Howson terminated at the artificial"
                                                 r" equilibrium after 1 pivots on the 3x2 game"
                                                 r" from label 1$"):
            lemke_howson(*self.GAME, 1)

    def test_result_fails_the_checker(self, monkeypatch):
        violation = "row 0 pays 7 > 3: profitable deviation"
        monkeypatch.setattr(nash, "_profile_violations", lambda *_: ([violation], F(0), F(0)))
        needed = len(referee_path(*self.GAME, 1)[0])
        with pytest.raises(RayTermination, match=rf"^Lemke-Howson's result fails the equilibrium"
                                                 rf" checker after {needed} pivots on the 3x2"
                                                 rf" game from label 1: {violation}$"):
            lemke_howson(*self.GAME, 1)


@st.composite
def tableau_games(draw):
    """1-5 x 1-5 games, including 1x1 games: entries all equal, from the
    tie-prone alphabet (negatives and zeros), or rationals with mixed
    denominators."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        v = draw(RATIONALS)
        return [[v] * c for _ in range(r)], [[v] * c for _ in range(r)]
    entries = draw(st.sampled_from([ENTRIES, RATIONALS]))
    mat = st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
    return draw(mat), draw(mat)


class TestIntegerTableau:
    @settings(max_examples=300, deadline=None)
    @given(tableau_games())
    def test_rows_equal_the_fraction_referee(self, game):
        A, B = game
        r, c = mat_shape(A)
        n = r + c
        rows_p, rows_q = referee_tableaux(A, B)
        # the referee numbers each side apart: P's v_j at j and x_i at c + i,
        # Q's u_i at i and y_j at r + j, the rhs at r + c; the LCP numbers
        # u, v, x, y from 0, r, n, n + r
        p_vars = [*range(r, n + r)]
        q_vars = [*range(r), *range(n + r, 2 * n)]
        (a, la), (b, lb) = _int_rows(A), _int_rows(B)
        first, second = _lcp_blocks(a, la, b, lb, c)
        for block, l, variables, rows in ((first, la, q_vars, rows_q),
                                          (second, lb, p_vars, rows_p)):
            # the slack basis: each row is the rhs 1 alone
            assert block.rows == [[1]] * len(rows) and block.dens == [1] * len(rows)
            assert dense_rows(block, variables, l) == [[F(N.get(j, 0), d) for j in range(n + 1)]
                                                       for N, d in rows]
        assert_blocks_follow_the_referee(A, B)

    def test_final_check_takes_one_pair_of_products(self, monkeypatch):
        # the integer payoffs are cleared once per player and shared by the
        # tableau and the final check; pi1 and pi2 are read from the one
        # pair of integer products that check takes
        A = frac_mat([[3, 3], [2, 5], [0, 6]])
        B = frac_mat([[3, 2], [2, 6], [3, 1]])
        want = referee_lemke_howson(A, B, 0)
        calls = {"_int_rows": 0, "_row_payoffs": 0, "_column_payoffs": 0}

        def counted(name):
            f = getattr(nash, name)

            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper
        for name in calls:
            monkeypatch.setattr(nash, name, counted(name))
        assert lemke_howson(A, B, 0) == want
        assert calls == {"_int_rows": 2, "_row_payoffs": 1, "_column_payoffs": 1}


class TestLemkeHowsonAgreesWithEnumeration:
    @settings(max_examples=100, deadline=None)
    @given(small_games())
    def test_every_label_finds_an_enumerated_equilibrium(self, game):
        # enumeration lists every equilibrium of a nondegenerate game
        A, B = game
        res = enumerate_ne(A, B)
        if res.degenerate:
            return
        for label in range(len(A) + len(A[0])):
            assert lemke_howson(A, B, label) in res.equilibria


# --- reference support enumeration over Fractions --------------------------

def referee_on_support(payoff_rows, support, n):
    rows = [[row[j] for j in support] + [F(-1)] for row in payoff_rows]
    rows.append([F(1)] * len(support) + [F(0)])
    status, sol = referee_solve_linear_system(rows, [F(0)] * len(payoff_rows) + [F(1)])
    if status != "unique":
        return status, None, None
    w = [F(0)] * n
    for pos, j in enumerate(support):
        w[j] = sol[pos]
    return status, w, sol[-1]


def referee_screen(sides):
    """None on a profitable deviation, else whether the solution is degenerate;
    each side is (dense payoffs, p, w, support)."""
    if any(v > p for payoffs, p, _, _ in sides for v in payoffs):
        return None
    return any(any(w[i] == 0 for i in support)
               or any(v == p for i, v in enumerate(payoffs) if i not in support)
               for payoffs, p, w, support in sides)


def referee_enumerate_ne(A, B):
    """Support enumeration on Fractions: Gauss-Jordan per support pair and
    dense payoff vectors per candidate."""
    r, c = mat_shape(A)
    bt = [list(col) for col in zip(*B)]
    found = {}
    degenerate = False
    for size in range(1, min(r, c) + 1):
        for sx in itertools.combinations(range(r), size):
            for sy in itertools.combinations(range(c), size):
                status, y, pi1 = referee_on_support([A[i] for i in sx], sy, c)
                if status == "unique":
                    status, x, pi2 = referee_on_support([bt[j] for j in sy], sx, r)
                degenerate |= status == "many"
                if status != "unique" or min(x) < 0 or min(y) < 0:
                    continue
                screened = referee_screen([(referee_mat_vec(A, y), pi1, x, sx),
                                           (referee_vec_mat(x, B), pi2, y, sy)])
                if screened is None:
                    continue
                degenerate |= screened
                found.setdefault((tuple(x), tuple(y)), NeCertificate(x, y, pi1, pi2))
    return EnumerationResult(tuple(found.values()), degenerate)


def referee_enumerate_symmetric_ne(S):
    r = len(S)
    found = {}
    degenerate = False
    for size in range(1, r + 1):
        for supp in itertools.combinations(range(r), size):
            status, z, pi = referee_on_support([S[i] for i in supp], supp, r)
            degenerate |= status == "many"
            if status != "unique" or min(z) < 0:
                continue
            screened = referee_screen([(referee_mat_vec(S, z), pi, z, supp)])
            if screened is None:
                continue
            degenerate |= screened
            found.setdefault(tuple(z), SymCertificate(z))
    return EnumerationResult(tuple(found.values()), degenerate)


# tie-prone alphabets make degenerate games common; RATIONALS mixes in
# denominators, so each matrix is scaled by a nontrivial lcm
ALPHABETS = [st.sampled_from([F(0), F(1)]), ENTRIES, RATIONALS]


@st.composite
def enumeration_games(draw, square=False):
    r = draw(st.integers(1, 6))
    c = r if square else draw(st.integers(1, 6))
    entries = draw(st.sampled_from(ALPHABETS))
    mat = st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
    return draw(mat), draw(mat)


@st.composite
def flagged_beyond_pure_profiles(draw):
    """An r x c game (3 <= r, c <= 5) whose pure profiles never flag it
    degenerate: A's entries are distinct, and so are those of each row
    of B, but for two rows i1, i2 that agree on two columns j1, j2 below
    the rest of the row.  B's rows then keep a unique maximum, and the
    x-system of ({i1, i2}, {j1, j2}) is singular and consistent, so the
    game is flagged, if at all, from support size 2 on."""
    r, c = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    a = draw(st.permutations(range(r * c)))
    B = [draw(st.permutations(range(2, c + 2))) for _ in range(r)]
    pair = st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True)
    rows = draw(pair.filter(lambda p: max(p) < r))
    cols = draw(pair.filter(lambda p: max(p) < c))
    for i in rows:
        B[i][cols[0]] = B[i][cols[1]] = draw(st.integers(0, 1))
    return frac_mat([a[i * c:(i + 1) * c] for i in range(r)]), frac_mat(B)


class TestEnumerationReferee:
    @settings(max_examples=120, deadline=None)
    @given(enumeration_games())
    def test_bimatrix_matches_fraction_enumerator(self, game):
        A, B = game
        assert enumerate_ne(A, B) == referee_enumerate_ne(A, B)

    @settings(max_examples=150, deadline=None)
    @given(flagged_beyond_pure_profiles())
    @example((frac_mat([[0, 1, 3], [4, 5, 2], [6, 7, 8]]),
              frac_mat([[0, 3, 0], [0, 3, 0], [2, 3, 4]])))
    def test_matches_fraction_enumerator_across_the_flag(self, game):
        # the first player's screen runs on every pair before the flag,
        # where x is still solved behind it, and on the pairs after it,
        # where a failed screen leaves x unsolved
        A, B = game
        assert enumerate_ne(A, B) == referee_enumerate_ne(A, B)

    @settings(max_examples=150, deadline=None)
    @given(enumeration_games(square=True))
    def test_symmetric_matches_fraction_enumerator(self, game):
        S, _ = game
        assert enumerate_symmetric_ne(S) == referee_enumerate_symmetric_ne(S)


# weights: zeros, negatives and mixed denominators
WEIGHTS = st.one_of(st.just(F(0)), st.fractions(min_value=-2, max_value=3, max_denominator=6))


@st.composite
def weight_vectors(draw, n):
    """n weights: a mixed strategy (pure ones included), the same scaled
    off the simplex, or arbitrary weights, negatives among them."""
    w = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
    how = draw(st.sampled_from(["mixed", "scaled", "raw"]))
    if how != "raw":
        w = [abs(v) for v in w]
        if not any(w):
            w[draw(st.integers(0, n - 1))] = F(1)
        total = sum(w) / (1 if how == "mixed" else draw(st.sampled_from([F(2), F(2, 3)])))
        w = [v / total for v in w]
    return w


@st.composite
def checked_profiles(draw, square=False):
    """A 1-4 x 1-4 game (square ones for the symmetric checker), entries all
    zero or from ALPHABETS, and a profile: drawn by `weight_vectors`, or an
    equilibrium that enumeration finds."""
    r = draw(st.integers(1, 4))
    c = r if square else draw(st.integers(1, 4))
    entries = draw(st.sampled_from([st.just(F(0)), *ALPHABETS]))
    mat = st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
    A, B = draw(mat), draw(mat)
    x, y = draw(weight_vectors(r)), draw(weight_vectors(c))
    if draw(st.booleans()):
        found = (enumerate_symmetric_ne(A).equilibria if square
                 else enumerate_ne(A, B).equilibria)
        if found:
            cert = draw(st.sampled_from(found))
            x, y = (cert.z, cert.z) if square else (cert.x, cert.y)
    return A, B, x, y


class TestCheckersMatchFractionReferees:
    """The integer checkers report exactly the messages of the dense
    Fraction checkers in conftest, in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(checked_profiles())
    @example((PENNIES_A, PENNIES_B, [F(1), F(0)], [F(1, 2), F(1, 2)]))   # deviation, slack
    @example((PENNIES_A, PENNIES_B, [F(1, 2), F(1, 3)], [F(1), F(0)]))   # sum is not 1
    @example((PENNIES_A, PENNIES_B, [F(3, 2), F(-1, 2)], [F(1), F(0)]))  # negative weight
    def test_bimatrix(self, case):
        A, B, x, y = case
        assert ne_violations(A, B, x, y) == referee_ne_violations(A, B, x, y)

    @settings(max_examples=300, deadline=None)
    @given(checked_profiles(square=True))
    @example((RPS, RPS, [F(1), F(0), F(0)], [F(1), F(0), F(0)]))
    def test_symmetric(self, case):
        S, _, z, _ = case
        assert symmetric_ne_violations(S, z) == referee_symmetric_ne_violations(S, z)


# the payoffs are cleared to their nonzeros only, so a matrix's least entry
# may be a zero that its nonzeros leave out

POSITIVE = st.fractions(min_value=F(1, 6), max_value=5, max_denominator=6)
SIGNED_ENTRIES = [POSITIVE, st.one_of(st.just(F(0)), POSITIVE), POSITIVE.map(lambda v: -v),
                  st.fractions(min_value=-5, max_value=5, max_denominator=6)]


@st.composite
def zero_pattern_matrices(draw, r, c):
    """An r x c matrix whose entries are all positive, nonnegative with
    zeros, all negative or of any sign, over mixed denominators, and which
    may have an all-zero row, an all-zero column or both."""
    entries = draw(st.sampled_from(SIGNED_ENTRIES))
    m = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    if draw(st.booleans()):
        m[draw(st.integers(0, r - 1))] = [F(0)] * c
    if draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in m:
            row[j] = F(0)
    return m


@st.composite
def zero_pattern_profiles(draw, square=False):
    """A 1-5 x 1-5 game of `zero_pattern_matrices` and a `weight_vectors`
    profile."""
    r = draw(st.integers(1, 5))
    c = r if square else draw(st.integers(1, 5))
    return (draw(zero_pattern_matrices(r, c)), draw(zero_pattern_matrices(r, c)),
            draw(weight_vectors(r)), draw(weight_vectors(c)))


def zero_pattern_examples(test):
    """`test` with one square example per sign pattern."""
    half = [F(1, 2), F(1, 2)]
    cases = [
        # no zero entry, every entry positive: the shift comes from the
        # least nonzero
        (frac_mat([[2, 3], [1, 5]]), [[F(5, 2), F(1, 3)], [F(4), F(3, 2)]], half, half),
        # nonnegative with zeros: the least entry is a zero left out
        (frac_mat([[0, 1], [2, 0]]), frac_mat([[0, 3], [1, 0]]), half, [F(1), F(0)]),
        # an all-zero row and an all-zero column
        (frac_mat([[0, 0, 0], [0, 1, 2], [0, 3, -1]]),
         frac_mat([[0, 2, 1], [0, 0, 0], [0, -1, 4]]),
         [F(0), F(1, 2), F(1, 2)], [F(0), F(1, 3), F(2, 3)]),
        # every entry negative
        ([[F(-1), F(-2)], [F(-3), F(-1, 2)]], frac_mat([[-4, -1], [-2, -3]]), half, half),
        # mixed denominators
        ([[F(1, 2), F(-1, 3)], [F(2, 5), F(1, 7)]], [[F(3, 4), F(0)], [F(-5, 6), F(2, 9)]],
         [F(1, 3), F(2, 3)], half),
    ]
    for case in cases:
        test = example(case)(test)
    return test


class TestSparseClearing:
    """Lemke-Howson and the checkers read the payoffs' nonzeros only and
    agree with the dense Fraction referees on every sign pattern."""

    @settings(max_examples=150, deadline=None)
    @given(zero_pattern_profiles())
    @zero_pattern_examples
    def test_lemke_howson_from_every_label(self, case):
        A, B, _, _ = case
        for label in range(sum(mat_shape(A))):
            assert outcome(lemke_howson, A, B, label) == outcome(referee_lemke_howson, A, B, label)

    @settings(max_examples=150, deadline=None)
    @given(zero_pattern_profiles())
    @zero_pattern_examples
    def test_ne_violations(self, case):
        A, B, x, y = case
        assert ne_violations(A, B, x, y) == referee_ne_violations(A, B, x, y)

    @settings(max_examples=150, deadline=None)
    @given(zero_pattern_profiles(square=True))
    @zero_pattern_examples
    def test_symmetric_ne_violations(self, case):
        S, _, z, _ = case
        assert symmetric_ne_violations(S, z) == referee_symmetric_ne_violations(S, z)


class TestNoDenseClear:
    """The solvers and the checkers never clear a whole dense payoff matrix:
    with `int_matrix` made to raise, each still gives its result."""

    @pytest.fixture
    def games(self):
        P, _ = lp.build_param_lp(one_minus_circuit())
        game, sym = lcp.build_game(lcp.normalize(P)), lcp.build_symmetric_game(P)
        rng = random.Random(5)

        def rand(r, c):
            return [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(c)]
                    for _ in range(r)]
        return [(game.A, game.B, sym.S), (rand(4, 5), rand(4, 5), rand(4, 4))]

    def test_solvers_and_checkers_run_without_it(self, monkeypatch, games):
        def run(A, B, S):
            certs = [lemke_howson(A, B, label) for label in range(sum(mat_shape(A)))]
            sym = enumerate_symmetric_ne(S)
            return (certs, [ne_violations(A, B, c.x, c.y) for c in certs], enumerate_ne(A, B),
                    sym, [symmetric_ne_violations(S, c.z) for c in sym.equilibria])
        want = [run(*game) for game in games]
        real_rank, real_clear = exactmath.rank, exactmath.int_matrix

        def rank(m):
            # `_singular` tells a singular support system's "none" from
            # "many" by the dense Bareiss rank, which clears those rows
            with monkeypatch.context() as inner:
                inner.setattr(exactmath, "int_matrix", real_clear)
                return real_rank(m)

        def refused(M):
            raise AssertionError("a payoff matrix was cleared densely")
        monkeypatch.setattr(exactmath, "int_matrix", refused)
        monkeypatch.setattr(nash, "int_matrix", refused, raising=False)
        monkeypatch.setattr(nash, "rank", rank)
        assert [run(*game) for game in games] == want
        assert want[0][0] and want[0][3].equilibria

    def test_an_out_of_range_label_is_refused_before_clearing(self, monkeypatch, games):
        def refused(M):
            raise AssertionError("the payoffs were cleared")
        monkeypatch.setattr(nash, "_int_rows", refused)
        A, B, _ = games[1]
        for label in (-1, 9):
            with pytest.raises(ValueError, match=r"^label must lie in 0\.\.8$"):
                lemke_howson(A, B, label)


# the support solve by shared minors: Cramer's rule on each nonsingular
# system, the rank classifier `_singular` on each singular one

TIES = (-1, 0, 0, 1, 2)


def referee_det(m):
    """Determinant by the permutation expansion, independent of elimination."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def table_solve(rows, support):
    """(status, W, P, D) for the system of `rows` on `support`: Cramer's
    rule off the shared minors, the payoff P as the screen reads it, and
    the rank classifier for a singular system."""
    n = len(rows[0])
    reader = next(t for t in nash._readers(n, len(support)) if t[0] == support)
    W, D = nash._cramer(nash._minors(rows[0], rows[1:], n), reader)
    if not D:
        return nash._singular(rows, support), None, 0, 0
    return "unique", W, nash._screened(rows[0], [], reader[3], W)[0], D


def assert_matches_referee(rows, support):
    status, W, P, D = table_solve(rows, support)
    want, w, p = referee_on_support([[F(v) for v in row] for row in rows], support,
                                    len(rows[0]))
    assert status == want
    if want == "unique":
        assert D > 0 and [F(v, D) for v in W] == [w[j] for j in support] and F(P, D) == p
    else:
        assert (W, P, D) == (None, 0, 0)
    return status


class TestTableSolve:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda s: st.integers(s, s + 3).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.sampled_from(TIES), min_size=n, max_size=n),
                     min_size=s, max_size=s),
            st.lists(st.integers(0, n - 1), min_size=s, max_size=s, unique=True)
            .map(lambda cols: tuple(sorted(cols)))))))
    def test_matches_fraction_solver(self, case):
        assert_matches_referee(*case)

    def test_every_branch_is_reached(self, monkeypatch):
        # the property above is only as good as the branches it reaches:
        # a negative determinant flipped to a positive one, and "none" and
        # "many" from the classifier that every singular system goes to
        fallbacks = []
        singular = nash._singular

        def counted(rows, support):
            fallbacks.append(support)
            return singular(rows, support)

        monkeypatch.setattr(nash, "_singular", counted)
        rng = random.Random(16)
        seen = set()
        for _ in range(400):
            s = rng.randint(1, 5)
            n = rng.randint(s, s + 3)
            rows = [[rng.choice(TIES) for _ in range(n)] for _ in range(s)]
            support = tuple(sorted(rng.sample(range(n), s)))
            det = referee_det([[1] * s] + [[rows[0][j] - row[j] for j in support]
                                           for row in rows[1:]])
            calls = len(fallbacks)
            status = assert_matches_referee(rows, support)
            assert len(fallbacks) - calls == (det == 0)
            seen.add((status, (det > 0) - (det < 0)))
        assert seen == {("unique", 1), ("unique", -1), ("none", 0), ("many", 0)}


def tie_prone_game(seed, r, c):
    rng = random.Random(seed)
    return ([[F(rng.choice(TIES)) for _ in range(c)] for _ in range(r)],
            [[F(rng.choice(TIES)) for _ in range(c)] for _ in range(r)])


class TestEnumerationBeyondDraws:
    """Shapes past the 6x6 games that hypothesis draws."""

    @pytest.mark.parametrize("r, c", [(7, 7), (8, 5), (5, 8)])
    def test_matches_fraction_enumerator(self, r, c):
        A, B = tie_prone_game(r * 10 + c, r, c)
        assert enumerate_ne(A, B) == referee_enumerate_ne(A, B)

    def test_nonsingular_systems_are_not_eliminated(self, monkeypatch):
        # every support system of this game is nonsingular, so Cramer's rule
        # on the shared minors solves them all and `rank` never runs
        A = frac_mat([[9, 4, 4], [1, 1, 7], [7, 1, 5]])
        B = frac_mat([[1, 6, 2], [0, 4, 6], [6, 1, 0]])
        calls = []
        rank = nash.rank
        monkeypatch.setattr(nash, "rank", lambda *args: calls.append(args) or rank(*args))
        res = enumerate_ne(A, B)
        assert res == referee_enumerate_ne(A, B) and not res.degenerate
        assert len(res.equilibria) == 5 and calls == []

    def test_symmetric_nonsingular_systems_are_not_eliminated(self, monkeypatch):
        # all seven support systems of this game are nonsingular, and each
        # support carries an equilibrium
        S = frac_mat([[9, 0, 6], [7, 9, 0], [3, 7, 7]])
        calls = []
        rank = nash.rank
        monkeypatch.setattr(nash, "rank", lambda *args: calls.append(args) or rank(*args))
        res = enumerate_symmetric_ne(S)
        assert res == referee_enumerate_symmetric_ne(S) and not res.degenerate
        assert len(res.equilibria) == 7 and calls == []

    @pytest.mark.parametrize("n", [7, 9])
    def test_symmetric_matches_fraction_enumerator(self, n, monkeypatch):
        # every one of the 2^n - 1 support systems is read off its minors
        S, _ = tie_prone_game(n * 11, n, n)
        calls = []
        solve = nash._cramer
        monkeypatch.setattr(nash, "_cramer", lambda *args: calls.append(args) or solve(*args))
        assert enumerate_symmetric_ne(S) == referee_enumerate_symmetric_ne(S)
        assert len(calls) == 2 ** n - 1

    def test_singular_systems_go_unclassified_once_degenerate(self, monkeypatch):
        # in the zero game the pure equilibria leave tight strategies unused,
        # so size 1 flags the game degenerate, and whether a singular system
        # of size 2 is inconsistent or underdetermined changes nothing
        zero = frac_mat([[0, 0], [0, 0]])
        calls = []
        monkeypatch.setattr(nash, "_singular", lambda *args: calls.append(args))
        assert enumerate_ne(zero, zero) == referee_enumerate_ne(zero, zero)
        assert calls == []

    def test_second_player_systems_skipped_behind_a_failed_screen(self, monkeypatch):
        # the pure equilibrium (0, 0) leaves column 1 tight, so size 1 flags
        # the game degenerate; from size 2 on, a nonnegative y that a row
        # outside its support beats leaves the pair's x-system unsolved
        A = frac_mat([[10, 6, 0, 1], [2, 9, 0, 4], [0, 4, 7, 9]])
        B = frac_mat([[10, 10, 6, 9], [7, 2, 5, 1], [0, 2, 7, 3]])
        solves = []
        solve = nash._cramer

        def counted(table, reader):
            w, d = solve(table, reader)
            solves.append((id(reader), d > 0 and min(w) >= 0))
            return w, d
        monkeypatch.setattr(nash, "_cramer", counted)
        res = enumerate_ne(A, B)
        assert res == referee_enumerate_ne(A, B) and res.degenerate
        y_side = {id(t) for k in (2, 3) for t in nash._readers(4, k)}
        x_side = {id(t) for k in (2, 3) for t in nash._readers(3, k)}
        nonnegative_y = sum(ok for reader, ok in solves if reader in y_side)
        x_solves = sum(reader in x_side for reader, _ in solves)
        assert 0 < x_solves < nonnegative_y


def compiled_example(k):
    """The game of the compiled, shrunk example on Grid(k, 1), and the
    prepared circuit it reduces."""
    cb = brouwer.make_example_coloring(brouwer.Grid(k, 1))
    shrunk = compiler.shrink_range(compiler.compile_brouwer(cb, validate=False))
    prepared = fixp.normalize_max_zero(fixp.clamp_outputs(shrunk.circuit))
    return lcp.build_game(lcp.normalize(lp.with_cost(lp.build_constraints(prepared)))), prepared


@pytest.fixture(scope="module")
def compiled_1d_game():
    """The 69x69 game of the compiled, shrunk 1-D example, dense."""
    game, _ = compiled_example(1)
    return game.A, game.B


def digest(cert):
    return hashlib.sha256(repr(cert).encode()).hexdigest()


class TestCompiledGameCertificates:
    # sha256 of repr(lemke_howson(A, B, label)) on the compiled, shrunk 1-D
    # example (a 69x69 game), recorded from the kernel that numbers the
    # slacks first; this game reaches one equilibrium, lambda = 3/4, from
    # every label
    PINNED = dict.fromkeys(
        (0, 1, 68, 69, 137), "14b091b048c0343464f17a5d6f6b1afe4d691b1191fdc85469bbf3f0644e94b4")

    def test_certificates_match_the_recorded_digests(self, compiled_1d_game):
        A, B = compiled_1d_game
        assert len(A) == 69
        got = {label: digest(lemke_howson(A, B, label)) for label in self.PINNED}
        assert got == self.PINNED

    def test_path_from_label_0_takes_61_pivots(self, compiled_1d_game):
        # the same path, not just the same endpoint: the last pivot of the
        # recorded path is needed
        A, B = compiled_1d_game
        assert digest(lemke_howson(A, B, 0, max_pivots=61)) == self.PINNED[0]
        with pytest.raises(PivotLimitReached, match="bound of 60 pivots on the 69x69 game"
                                                    " from label 0$"):
            lemke_howson(A, B, 0, max_pivots=60)


class TestConstructionGamePaths:
    # sha256 of the leaving variable of every pivot and the outcome of
    # `lemke_howson` from every label of the 48 games that the benchmark's
    # verify_small workload builds from `verify_setup(1)`, recorded from the
    # kernel that numbers the slacks first.  The games are degenerate:
    # 1 044 of their 3 732 pivots tie on the rhs, so the lexicographic rule
    # past the rhs decides them
    PINNED = "4016385f75bc79f0684f5cc83ec9ab461d4266fa988d66f7324bfea49d7f5d34"

    def test_paths_and_certificates_match_the_recorded_digest(self, workloads):
        h, runs = hashlib.sha256(), 0
        for item in workloads.verify_setup(1).items:
            P, _ = lp.build_param_lp(item.circuit)
            game = lcp.build_game(lcp.normalize(P))
            for label in range(2 * len(game.A)):
                pivots, cert = path_and_outcome(game.A, game.B, label)
                h.update(repr(([leaving for _, leaving in pivots], cert)).encode())
                runs += 1
        assert runs == 458
        assert h.hexdigest() == self.PINNED


def rhs_tie_counter():
    """A replacement for `_Condensed.enter` that counts, in the returned
    one-entry list, the pivots whose least rhs ratio is taken by more than
    one row, so that the lexicographic rule past the rhs decides them."""
    ties, real = [0], _Condensed.enter

    def enter(self, var):
        col = self._column(var)
        ratios = [F(N[0], f) for N, f in zip(self.rows, col) if f > 0]
        ties[0] += bool(ratios) and ratios.count(min(ratios)) > 1
        return real(self, var)
    return enter, ties


class TestSlacksFirstPaths:
    def test_every_label_of_five_seeds_lands_on_a_fixed_point(self, workloads):
        # the construction's games of the verify_small workload, seeds 1-5:
        # from every label, an equilibrium with positive slack weights that
        # maps to an exact fixed point of the prepared circuit
        enter, ties = rhs_tie_counter()
        runs = 0
        with mock.patch.object(_Condensed, "enter", enter):
            for seed in range(1, 6):
                for item in workloads.verify_setup(seed).items:
                    P, prepared = lp.build_param_lp(item.circuit)
                    game = lcp.build_game(lcp.normalize(P))
                    for label in range(2 * len(game.A)):
                        cert = lemke_howson(game.A, game.B, label)
                        assert check_ne(game.A, game.B, cert.x, cert.y)
                        assert cert.x[-1] > 0 and cert.y[-1] > 0
                        assert check_fixed_point(prepared,
                                                 lcp.game_to_fixed_point(cert.x, game.meta))
                        runs += 1
        assert runs == 2290
        # the lexicographic rule past the rhs is exercised, not bypassed
        assert ties[0] > 0

    def test_k2_n1_game_from_label_0_takes_225_pivots(self):
        game, prepared = compiled_example(2)
        assert len(game.A) == 169
        cert = lemke_howson(game.A, game.B, 0, max_pivots=225)
        assert check_ne(game.A, game.B, cert.x, cert.y)
        lam = lcp.game_to_fixed_point(cert.x, game.meta)
        assert lam == [F(1055, 1536), F(2591, 3072)]
        assert check_fixed_point(prepared, lam)
        with pytest.raises(PivotLimitReached, match="bound of 224 pivots on the 169x169 game"
                                                    " from label 0$"):
            lemke_howson(game.A, game.B, 0, max_pivots=224)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_games(), sparse_games()))
    def test_no_tie_outlasts_the_slack_columns(self, game):
        # B^-1's rows are independent, so the rhs and the slack columns
        # leave one row; `enter` raises AssertionError if they do not
        A, B = game
        for label in range(sum(mat_shape(A))):
            try:
                lemke_howson(A, B, label)
            except (RayTermination, PivotLimitReached):
                pass


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
            sym = lcp.symmetrize(sparse_rows(A), sparse_rows(B), c)
            for cert in res.equilibria:
                z = ne_to_symmetrized(cert.x, cert.y, cert.pi1, cert.pi2)
                assert not symmetric_ne_violations(sym.S, z)


# Each guard is forced to fire: the enumerators' checkers report a
# violation, and divmod leaves a remainder inside Bareiss elimination, both
# in `rank` and in the classifier of a singular support system.  That
# system, of the rows below on the support (0, 1, 2), has the difference
# rows (2, 2, 2) and (1, 3, 0), whose rank divides by the first pivot 2.
FORCED_GUARDS = """
from fractions import Fraction as F
from nashforge import exactmath, nash
nash._profile_violations = lambda *args: (["forced"], F(0), F(0))
nash._best_response_violations = lambda *args: ["forced"]
exactmath.divmod = lambda a, b: (0, 1)

for call in (lambda: nash.enumerate_ne([[F(1)]], [[F(1)]]),
             lambda: nash.enumerate_symmetric_ne([[F(1)]]),
             lambda: exactmath.rank([[F(2), F(1)], [F(1), F(3)]]),
             lambda: nash._singular([[0, 0, 0], [-2, -2, -2], [-1, -3, 0]], (0, 1, 2))):
    try:
        call()
        print("silent")
    except AssertionError as exc:
        print("raised:", exc)
"""


# names that nothing in src/ or perfbench/ references, with the reason each stays
UNCALLED_BUT_KEPT = {
    "bool_to_json": "the brouwer wire writer, the one way to produce what `compile` reads",
    "scale_solution": "the change of variables that the fixed point -> equilibrium lift needs",
}


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
            "raised: fraction-free elimination left a remainder",
            "raised: fraction-free elimination left a remainder",
        ]

    def test_no_assert_statements_in_package(self):
        package = Path(nashforge.__file__).resolve().parent
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(package.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_every_public_name_has_a_caller(self):
        package = Path(nashforge.__file__).resolve().parent
        bench = package.parents[1] / "perfbench"

        def references(tree) -> set:
            refs = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name.split(".")[-1])
            return refs
        # per top-level statement of each file, and per function at any
        # depth, the names it references
        statements, functions = [], []
        for path in sorted(package.parent.rglob("*.py")) + sorted(bench.glob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                statements.append((path, stmt, references(stmt)))
                functions.extend((node, references(node)) for node in ast.walk(stmt)
                                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
        uncalled = []
        for path, stmt, _ in statements:
            if path.parent != package:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("__") or name in UNCALLED_BUT_KEPT:
                    continue
                if not any(name in refs for _, other, refs in statements if other is not stmt):
                    uncalled.append(f"{path.name}:{name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            # a method is called when a function outside it references its name
            for method in stmt.body:
                if (not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or method.name.startswith("__")):
                    continue
                inside = set(ast.walk(method))
                if not any(method.name in refs for node, refs in functions
                           if node not in inside):
                    uncalled.append(f"{path.name}:{stmt.name}.{method.name}")
        assert uncalled == []

