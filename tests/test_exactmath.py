import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashforge import exactmath as em
from nashforge import fixp, lp, nash

from conftest import (
    one_minus_circuit, referee_identity, referee_mat_add, referee_solve_linear_system,
    referee_transpose, sparse_rows,
)


def frac_mat(rows):
    return [[F(v) for v in row] for row in rows]


def outer(u, v):
    return [[a * b for b in v] for a in u]


class TestRank:
    def test_identity_full_rank(self):
        assert em.rank(referee_identity(3)) == 3

    def test_outer_product_rank_one(self):
        u = [F(2), F(-3), F(5)]
        v = [F(1, 2), F(7), F(-1)]
        assert em.rank(outer(u, v)) == 1

    def test_payoff_sum_of_worked_instance(self):
        # hand elimination: rows 2 and 3 are independent, row 1 is zero
        m = frac_mat([[0, 0, 0], [1, 0, 0], [1, 2, 2]])
        assert em.rank(m) == 2

    def test_rank_equals_rank_of_transpose(self):
        rng = random.Random(7)
        for _ in range(25):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)]
                 for _ in range(r)]
            assert em.rank(m) == em.rank(referee_transpose(m))

    def test_rational_entries(self):
        m = frac_mat([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]])
        assert em.rank(m) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            em.rank([])

    def test_against_plain_gaussian_elimination(self):
        # independent oracle: textbook fraction elimination, no Bareiss
        def gauss_rank(m):
            m = [row[:] for row in m]
            rows_n, cols_n = len(m), len(m[0])
            rk = 0
            for col in range(cols_n):
                piv = next((i for i in range(rk, rows_n) if m[i][col] != 0), None)
                if piv is None:
                    continue
                m[rk], m[piv] = m[piv], m[rk]
                pv = m[rk][col]
                m[rk] = [v / pv for v in m[rk]]
                for i in range(rows_n):
                    if i != rk and m[i][col] != 0:
                        f = m[i][col]
                        m[i] = [v - f * w for v, w in zip(m[i], m[rk])]
                rk += 1
            return rk

        rng = random.Random(99)
        for _ in range(40):
            r = rng.randint(1, 6)
            c = rng.randint(1, 6)
            target = rng.randint(0, min(r, c))
            # build a matrix of known-ish structure as a sum of outer products
            m = frac_mat([[0] * c for _ in range(r)])
            for _ in range(target):
                u = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
                v = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(c)]
                m = referee_mat_add(m, outer(u, v))
            expected = gauss_rank(m)
            assert em.rank(m) == expected
            assert em.rank(m) <= target


class TestTriangularPredicate:
    def test_identity(self):
        assert em.is_upper_triangular(sparse_rows(referee_identity(4)))

    def test_dense(self):
        assert not em.is_upper_triangular(sparse_rows(frac_mat([[1, 2], [3, 4]])))

    def test_worked_first_matrix(self):
        a = frac_mat([[F(1, 2), F(1, 2), 0], [0, 1, 0], [0, 0, 1]])
        assert em.is_upper_triangular(sparse_rows(a))

    def test_zero_rows(self):
        assert em.is_upper_triangular([{}, {}, {2: F(5)}])
        assert not em.is_upper_triangular([{}, {}, {1: F(5)}])


class TestExactness:
    def test_add_sub_roundtrip(self):
        rng = random.Random(3)
        for _ in range(200):
            a = F(rng.randint(-999, 999), rng.randint(1, 999))
            b = F(rng.randint(-999, 999), rng.randint(1, 999))
            assert (a + b) - b == a
            if b != 0:
                assert (a * b) / b == a


class TestExactInputsOnly:
    """A point or parameter vector holds ints and Fractions only: Fraction()
    would read a float by its binary expansion and parse a string."""

    def test_ints_and_fractions_pass(self):
        v = em.exact_vec([0, -3, F(2, 7)])
        assert v == [F(0), F(-3), F(2, 7)] and all(type(x) is F for x in v)

    @pytest.mark.parametrize("bad", [0.1, "1/4", True, None, 1j])
    def test_anything_else_is_refused_by_index(self, bad):
        with pytest.raises(TypeError, match=f"entry 1 is {bad!r} .*int or a Fraction"):
            em.exact_vec([F(1, 2), bad])

    @pytest.mark.parametrize("bad", [0.1, "1/4", True])
    @pytest.mark.parametrize("reader", ["lam_rhs", "solve_lp", "evaluate_points",
                                        "evaluate_with_trace", "check_fixed_point"])
    def test_every_reader_refuses(self, reader, bad):
        circ = one_minus_circuit()
        P, prepared = lp.build_param_lp(circ)
        call = {
            "lam_rhs": lambda v: lp.lam_rhs(P, v),
            "solve_lp": lambda v: lp.solve_lp(P, v),
            "evaluate_points": lambda v: fixp.evaluate_points(circ, [[F(1, 2)], v]),
            "evaluate_with_trace": lambda v: fixp.evaluate_with_trace(prepared, v),
            "check_fixed_point": lambda v: nash.check_fixed_point(circ, v),
        }[reader]
        call([F(1, 2)])
        with pytest.raises(TypeError, match=f"entry 0 is {bad!r}"):
            call([bad])


class TestSerialization:
    @pytest.mark.parametrize("text,value", [
        ("3", F(3)), ("-1/2", F(-1, 2)), ("0", F(0)), ("7/3", F(7, 3)),
    ])
    def test_parse_format_roundtrip(self, text, value):
        assert em.rat_from_str(text) == value
        assert em.rat_from_str(em.rat_to_str(value)) == value

    def test_sign_on_numerator_and_unit_denominator_omitted(self):
        assert em.rat_to_str(F(-1, 2)) == "-1/2"
        assert em.rat_to_str(F(4, 2)) == "2"

    def test_rejects_garbage(self):
        # only ASCII "-?[0-9]+(/[0-9]+)?": int() alone would take "_", spaces,
        # a "+" and any Unicode digit
        for bad in ["1/0", "1/-2", "a", "1/2/3", True, 1.5, [1], "1_0", "+0", "1/+2", " 3",
                    "3 ", "3\n", " \u0663 ", "\u0663", "3/ 4", "1_000", "", "-", "1/"]:
            with pytest.raises(ValueError):
                em.rat_from_str(bad)


class TestMatrixReader:
    """rows_from_strs parses each distinct string once; the result and every
    refusal are those of rat_from_str entry by entry, with zeros dropped, and
    an empty or ragged matrix is refused as mat_shape refuses it."""

    def test_equals_per_entry_parse_on_repeated_strings(self):
        rng = random.Random(11)
        for _ in range(50):
            texts = [em.rat_to_str(F(rng.randint(-9, 9), rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 5))]
            rows = [[rng.choice(texts) for _ in range(rng.randint(0, 6))]
                    for _ in range(rng.randint(0, 6))]
            dense = [[em.rat_from_str(s) for s in r] for r in rows]
            try:
                shape = em.mat_shape(dense)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    em.rows_from_strs(rows)
                continue
            got, cols = em.rows_from_strs(rows)
            assert (len(got), cols) == shape and em.densify(got, cols) == dense
            assert all(x != 0 for row in got for x in row.values())
            assert em.rows_to_strs(got, cols) == [[em.rat_to_str(x) for x in r] for r in dense]
            shared = {}
            for r, row in zip(rows, got):
                for j, x in row.items():
                    assert shared.setdefault(r[j], x) is x

    def test_bare_integers_are_read_too(self):
        assert em.rows_from_strs([["1", 1, "1"]]) == ([{0: F(1), 1: F(1), 2: F(1)}], 3)

    def test_zeros_however_spelled_are_dropped(self):
        assert em.rows_from_strs([["0", "0/7", "-0", 0, "-1/2"]]) == ([{4: F(-1, 2)}], 5)

    def test_writer_shares_one_zero_string(self):
        strs = em.rows_to_strs([{1: F(2, 3)}, {}], 3)
        assert strs == [["0", "2/3", "0"], ["0", "0", "0"]]
        assert len({id(s) for row in strs for s in row if s == "0"}) == 1

    @pytest.mark.parametrize("bad", [True, 1.0, "1/0", "2/-3", "a", [1], ["1"]])
    def test_refusals_survive_a_cached_value(self, bad):
        # each matrix is also ragged; the entry is refused before the shape
        for rows in ([["1", "2/3", "1"], ["1", bad]], [["1"], ["1", bad, "1"]],
                     [[1, "1"], [bad]]):   # True == 1 == 1.0, but only text is cached
            with pytest.raises(ValueError) as exc:
                em.rows_from_strs(rows)
            assert "ragged" not in str(exc.value)

    @pytest.mark.parametrize("row", ["1", {"0": "1"}, None, 1])
    def test_row_not_a_list_is_a_type_error(self, row):
        with pytest.raises(TypeError):
            em.rows_from_strs([["1"], row])


class TestLinearSystem:
    """The Fraction solver that the reference support enumerators run on."""

    def test_unique(self):
        status, x = referee_solve_linear_system(frac_mat([[2, 1], [1, -1]]), [F(3), F(0)])
        assert status == "unique"
        assert x == [F(1), F(1)]

    def test_inconsistent(self):
        status, x = referee_solve_linear_system(frac_mat([[1, 1], [1, 1]]), [F(1), F(2)])
        assert status == "none"

    def test_underdetermined(self):
        status, x = referee_solve_linear_system(frac_mat([[1, 1]]), [F(1)])
        assert status == "many"

    def test_rectangular_overdetermined_consistent(self):
        status, x = referee_solve_linear_system(frac_mat([[1, 0], [0, 1], [1, 1]]),
                                                [F(2), F(3), F(5)])
        assert status == "unique"
        assert x == [F(2), F(3)]


# mostly zeros, spelled both as int and as Fraction
SPARSE = st.one_of(st.just(0), st.just(F(0)), st.just(0), st.just(F(0)),
                   st.integers(-3, 3), st.fractions(-5, 5, max_denominator=4))


class TestIntVec:
    """int_vec clears a vector's denominators by their lcm, and reads a
    sparse row's values as well as a list."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SPARSE, max_size=6))
    def test_clears_denominators_by_their_lcm(self, v):
        ints, d = em.int_vec(v)
        assert all(type(a) is int for a in ints) and d > 0
        assert [F(a, d) for a in ints] == v
        assert d == math.lcm(*(F(x).denominator for x in v))
        # zeros have denominator 1, so dropping them leaves the lcm alone
        row = {j: x for j, x in enumerate(v) if x}
        assert em.int_vec(row.values()) == ([a for a in ints if a], d)
