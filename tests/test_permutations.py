import numpy as np
import pytest
from hypothesis import given, strategies as st

from symfusion import Permutation, permutation_word, transversal_an, transversal_sn
from symfusion.errors import (
    BadTransversalError,
    IndexOutOfRangeError,
    ParseError,
    SizeMismatchError,
    SymfusionError,
    TooSmallError,
)
from symfusion.permutations import validate_transversal


def compose_word(n: int, word: list[int]) -> Permutation:
    g = Permutation.identity(n)
    for k in word:
        g = g * Permutation.adjacent(n, k)
    return g


class TestPermutation:
    def test_right_factor_acts_first(self):
        # (1 2)(2 3) = (1 2 3)
        lhs = Permutation.parse("(1 2)", n=3) * Permutation.parse("(2 3)", n=3)
        assert lhs == Permutation.parse("(1 2 3)", n=3)

    def test_parse_forms(self):
        assert Permutation.parse("(1 2)(3 4 5)").degree == 5
        assert Permutation.parse("2,1,3") == Permutation((2, 1, 3))
        assert Permutation.parse("()", n=4) == Permutation.identity(4)
        with pytest.raises(SizeMismatchError):
            Permutation.parse("(1 5)", n=3)

    def test_parse_rejects_non_integer_token(self):
        for text in ("(1 x)", "2,one,3", "(1 2)(3 4.0)"):
            with pytest.raises(ParseError) as info:
                Permutation.parse(text)
            assert isinstance(info.value, SymfusionError)

    @pytest.mark.parametrize("images", [(2.9, 1.2), (2.0, 1.0), (True,), (np.True_,), ("2", "1"), (None,)],
                             ids=repr)
    def test_entries_are_integers_not_truncated(self, images):
        # int() would read (2.9, 1.2) as (2, 1), the transposition (1 2)
        with pytest.raises(ParseError):
            Permutation(images)

    def test_numpy_integer_entries(self):
        assert Permutation(np.array([2, 1, 3])) == Permutation((np.int64(2), 1, np.int32(3))) == Permutation((2, 1, 3))
        assert all(type(x) is int for x in Permutation(np.array([2, 1])).images)

    @pytest.mark.parametrize("text, n", [("(1 1)", None), ("(1 2)(3 3)", None), ("(1 2 1)", 4),
                                         ("(2 -1)", 3), ("(0 1)", 3), ("(1 2)(0)", 3)])
    def test_parse_rejects_repeated_or_non_positive_points(self, text, n):
        with pytest.raises(ParseError):
            Permutation.parse(text, n=n)

    @pytest.mark.parametrize("make", [
        lambda: Permutation.adjacent(5, 0),
        lambda: Permutation.adjacent(5, 5),
        lambda: Permutation.adjacent(5, -1),
        lambda: Permutation.transposition(4, 0, 2),
        lambda: Permutation.transposition(4, 2, -1),
        lambda: Permutation.transposition(4, 5, 1),
    ])
    def test_points_outside_1_to_n_are_refused(self, make):
        with pytest.raises(IndexOutOfRangeError):
            make()

    @pytest.mark.parametrize("cycles, error", [
        ([(1, 1)], ParseError),
        ([(1, 2), (3, 4, 3)], ParseError),
        ([(0, 1)], IndexOutOfRangeError),
        ([(2, 6)], IndexOutOfRangeError),
        ([(1, 2), (-1, 3)], IndexOutOfRangeError),
    ])
    def test_from_cycles_refuses_repeated_or_outside_points(self, cycles, error):
        with pytest.raises(error):
            Permutation.from_cycles(5, cycles)

    def test_points_inside_1_to_n_are_accepted(self):
        assert Permutation.adjacent(5, 1) == Permutation.parse("(1 2)", n=5)
        assert Permutation.adjacent(5, 4) == Permutation.parse("(4 5)", n=5)
        assert Permutation.transposition(4, 4, 1) == Permutation.parse("(1 4)", n=4)
        assert Permutation.transposition(4, 2, 2).is_identity

    def test_cycle_string_round_trip(self):
        g = Permutation.parse("(1 6)(2 4 5)", n=6)
        assert Permutation.parse(g.cycle_string(), n=6) == g

    def test_inverse_and_sign(self):
        g = Permutation.parse("(1 2 3)", n=5)
        assert g * g.inverse() == Permutation.identity(5)
        assert g.sign == 1
        assert Permutation.adjacent(5, 2).sign == -1

    def test_extend(self):
        g = Permutation.parse("(1 2)", n=2).extend(5)
        assert g(1) == 2 and g(5) == 5


class TestWord:
    def test_identity_word(self):
        assert permutation_word(Permutation.identity(6)) == []

    def test_single_adjacent(self):
        assert permutation_word(Permutation.adjacent(6, 3)) == [3]

    def test_three_cycle(self):
        g = Permutation.parse("(1 2 3)", n=3)
        word = permutation_word(g)
        assert len(word) == 2
        assert compose_word(3, word) == g

    @given(st.permutations(list(range(1, 8))))
    def test_word_reconstructs(self, images):
        g = Permutation(images)
        word = permutation_word(g)
        assert compose_word(g.degree, word) == g
        assert len(word) <= g.degree * (g.degree - 1) // 2
        assert (-1) ** len(word) == g.sign


class TestTransversals:
    def test_sn_defining_property(self):
        for n in (1, 2, 5, 8):
            ts = transversal_sn(n)
            assert [t(n) for t in ts] == list(range(1, n + 1))
            assert ts[-1].is_identity

    def test_an_matches_worked_example(self):
        # the even transversal for n = 6 from the worked (8,3,6) construction
        expected = [
            "(5 6)(1 6)",
            "(5 6)(2 6)",
            "(5 6)(3 6)",
            "(5 6)(4 6)",
            "(4 6)(5 6)",
            "()",
        ]
        ts = transversal_an(6)
        assert ts == [Permutation.parse(text, n=6) for text in expected]

    def test_an_properties(self):
        for n in (4, 5, 6, 9):
            ts = transversal_an(n)
            assert [t(n) for t in ts] == list(range(1, n + 1))
            assert all(t.is_even for t in ts)

    def test_an_too_small(self):
        with pytest.raises(TooSmallError):
            transversal_an(3)

    def test_validate_accepts_cycle_powers(self):
        n = 5
        cyc = Permutation.parse("(1 2 3 4 5)")
        ts = []
        power = Permutation.identity(n)
        for _ in range(n):
            power = power * cyc
            ts.append(power)
        assert validate_transversal(ts, n) == ts

    def test_validate_rejects_bad(self):
        with pytest.raises(BadTransversalError):
            validate_transversal(transversal_sn(5)[::-1], 5)
        with pytest.raises(BadTransversalError):
            validate_transversal(transversal_sn(5), 5, even=True)
