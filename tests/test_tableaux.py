from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings

from symfusion import (
    Box,
    Partition,
    diagonal_count,
    dimension,
    down_set,
    is_symmetric,
    partitions_of,
    transpose,
    up_set,
)
from symfusion.errors import (
    NonPositivePartError,
    NotInUpSetError,
    NotNonincreasingError,
    ParseError,
    SymfusionError,
)
from symfusion.tableaux import (
    hook_product,
    removable_boxes,
    tableau_contents,
    tableau_words,
)

from conftest import brute_force_standard_count, partition_strategy
from oracles import (
    BoxOutsideDiagramError,
    NotStandardError,
    StandardTableau,
    apply_adjacent_transposition,
    axial_distance,
    boxes,
    canonical_key,
    content,
    embed,
    enumerate_standard_tableaux,
    hook_length,
    recursive_tableau_words,
    row_superstandard,
    transpose_tableau,
)

FIG_T = StandardTableau([[1, 3, 5, 8], [2, 6], [4, 7]])  # shape (4,2,2)


class TestPartition:
    def test_make_partition(self):
        assert Partition((4, 2, 2)).n == 8
        assert Partition((3, 2, 1)).n == 6

    def test_validation(self):
        with pytest.raises(NotNonincreasingError):
            Partition((2, 3))
        with pytest.raises(NonPositivePartError):
            Partition((3, 0))
        with pytest.raises(NonPositivePartError):
            Partition(())

    def test_parse_round_trip(self):
        lam = Partition.parse("4,2,2")
        assert lam == Partition((4, 2, 2))
        assert str(lam) == "4,2,2"

    def test_parse_rejects_non_integer_token(self):
        for text in ("3,x", "2.5,1", "a"):
            with pytest.raises(ParseError) as info:
                Partition.parse(text)
            assert isinstance(info.value, SymfusionError)

    # "3 2" was read as 32, the space dropped
    @pytest.mark.parametrize("text", ["3,,2", ",3,2", "3,2,", ",", "", "3, ,2", "3 2", "3 2,1"])
    def test_parse_rejects_an_empty_part_or_parts_parted_by_spaces(self, text):
        with pytest.raises(ParseError):
            Partition.parse(text)

    def test_parse_allows_spaces_around_parts(self):
        assert Partition.parse(" 4, 2 ,2 ") == Partition((4, 2, 2))

    # int() reads each of these: "2_1" as 21, "+3" as 3, Arabic-Indic digits as 3 and 2, a tab or newline as a space
    @pytest.mark.parametrize("text", ["2_1,1", "+3,2", "\u0663,\u0662", "3,\t2", "3,2\n"])
    def test_parse_takes_ascii_digits_only(self, text):
        with pytest.raises(ParseError, match="is not an integer"):
            Partition.parse(text)

    def test_parse_refuses_more_digits_than_int_converts(self):
        with pytest.raises(ParseError, match="cannot parse partition"):
            Partition.parse("1" * 5000 + ",1")

    def test_parse_reads_a_minus_sign_for_the_partition_to_refuse(self):
        with pytest.raises(NonPositivePartError):
            Partition.parse("3,-1")

    @pytest.mark.parametrize("parts", [(2.7, 1), (2.0, 1), (True,), (np.True_,), ("3", "2"), (None,)], ids=repr)
    def test_entries_are_integers_not_truncated(self, parts):
        # int() would read 2.7 as 2, True as 1 and "3" as 3
        with pytest.raises(ParseError):
            Partition(parts)

    def test_numpy_integer_entries(self):
        assert Partition(np.array([3, 2, 2])) == Partition((np.int32(3), 2, np.int64(2))) == Partition((3, 2, 2))
        assert all(type(p) is int for p in Partition(np.array([3, 2])).parts)

    def test_transpose(self):
        assert transpose(Partition((4, 2, 2))) == Partition((3, 3, 1, 1))
        assert transpose(Partition((3, 2, 1))) == Partition((3, 2, 1))
        assert transpose(Partition((5,))) == Partition((1,) * 5)

    @given(lam=partition_strategy())
    def test_transpose_involution(self, lam):
        assert transpose(transpose(lam)) == lam

    def test_symmetry_and_diagonal(self):
        assert is_symmetric(Partition((3, 2, 1)))
        assert not is_symmetric(Partition((4, 2, 2)))
        assert diagonal_count(Partition((3, 1, 1))) == 1
        assert diagonal_count(Partition((2, 2))) == 2
        assert diagonal_count(Partition((1,))) == 1


class TestHooksAndDimension:
    def test_hook_lengths_4_2_2(self):
        # The corner hook of (4,2,2) is 3 right-or-at + 2 below = 6.
        lam = Partition((4, 2, 2))
        assert hook_length(lam, Box(1, 1)) == 6
        assert hook_length(lam, Box(2, 1)) == 3
        assert hook_length(lam, Box(1, 2)) == 5
        assert hook_length(Partition((1,)), Box(1, 1)) == 1

    def test_box_outside(self):
        with pytest.raises(BoxOutsideDiagramError):
            hook_length(Partition((2, 1)), Box(2, 2))

    def test_hook_product_matches_box_hooks_through_12(self):
        for n in range(1, 13):
            for lam in partitions_of(n):
                expected = prod(hook_length(lam, box) for box in boxes(lam))
                assert hook_product(lam) == expected, lam

    def test_dimension_known_values(self):
        assert dimension(Partition((4, 2, 2))) == 56
        assert dimension(Partition((3, 2))) == 5
        assert dimension(Partition((2, 2))) == 2
        assert dimension(Partition((3, 1, 1))) == 6
        assert dimension(Partition((3, 2, 1))) == 16
        assert dimension(Partition((5, 3, 2, 1, 1))) == 7700
        assert dimension(Partition((7, 7, 4, 3, 3))) == 11_660_320_672

    def test_dimension_matches_brute_force(self):
        for shape in [(4, 2, 2), (3, 2), (3, 1, 1), (3, 2, 1), (2, 2, 2), (4, 3)]:
            assert dimension(Partition(shape)) == brute_force_standard_count(shape)

    def test_dimension_transpose_invariant_through_12(self):
        for n in range(1, 13):
            for lam in partitions_of(n):
                assert dimension(lam) == dimension(transpose(lam))

    def test_dimension_squares_sum_to_factorial(self):
        for n in range(1, 9):
            assert sum(dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


class TestUpDownSets:
    def test_down_set_4_2_2(self):
        lam = Partition((4, 2, 2))
        assert down_set(lam) == (
            (Partition((3, 2, 2)), Box(1, 4)),
            (Partition((4, 2, 1)), Box(3, 2)),
        )

    def test_down_set_rectangle(self):
        assert len(down_set(Partition((3, 3)))) == 1

    def test_down_set_staircase(self):
        boxes = [box for _, box in down_set(Partition((3, 2, 1)))]
        assert boxes == [Box(1, 3), Box(2, 2), Box(3, 1)]

    def test_up_set_2_2(self):
        assert up_set(Partition((2, 2))) == (
            (Partition((3, 2)), Box(1, 3)),
            (Partition((2, 2, 1)), Box(3, 1)),
        )

    def test_up_set_single_box(self):
        assert [lam for lam, _ in up_set(Partition((1,)))] == [
            Partition((2,)),
            Partition((1, 1)),
        ]

    def test_up_set_3_1_1(self):
        boxes = [box for _, box in up_set(Partition((3, 1, 1)))]
        assert boxes == [Box(1, 4), Box(2, 2), Box(4, 1)]

    @given(lam=partition_strategy())
    def test_down_set_count_is_distinct_parts(self, lam):
        if lam.n > 1:
            assert len(down_set(lam)) == len(set(lam.parts))

    @given(mu=partition_strategy())
    def test_up_set_count(self, mu):
        assert len(up_set(mu)) == len(set(mu.parts)) + 1

    def test_unvalidated_covers_are_valid_partitions_through_14(self):
        # up_set builds each cover from mu's parts without re-validating them
        for n in range(1, 15):
            for mu in partitions_of(n):
                for lam, box in up_set(mu):
                    checked = Partition(lam.parts)  # raises unless positive and nonincreasing
                    assert type(lam.parts) is tuple and lam.n == checked.n == n + 1, (mu, lam)
                    assert lam.parts[box.row - 1] == box.col, (mu, lam)

    def test_up_set_dimension_identity(self):
        # sum of cover dimensions equals n * dim(mu), mu of size n-1
        for n in range(2, 11):
            for mu in partitions_of(n - 1):
                assert sum(dimension(lam) for lam, _ in up_set(mu)) == n * dimension(mu)


class TestStandardTableaux:
    def test_validation(self):
        with pytest.raises(NotStandardError):
            StandardTableau([[1, 3], [2, 2]])
        with pytest.raises(NotStandardError):
            StandardTableau([[2, 1], [3, 4]])
        with pytest.raises(NotStandardError):
            StandardTableau([[1, 2], [3, 5]])

    def test_enumeration_counts(self):
        assert len(enumerate_standard_tableaux(Partition((3, 2)))) == 5
        assert len(enumerate_standard_tableaux(Partition((1, 1, 1, 1)))) == 1
        assert len(enumerate_standard_tableaux(Partition((3, 1, 1)))) == 6

    def test_enumeration_matches_dimension_through_10(self):
        for n in range(1, 11):
            for lam in partitions_of(n):
                assert len(enumerate_standard_tableaux(lam)) == dimension(lam)

    def test_enumeration_unique_and_standard(self):
        tabs = enumerate_standard_tableaux(Partition((4, 2, 2)))
        assert len(set(tabs)) == 56

    def test_removable_boxes_carry_n(self):
        # a box is removable iff some standard tableau has n in it
        for n in range(2, 9):
            for lam in partitions_of(n):
                with_n = {T.box_of(n) for T in enumerate_standard_tableaux(lam)}
                assert with_n == set(removable_boxes(lam))

    def test_content_fig_example(self):
        assert content(FIG_T) == (0, -1, 1, -2, 2, 0, -1, 3)

    def test_content_row_and_column(self):
        n = 5
        row = row_superstandard(Partition((n,)))
        assert content(row) == tuple(range(n))
        col = row_superstandard(Partition((1,) * n))
        assert content(col) == tuple(-k for k in range(n))

    def test_axial_distances_fig_example(self):
        assert axial_distance(FIG_T, 5, 4) == 4
        assert axial_distance(FIG_T, 1, 6) == 0
        assert axial_distance(FIG_T, 7, 6) == -1
        assert axial_distance(FIG_T, 3, 3) == 0

    def test_adjacent_transposition_nonstandard_gives_none(self):
        # swapping 6 and 7 in the figure tableau breaks standardness
        assert apply_adjacent_transposition(FIG_T, 6) is None
        # k, k+1 in the same row can never produce a standard tableau
        T = row_superstandard(Partition((3, 2)))
        assert apply_adjacent_transposition(T, 1) is None

    def test_adjacent_transposition_example(self):
        T4 = StandardTableau([[1, 2, 5], [3, 4]])
        T2 = StandardTableau([[1, 2, 4], [3, 5]])
        assert apply_adjacent_transposition(T4, 4) == T2

    def test_embed_fig_example(self):
        big = embed(FIG_T, Partition((4, 3, 2)))
        assert big.rows == ((1, 3, 5, 8), (2, 6, 9), (4, 7))
        assert big.box_of(9) == Box(2, 3)

    def test_embed_16_6_6_labels(self):
        lam = Partition((3, 2, 1))
        r1 = StandardTableau([[1, 2, 3], [4], [5]])
        assert embed(r1, lam).rows == ((1, 2, 3), (4, 6), (5,))

    def test_embed_error(self):
        with pytest.raises(NotInUpSetError):
            embed(FIG_T, Partition((4, 2, 2, 2)))

    def test_embed_preserves_axial_distances(self):
        big = embed(FIG_T, Partition((4, 3, 2)))
        for i in range(1, 9):
            for j in range(1, 9):
                assert axial_distance(FIG_T, i, j) == axial_distance(big, i, j)

    def test_embed_then_delete_is_identity(self):
        mu = Partition((3, 1, 1))
        for lam, box in up_set(mu):
            for R in enumerate_standard_tableaux(mu):
                T = embed(R, lam)
                assert T.box_of(lam.n) == box
                stripped = [
                    [v for v in row if v != lam.n] for row in T.rows
                ]
                assert StandardTableau([r for r in stripped if r]) == R

    def test_transpose_tableau(self):
        col = row_superstandard(Partition((1, 1, 1)))
        assert transpose_tableau(col) == row_superstandard(Partition((3,)))
        for T in enumerate_standard_tableaux(Partition((3, 2, 1))):
            assert transpose_tableau(transpose_tableau(T)) == T
            assert transpose_tableau(T).shape == transpose(T.shape)

    def test_transpose_commutes_with_embedding(self):
        mu = Partition((3, 1, 1))
        for lam, _ in up_set(mu):
            for R in enumerate_standard_tableaux(mu):
                left = transpose_tableau(embed(R, lam))
                right = embed(transpose_tableau(R), transpose(lam))
                assert left == right

    def test_json_round_trip(self):
        import json

        data = json.dumps(FIG_T.to_lists())
        assert StandardTableau(json.loads(data)) == FIG_T

    def test_row_superstandard(self):
        assert row_superstandard(Partition((3, 1, 1))).rows == ((1, 2, 3), (4,), (5,))
        assert row_superstandard(Partition((4,))).rows == ((1, 2, 3, 4),)
        # embedding the small reference into the big symmetric shape
        big_ref = embed(row_superstandard(Partition((3, 1, 1))), Partition((3, 2, 1)))
        assert big_ref.rows == ((1, 2, 3), (4, 6), (5,))


class TestPartitionsOf:
    def test_counts(self):
        assert len(list(partitions_of(4))) == 5
        assert list(partitions_of(1)) == [Partition((1,))]
        assert len(list(partitions_of(12))) == 77

    def test_includes_family_example(self):
        assert Partition((5, 3, 2, 1, 1)) in list(partitions_of(12))

    def test_no_duplicates(self):
        for n in range(1, 13):
            ps = list(partitions_of(n))
            assert len(ps) == len(set(ps))
            assert all(p.n == n for p in ps)


class TestWordArrays:
    def test_order_is_the_canonical_key_sort_through_10(self):
        for n in range(1, 11):
            for lam in partitions_of(n):
                tabs = enumerate_standard_tableaux(lam)
                assert list(tabs) == sorted(tabs, key=canonical_key), lam

    def test_words_and_contents_describe_the_tableaux_through_10(self):
        for n in range(1, 11):
            for lam in partitions_of(n):
                tabs = enumerate_standard_tableaux(lam)
                words, contents = tableau_words(lam), tableau_contents(lam)
                assert words.shape == contents.shape == (dimension(lam), n)
                rows = [[T.box_of(e).row - 1 for e in range(1, n + 1)] for T in tabs]
                assert words.tolist() == rows, lam
                assert contents.tolist() == [list(content(T)) for T in tabs], lam

    def test_matches_embedding_enumeration_through_9(self):
        # the definition: embed every tableau of every down-set member, then sort
        def reference(lam):
            if lam.n == 1:
                return [StandardTableau([[1]])]
            out = [embed(R, lam) for mu, _ in down_set(lam) for R in reference(mu)]
            return sorted(out, key=canonical_key)

        for n in range(1, 10):
            for lam in partitions_of(n):
                assert list(enumerate_standard_tableaux(lam)) == reference(lam), lam

    def test_equals_the_recursive_builder_through_9(self):
        for n in range(1, 10):
            for lam in partitions_of(n):
                words, old = tableau_words(lam), recursive_tableau_words(lam)
                assert words.dtype == old.dtype == np.int16 and not words.flags.writeable, lam
                assert np.array_equal(words, old), lam

    def test_a_long_shape_needs_no_recursion_depth(self):
        # one call per box overflowed the interpreter's stack from about 400 boxes
        n = 1200
        words = tableau_words(Partition((n - 1, 1)))
        # the tableau of (n - 1, 1) with k in the second row, for k = 2, ..., n in canonical order
        assert words.dtype == np.int16 and not words.flags.writeable
        assert np.array_equal(words, np.eye(n - 1, n, 1, dtype=np.int16))

    def test_arrays_are_read_only(self):
        lam = Partition((3, 2, 1))
        for arr in (tableau_words(lam), tableau_contents(lam)):
            with pytest.raises(ValueError):
                arr[0, 0] = 1


@settings(max_examples=60)
@given(lam=partition_strategy(max_n=7))
def test_enumeration_oracle_property(lam):
    assert len(enumerate_standard_tableaux(lam)) == brute_force_standard_count(lam.parts)
