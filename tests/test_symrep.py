import numpy as np
import pytest

from symfusion import (
    Partition,
    Permutation,
    dimension,
    down_set,
    partitions_of,
    rep_matrix,
)
from symfusion.errors import IndexOutOfRangeError, NotInDownSetError, SizeMismatchError
from symfusion.permutations import permutation_word
from symfusion.symrep import _generator_action, apply_generator, rep_apply, right_apply_generator

from oracles import (
    adjacent_transposition_matrix,
    apply_adjacent_transposition,
    axial_distance,
    branching_isometry,
    embed,
    enumerate_standard_tableaux,
    tableau_index,
)

TOL = 1e-9
S3 = np.sqrt(3.0)

# pi_(3,2)(s_4) as displayed in the worked (5,2,5) example; its basis order is
# the reverse of the canonical order used here.
PUBLISHED_S4 = np.array(
    [
        [1, 0, 0, 0, 0],
        [0, -0.5, 0, S3 / 2, 0],
        [0, 0, -0.5, 0, S3 / 2],
        [0, S3 / 2, 0, 0.5, 0],
        [0, 0, S3 / 2, 0, 0.5],
    ]
)

PUBLISHED_GENERATORS_3_2 = {
    1: np.diag([1.0, 1.0, -1.0, 1.0, -1.0]),
    2: np.array(
        [
            [2, 0, 0, 0, 0],
            [0, -1, S3, 0, 0],
            [0, S3, 1, 0, 0],
            [0, 0, 0, -1, S3],
            [0, 0, 0, S3, 1],
        ]
    )
    / 2,
    3: np.array(
        [
            [-1, 2 * np.sqrt(2), 0, 0, 0],
            [2 * np.sqrt(2), 1, 0, 0, 0],
            [0, 0, 3, 0, 0],
            [0, 0, 0, 3, 0],
            [0, 0, 0, 0, -3],
        ]
    )
    / 3,
    4: PUBLISHED_S4,
}


def reversal(d: int) -> np.ndarray:
    return np.eye(d)[::-1]


class TestGeneratorMatrices:
    def test_matches_displayed_5_2_5_generators(self):
        lam = Partition((3, 2))
        P = reversal(5)
        for k, expected in PUBLISHED_GENERATORS_3_2.items():
            mine = adjacent_transposition_matrix(lam, k)
            np.testing.assert_allclose(P @ mine @ P, expected, atol=TOL)

    def test_trivial_and_sign_reps(self):
        for k in range(1, 5):
            np.testing.assert_allclose(
                adjacent_transposition_matrix(Partition((5,)), k), [[1.0]]
            )
            np.testing.assert_allclose(
                adjacent_transposition_matrix(Partition((1,) * 5), k), [[-1.0]]
            )

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            adjacent_transposition_matrix(Partition((3, 2)), 5)

    def test_symmetric_orthogonal_involution(self):
        for lam in partitions_of(6):
            for k in range(1, 6):
                M = adjacent_transposition_matrix(lam, k)
                np.testing.assert_allclose(M, M.T, atol=TOL)
                np.testing.assert_allclose(M @ M, np.eye(len(M)), atol=TOL)

    def test_coxeter_relations_through_7(self):
        for n in range(2, 8):
            for lam in partitions_of(n):
                gens = [adjacent_transposition_matrix(lam, k) for k in range(1, n)]
                eye = np.eye(dimension(lam))
                for k in range(n - 1):
                    np.testing.assert_allclose(gens[k] @ gens[k], eye, atol=TOL)
                for k in range(n - 2):
                    lhs = gens[k] @ gens[k + 1] @ gens[k]
                    rhs = gens[k + 1] @ gens[k] @ gens[k + 1]
                    np.testing.assert_allclose(lhs, rhs, atol=TOL)
                for k in range(n - 1):
                    for j in range(k + 2, n - 1):
                        np.testing.assert_allclose(
                            gens[k] @ gens[j], gens[j] @ gens[k], atol=TOL
                        )


def object_generator_action(lam, k):
    """(diag, off, partner) of pi_lam(s_k), built tableau by tableau from objects."""
    tabs = enumerate_standard_tableaux(lam)
    index = tableau_index(lam)
    d = len(tabs)
    diag = np.empty(d)
    off = np.zeros(d)
    partner = np.arange(d)
    for t, T in enumerate(tabs):
        dist = axial_distance(T, k + 1, k)
        diag[t] = 1.0 / dist
        S = apply_adjacent_transposition(T, k)
        if S is not None:
            partner[t] = index[S]
            off[t] = np.sqrt(1.0 - 1.0 / dist**2)
    return diag, off, partner


class TestGeneratorTables:
    def test_bit_identical_to_object_reference_through_10(self):
        for n in range(2, 11):
            for lam in partitions_of(n):
                for k in range(1, n):
                    tables = _generator_action(lam, k)
                    reference = object_generator_action(lam, k)
                    for mine, theirs in zip(tables, reference):
                        assert mine.dtype == theirs.dtype, (lam, k)
                        assert np.array_equal(mine, theirs), (lam, k)

    def test_right_action_is_the_transposed_left_action(self):
        rng = np.random.default_rng(5)
        for lam in partitions_of(6):
            for k in range(1, 6):
                M = rng.standard_normal((4, dimension(lam)))
                expected = M @ adjacent_transposition_matrix(lam, k)
                np.testing.assert_allclose(right_apply_generator(lam, k, M), expected, atol=1e-14)
                np.testing.assert_allclose(apply_generator(lam, k, M.T), expected.T, atol=1e-14)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_out_forms_equal_the_formulas_bit_for_bit(self, dtype):
        # d = 90 and 150 rows span several row chunks; out= and out=None must agree
        # exactly with the one-expression formulas, and only out= may write over M
        rng = np.random.default_rng(3)
        lam = Partition((4, 2, 1, 1))
        d = dimension(lam)

        def draw(shape):
            return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if dtype is complex else 0)

        def left(k, M):
            diag, off, partner = _generator_action(lam, k)
            return diag[:, None] * M + off[:, None] * M[partner]

        M, W = draw((d, 7)), draw((150, d))
        for k in range(1, lam.n):
            diag, off, partner = _generator_action(lam, k)
            right = W * diag + np.take(W, partner, axis=1) * off
            assert np.array_equal(apply_generator(lam, k, M), left(k, M))
            assert np.array_equal(apply_generator(lam, k, M, out=np.empty_like(M)), left(k, M))
            assert np.array_equal(right_apply_generator(lam, k, W), right)
            in_place = W.copy()
            assert right_apply_generator(lam, k, in_place, out=in_place) is in_place
            assert np.array_equal(in_place, right)
        kept = M.copy()
        for g in (Permutation.identity(8), Permutation.adjacent(8, 3), Permutation.parse("(1 2)(4 5)", n=8),
                  Permutation.parse("(1 3)", n=8), Permutation(rng.permutation(8) + 1)):  # 0 to 3 letters, and more
            expected = M
            for k in reversed(permutation_word(g)):
                expected = left(k, expected)
            assert np.array_equal(rep_apply(lam, g, M), expected)
            assert np.array_equal(M, kept)
            assert np.array_equal(rep_apply(lam, g, M.copy(), out=np.empty_like(M)), expected)


class TestRepMatrix:
    def test_identity(self):
        lam = Partition((3, 2))
        np.testing.assert_allclose(
            rep_matrix(lam, Permutation.identity(5)), np.eye(5), atol=TOL
        )

    def test_single_generator(self):
        lam = Partition((3, 1, 1))
        np.testing.assert_allclose(
            rep_matrix(lam, Permutation.adjacent(5, 2)),
            adjacent_transposition_matrix(lam, 2),
            atol=TOL,
        )

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            rep_matrix(Partition((3, 2)), Permutation.identity(4))

    def test_homomorphism_random_pairs(self):
        rng = np.random.default_rng(7)
        for n in range(3, 8):
            for lam in partitions_of(n):
                for _ in range(8):
                    g = Permutation(rng.permutation(n) + 1)
                    h = Permutation(rng.permutation(n) + 1)
                    lhs = rep_matrix(lam, g) @ rep_matrix(lam, h)
                    np.testing.assert_allclose(lhs, rep_matrix(lam, g * h), atol=TOL)

    def test_orthogonality_random(self):
        rng = np.random.default_rng(11)
        for lam in partitions_of(6):
            g = Permutation(rng.permutation(6) + 1)
            M = rep_matrix(lam, g)
            np.testing.assert_allclose(M.T @ M, np.eye(len(M)), atol=TOL)

    def test_mercedes_benz_parameters(self):
        # the two-dimensional standard representation of S_3 sends the three
        # transversal images of a line to pairwise 60-degree lines
        lam = Partition((2, 1))
        mu = Partition((1, 1))
        Psi = branching_isometry(lam, mu)
        from symfusion import transversal_sn

        vecs = [rep_matrix(lam, t) @ Psi for t in transversal_sn(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                gram = vecs[i].T @ vecs[j]
                assert abs(abs(gram[0, 0]) - 0.5) < TOL


class TestBranching:
    def test_shape_and_selector(self):
        lam, mu = Partition((3, 2)), Partition((2, 2))
        Psi = branching_isometry(lam, mu)
        assert Psi.shape == (5, 2)
        assert set(np.unique(Psi)) <= {0.0, 1.0}
        assert (Psi.sum(axis=0) == 1).all()
        # image spans the tableaux with 5 in the removed box (1, 3)
        idx = tableau_index(lam)
        support = {int(np.argmax(Psi[:, c])) for c in range(2)}
        expected = {
            idx[T]
            for T in enumerate_standard_tableaux(lam)
            if T.box_of(5) == (1, 3)
        }
        assert support == expected

    def test_matches_embedding_reference_through_9(self):
        # v_R goes to v_{embed(R, lam)}: the definition, built from tableaux
        for n in range(2, 10):
            for lam in partitions_of(n):
                index = tableau_index(lam)
                for mu, _ in down_set(lam):
                    cols = enumerate_standard_tableaux(mu)
                    reference = np.zeros((dimension(lam), len(cols)))
                    for c, R in enumerate(cols):
                        reference[index[embed(R, lam)], c] = 1.0
                    assert np.array_equal(branching_isometry(lam, mu), reference), (lam, mu)

    def test_not_in_down_set(self):
        with pytest.raises(NotInDownSetError):
            branching_isometry(Partition((3, 2)), Partition((3,)))

    def test_isometry_random_pairs(self):
        rng = np.random.default_rng(3)
        pairs = []
        for n in range(2, 9):
            for lam in partitions_of(n):
                for mu, _ in down_set(lam):
                    pairs.append((lam, mu))
        rng.shuffle(pairs)
        for lam, mu in pairs[:50]:
            Psi = branching_isometry(lam, mu)
            np.testing.assert_allclose(
                Psi.T @ Psi, np.eye(dimension(mu)), atol=TOL
            )

    def test_intertwining_through_8(self):
        for n in range(3, 9):
            for lam in partitions_of(n):
                for mu, _ in down_set(lam):
                    Psi = branching_isometry(lam, mu)
                    for k in range(1, n - 1):
                        g_small = Permutation.adjacent(n - 1, k)
                        g_big = Permutation.adjacent(n, k)
                        lhs = Psi @ rep_matrix(mu, g_small)
                        rhs = rep_matrix(lam, g_big) @ Psi
                        np.testing.assert_allclose(lhs, rhs, atol=TOL)

    def test_cross_gram_16_6_6_displayed_diagonal(self):
        # the displayed 6x6 cross-Gram: diagonal with entries +-1/2, three each
        lam, mu = Partition((3, 2, 1)), Partition((3, 1, 1))
        Psi = branching_isometry(lam, mu)
        M = Psi.T @ adjacent_transposition_matrix(lam, 5) @ Psi
        np.testing.assert_allclose(M, np.diag(np.diag(M)), atol=TOL)
        assert sorted(np.round(np.diag(M), 9)) == [-0.5] * 3 + [0.5] * 3

    def test_cross_gram_5_5_2_is_half_identity(self):
        lam, mu = Partition((3, 2)), Partition((2, 2))
        Psi = branching_isometry(lam, mu)
        M = Psi.T @ adjacent_transposition_matrix(lam, 4) @ Psi
        np.testing.assert_allclose(M, 0.5 * np.eye(2), atol=TOL)

    def test_cross_gram_diagonal_with_axial_entries(self):
        for n in range(3, 9):
            for lam in partitions_of(n):
                for mu, _ in down_set(lam):
                    Psi = branching_isometry(lam, mu)
                    M = Psi.T @ adjacent_transposition_matrix(lam, n - 1) @ Psi
                    expected = np.diag(
                        [
                            1.0 / axial_distance(embed(R, lam), n, n - 1)
                            for R in enumerate_standard_tableaux(mu)
                        ]
                    )
                    np.testing.assert_allclose(M, expected, atol=TOL)
