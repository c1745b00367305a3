import numpy as np
import pytest

from symfusion import (
    Box,
    Partition,
    Permutation,
    StandardTableau,
    an_generator_matrix,
    an_rep_matrix,
    associator_unitary,
    dimension,
    eigenspace_injection,
    embed,
    enumerate_standard_tableaux,
    field_for,
    pair_associator_unitary,
    pair_branching_isometry,
    partitions_of,
    reference_permutation_sign,
    reference_tableau,
    rep_matrix,
    row_superstandard,
    symmetric_branching_isometry,
    tab_star,
    transpose,
    transpose_tableau,
    up_set,
)
from symfusion import altrep
from symfusion import constructions as cons
from symfusion.altrep import (
    family_reference_tableau,
    half_offdiagonal_count,
    i_power,
    layer_eigenbasis,
)
from symfusion.errors import (
    ConstraintViolationError,
    NotSymmetricError,
    OddDistinctPartsError,
    OddPermutationError,
    SymmetricLambdaError,
    TooSmallError,
)
from symfusion.tableaux import is_symmetric, tableau_index

TOL = 1e-9


def symmetric_partitions(n: int):
    return [lam for lam in partitions_of(n) if is_symmetric(lam)]


def random_even(n, rng) -> Permutation:
    while True:
        g = Permutation(rng.permutation(n) + 1)
        if g.is_even:
            return g


def ct(A):
    return A.conj().T


class TestField:
    def test_field_examples(self):
        assert field_for(Partition((2, 1))) == "C"
        assert field_for(Partition((3, 1, 1))) == "R"
        assert field_for(Partition((2, 2))) == "C"
        assert field_for(Partition((3, 2, 1))) == "R"
        assert field_for(Partition((4, 1, 1, 1))) == "C"

    def test_field_requires_symmetric(self):
        with pytest.raises(NotSymmetricError):
            field_for(Partition((3, 1)))

    def test_matches_two_part_family_rule(self):
        # mu = ((a+c)^a, a^c): real iff a(a+2c-1)/2 is even
        for a in range(1, 4):
            for c in range(2, 5):
                mu = Partition((a + c,) * a + (a,) * c)
                expected = "R" if (a * (a + 2 * c - 1) // 2) % 2 == 0 else "C"
                assert field_for(mu) == expected


class TestReference:
    def test_small_shape_reference(self):
        assert reference_tableau(Partition((3, 1, 1))).rows == ((1, 2, 3), (4,), (5,))

    def test_big_shape_reference(self):
        assert reference_tableau(Partition((3, 2, 1))).rows == ((1, 2, 3), (4, 6), (5,))

    def test_sign_of_reference_is_one(self):
        ref = reference_tableau(Partition((3, 2, 1)))
        assert reference_permutation_sign(ref, ref) == 1

    def test_sign_of_single_swap(self):
        from symfusion import apply_adjacent_transposition

        ref = reference_tableau(Partition((3, 2, 1)))
        swapped = apply_adjacent_transposition(ref, 5)
        assert swapped is not None
        assert reference_permutation_sign(swapped, ref) == -1

    def test_sign_of_transpose_rule(self):
        # sgn(g_{T'}) = (-1)^m sgn(g_T) on a symmetric shape
        nu = Partition((3, 2, 1))
        ref = reference_tableau(nu)
        m = half_offdiagonal_count(nu)
        for T in enumerate_standard_tableaux(nu):
            lhs = reference_permutation_sign(transpose_tableau(T), ref)
            rhs = (-1) ** m * reference_permutation_sign(T, ref)
            assert lhs == rhs

    def test_signs_of_transposes_in_families(self):
        # (-1)^m sgn(g_{T'}) sgn(g_T) = 1 for every T in every cover of mu
        for mu in [Partition((1,)), Partition((2, 1)), Partition((3, 1, 1))]:
            m = (mu.n - sum(1 for i, p in enumerate(mu, 1) if p >= i)) // 2
            for lam, _ in up_set(mu):
                ref = family_reference_tableau(mu, lam)
                ref_t = family_reference_tableau(mu, transpose(lam))
                for T in enumerate_standard_tableaux(lam):
                    s = reference_permutation_sign(T, ref)
                    s_t = reference_permutation_sign(transpose_tableau(T), ref_t)
                    assert (-1) ** m * s * s_t == 1


class TestAssociator:
    @pytest.mark.parametrize("nu", [Partition((3, 2, 1)), Partition((4, 1, 1, 1)), Partition((3, 3, 2))])
    def test_involution_selfadjoint_unitary(self, nu):
        U = associator_unitary(nu)
        d = dimension(nu)
        np.testing.assert_allclose(U @ U, np.eye(d), atol=TOL)
        np.testing.assert_allclose(U, ct(U), atol=TOL)
        np.testing.assert_allclose(ct(U) @ U, np.eye(d), atol=TOL)

    def test_commutes_with_even_not_odd(self):
        nu = Partition((3, 2, 1))
        U = associator_unitary(nu)
        even = rep_matrix(nu, Permutation.parse("(1 2)(2 3)", n=6))
        np.testing.assert_allclose(U @ even, even @ U, atol=TOL)
        odd = rep_matrix(nu, Permutation.adjacent(6, 1))
        assert np.max(np.abs(U @ odd - odd @ U)) > 0.5

    def test_requires_symmetric(self):
        with pytest.raises(NotSymmetricError):
            associator_unitary(Partition((3, 1)))


class TestTabStar:
    def test_counts(self):
        assert len(tab_star(Partition((2, 1)))) == 1
        assert len(tab_star(Partition((3, 2, 1)))) == 8

    def test_transpose_pairs_split(self):
        stars = set(tab_star(Partition((3, 2, 1))))
        for T in stars:
            assert transpose_tableau(T) not in stars
        others = set(enumerate_standard_tableaux(Partition((3, 2, 1)))) - stars
        assert {transpose_tableau(T) for T in others} == stars


class TestEigenspaces:
    @pytest.mark.parametrize("nu", [Partition((3, 2, 1)), Partition((4, 1, 1, 1))])
    def test_injection_isometry_and_resolution(self, nu):
        d = dimension(nu)
        Jp = eigenspace_injection(nu, "+")
        Jm = eigenspace_injection(nu, "-")
        np.testing.assert_allclose(ct(Jp) @ Jp, np.eye(d // 2), atol=TOL)
        np.testing.assert_allclose(ct(Jm) @ Jm, np.eye(d // 2), atol=TOL)
        np.testing.assert_allclose(Jp @ ct(Jp) + Jm @ ct(Jm), np.eye(d), atol=TOL)

    @pytest.mark.parametrize("nu", [Partition((3, 2, 1)), Partition((4, 1, 1, 1))])
    def test_injections_are_eigenvectors(self, nu):
        U = associator_unitary(nu)
        np.testing.assert_allclose(U @ eigenspace_injection(nu, "+"), eigenspace_injection(nu, "+"), atol=TOL)
        np.testing.assert_allclose(U @ eigenspace_injection(nu, "-"), -eigenspace_injection(nu, "-"), atol=TOL)

    def test_eigenspace_rep_reconstructs_restriction(self):
        # rho+ (+) rho- conjugated by the injections rebuilds pi restricted to A_n
        rng = np.random.default_rng(5)
        for n in range(5, 9):
            for nu in symmetric_partitions(n):
                Jp = eigenspace_injection(nu, "+")
                Jm = eigenspace_injection(nu, "-")
                B = np.hstack([Jp, Jm])
                half = Jp.shape[1]
                for _ in range(4):
                    g = random_even(n, rng)
                    big = ct(B) @ rep_matrix(nu, g).astype(B.dtype) @ B
                    np.testing.assert_allclose(
                        big[:half, :half], an_rep_matrix(nu, "+", g), atol=TOL
                    )
                    np.testing.assert_allclose(
                        big[half:, half:], an_rep_matrix(nu, "-", g), atol=TOL
                    )
                    np.testing.assert_allclose(big[:half, half:], 0, atol=TOL)
                    np.testing.assert_allclose(big[half:, :half], 0, atol=TOL)


class TestGeneratorMatrices:
    def test_k_at_least_3_matches_sub_block(self):
        nu = Partition((3, 2, 1))
        idx = tableau_index(nu)
        sel = [idx[T] for T in tab_star(nu)]
        for k in range(3, 6):
            full = rep_matrix(nu, Permutation.adjacent(6, k))
            np.testing.assert_allclose(
                an_generator_matrix(nu, "+", k), full[np.ix_(sel, sel)], atol=TOL
            )

    def test_k_2_diagonal_entries(self):
        nu = Partition((3, 2, 1))
        M = an_generator_matrix(nu, "+", 2)
        from symfusion import axial_distance

        for c, T in enumerate(tab_star(nu)):
            assert abs(M[c, c] - 1.0 / axial_distance(T, 3, 2)) < TOL

    @pytest.mark.parametrize("nu", [Partition((3, 2, 1)), Partition((4, 1, 1, 1))])
    @pytest.mark.parametrize("eps", ["+", "-"])
    def test_unitarity_and_conjugation_oracle(self, nu, eps):
        n = nu.n
        J = eigenspace_injection(nu, eps)
        half = J.shape[1]
        for k in range(2, n):
            gen = an_generator_matrix(nu, eps, k)
            np.testing.assert_allclose(ct(gen) @ gen, np.eye(half), atol=TOL)
            g = Permutation.adjacent(n, 1) * Permutation.adjacent(n, k)
            oracle = ct(J) @ rep_matrix(nu, g).astype(J.dtype) @ J
            np.testing.assert_allclose(gen, oracle, atol=TOL)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            an_generator_matrix(Partition((2, 2)), "+", 2)


class TestAnRep:
    def test_identity(self):
        nu = Partition((3, 2, 1))
        np.testing.assert_allclose(
            an_rep_matrix(nu, "+", Permutation.identity(6)), np.eye(8), atol=TOL
        )

    def test_rejects_odd(self):
        with pytest.raises(OddPermutationError):
            an_rep_matrix(Partition((3, 2, 1)), "+", Permutation.adjacent(6, 1))

    def test_homomorphism_50_pairs(self):
        nu = Partition((3, 2, 1))
        rng = np.random.default_rng(23)
        for _ in range(50):
            g = random_even(6, rng)
            h = random_even(6, rng)
            lhs = an_rep_matrix(nu, "+", g) @ an_rep_matrix(nu, "+", h)
            np.testing.assert_allclose(lhs, an_rep_matrix(nu, "+", g * h), atol=TOL)

    def test_intertwines_injection(self):
        nu = Partition((3, 2, 1))
        rng = np.random.default_rng(29)
        for eps in ("+", "-"):
            J = eigenspace_injection(nu, eps)
            for _ in range(10):
                g = random_even(6, rng)
                lhs = J @ an_rep_matrix(nu, eps, g)
                rhs = rep_matrix(nu, g).astype(J.dtype) @ J
                np.testing.assert_allclose(lhs, rhs, atol=TOL)


class TestPairOperators:
    def test_pair_associator_involution_and_commutation(self):
        mu = Partition((3, 1, 1))
        U = pair_associator_unitary(mu)
        total = sum(dimension(lam) for lam, _ in up_set(mu))
        np.testing.assert_allclose(U @ U, np.eye(total), atol=TOL)
        # commutes with the direct-sum representation on even elements
        for k in range(2, 6):
            g = Permutation.adjacent(6, 1) * Permutation.adjacent(6, k)
            blocks = [rep_matrix(lam, g) for lam, _ in up_set(mu)]
            M = np.zeros((total, total))
            off = 0
            for b in blocks:
                M[off : off + len(b), off : off + len(b)] = b
                off += len(b)
            np.testing.assert_allclose(U @ M, M @ U, atol=TOL)

    def test_pair_associator_swaps_blocks(self):
        mu = Partition((3, 1, 1))
        U = pair_associator_unitary(mu)
        dims = [dimension(lam) for lam, _ in up_set(mu)]
        # layers: (4,1,1), (3,2,1), (3,1,1,1); the outer two swap, middle fixed
        d0, d1, d2 = dims
        assert np.max(np.abs(U[:d0, :d0])) == 0
        assert np.max(np.abs(U[d0 : d0 + d1, d0 : d0 + d1])) > 0
        assert np.max(np.abs(U[d0 + d1 :, :d0])) > 0

    def test_pair_associator_rejects_odd_distinct_parts(self):
        with pytest.raises(OddDistinctPartsError):
            pair_associator_unitary(Partition((3, 2, 1)))
        with pytest.raises(NotSymmetricError):
            pair_associator_unitary(Partition((3, 1)))

    def test_wT_prime_identity(self):
        # w_T = eps i^m sgn(g_T) w_{T'} as vectors of the pair eigenspace
        mu = Partition((3, 1, 1))
        m = half_offdiagonal_count(mu)
        for lam, _ in up_set(mu):
            lam_t = transpose(lam)
            if lam == lam_t:
                continue
            idx = tableau_index(lam)
            idx_t = tableau_index(lam_t)
            d = dimension(lam)
            ref = family_reference_tableau(mu, lam)
            ref_t = family_reference_tableau(mu, lam_t)
            for eps in (1, -1):
                for T in enumerate_standard_tableaux(lam):
                    # w_T lives in V_lam (+) V_lam'; coordinates (lam first)
                    w_T = np.zeros(2 * d, dtype=complex)
                    s_T = reference_permutation_sign(T, ref)
                    w_T[idx[T]] = 1 / np.sqrt(2)
                    w_T[d + idx_t[transpose_tableau(T)]] = (
                        eps * i_power(m) * s_T / np.sqrt(2)
                    )
                    w_Tp = np.zeros(2 * d, dtype=complex)
                    Tp = transpose_tableau(T)
                    s_Tp = reference_permutation_sign(Tp, ref_t)
                    w_Tp[d + idx_t[Tp]] = 1 / np.sqrt(2)
                    w_Tp[idx[T]] = eps * i_power(m) * s_Tp / np.sqrt(2)
                    np.testing.assert_allclose(
                        w_T, eps * i_power(m) * s_T * w_Tp, atol=TOL
                    )

    def test_pair_rep_matches_ambient_matrix_entries(self):
        # <rho(g) w_T, w_S> = <pi_lam(g) v_T, v_S> for even g
        mu = Partition((3, 1, 1))
        lam = Partition((4, 1, 1))
        layers = tuple(l for l, _ in up_set(mu))
        J = layer_eigenbasis(mu, layers, "+")
        rng = np.random.default_rng(31)
        total = sum(dimension(l) for l in layers)
        for _ in range(5):
            g = random_even(6, rng)
            blocks = [rep_matrix(l, g) for l in layers]
            M = np.zeros((total, total))
            off = 0
            for b in blocks:
                M[off : off + len(b), off : off + len(b)] = b
                off += len(b)
            rho = ct(J) @ M.astype(J.dtype) @ J
            # the first dim(lam) columns of J are the pair basis of {lam, lam'}
            d = dimension(lam)
            np.testing.assert_allclose(rho[:d, :d], blocks[0], atol=TOL)


class TestBranchingIsometries:
    def test_pair_branching_isometry(self):
        mu = Partition((3, 1, 1))
        lam = Partition((4, 1, 1))
        for eps in ("+", "-"):
            Psi = pair_branching_isometry(lam, mu, eps)
            assert Psi.shape == (dimension(lam), dimension(mu) // 2)
            np.testing.assert_allclose(
                ct(Psi) @ Psi, np.eye(dimension(mu) // 2), atol=TOL
            )

    def test_pair_branching_rejects_symmetric(self):
        with pytest.raises(SymmetricLambdaError):
            pair_branching_isometry(Partition((3, 2, 1)), Partition((3, 1, 1)), "+")

    def test_pair_branching_intertwines(self):
        # Psi rho_mu(g) = rho_pair(g) Psi for generators of A_{n-1};
        # in the w-basis the pair representation is the plain pi_lam matrix.
        mu = Partition((3, 1, 1))
        lam = Partition((4, 1, 1))
        J_mu = eigenspace_injection(mu, "+")
        Psi = pair_branching_isometry(lam, mu, "+")
        for k in range(2, 5):
            g_small = Permutation.adjacent(5, 1) * Permutation.adjacent(5, k)
            g_big = g_small.extend(6)
            rho_mu = ct(J_mu) @ rep_matrix(mu, g_small).astype(J_mu.dtype) @ J_mu
            lhs = Psi @ rho_mu
            rhs = rep_matrix(lam, g_big).astype(Psi.dtype) @ Psi
            np.testing.assert_allclose(lhs, rhs, atol=TOL)

    def test_symmetric_branching_isometry(self):
        nu = Partition((3, 2, 1))
        mu = Partition((3, 1, 1))
        for eps in ("+", "-"):
            Psi = symmetric_branching_isometry(nu, mu, eps)
            assert Psi.shape == (8, 3)
            np.testing.assert_allclose(ct(Psi) @ Psi, np.eye(3), atol=TOL)

    def test_symmetric_branching_intertwines(self):
        nu = Partition((3, 2, 1))
        mu = Partition((3, 1, 1))
        J_mu = eigenspace_injection(mu, "+")
        Psi = symmetric_branching_isometry(nu, mu, "+")
        for k in range(2, 5):
            g_small = Permutation.adjacent(5, 1) * Permutation.adjacent(5, k)
            g_big = g_small.extend(6)
            rho_mu = ct(J_mu) @ rep_matrix(mu, g_small).astype(J_mu.dtype) @ J_mu
            lhs = Psi @ rho_mu
            rhs = an_rep_matrix(nu, "+", g_big) @ Psi
            np.testing.assert_allclose(lhs, rhs, atol=TOL)


class TestLayerEigenbasis:
    @pytest.mark.parametrize("mu", [Partition((3, 1, 1)), Partition((2, 1)), Partition((4, 1, 1, 1))])
    def test_orthonormal_and_complete(self, mu):
        layers = tuple(lam for lam, _ in up_set(mu))
        total = sum(dimension(lam) for lam in layers)
        Jp = layer_eigenbasis(mu, layers, "+")
        Jm = layer_eigenbasis(mu, layers, "-")
        np.testing.assert_allclose(ct(Jp) @ Jp, np.eye(total // 2), atol=TOL)
        np.testing.assert_allclose(Jp @ ct(Jp) + Jm @ ct(Jm), np.eye(total), atol=TOL)
        U = pair_associator_unitary(mu)
        np.testing.assert_allclose(U.astype(Jp.dtype) @ Jp, Jp, atol=TOL)
        np.testing.assert_allclose(U.astype(Jm.dtype) @ Jm, -Jm, atol=TOL)


class TestEpsilon:
    @pytest.mark.parametrize("eps", ["x", "", "plus", [1], True, False, 1.0, -1.0, 0, 2, None])
    def test_rejected(self, eps):
        sel = cons.LayerSelection.from_delta(Partition((3, 1, 1)), 0)
        with pytest.raises(ConstraintViolationError):
            cons.alternating_ensemble(sel, eps)
        with pytest.raises(ValueError):  # existing ValueError handlers still catch it
            eigenspace_injection(Partition((3, 2, 1)), eps)

    @pytest.mark.parametrize("eps", ["x", "", True, 1.0, 0, None])
    def test_rejected_where_the_matrix_does_not_depend_on_it(self, eps):
        # the symmetric branching selector never reads eps, and the identity
        # element of an_rep_matrix needs no generator matrix
        nu = Partition((3, 2, 1))
        with pytest.raises(ConstraintViolationError):
            symmetric_branching_isometry(nu, Partition((3, 1, 1)), eps)
        with pytest.raises(ConstraintViolationError):
            an_rep_matrix(nu, eps, Permutation.identity(6))

    @pytest.mark.parametrize("eps", ["+", "-", 1, -1])
    def test_accepted_where_the_matrix_does_not_depend_on_it(self, eps):
        nu = Partition((3, 2, 1))
        Psi = symmetric_branching_isometry(nu, Partition((3, 1, 1)), eps)
        assert np.array_equal(Psi, symmetric_branching_isometry(nu, Partition((3, 1, 1)), "+"))
        np.testing.assert_array_equal(an_rep_matrix(nu, eps, Permutation.identity(6)), np.eye(len(Psi)))

    @pytest.mark.parametrize("word, number", [("+", 1), ("-", -1)])
    def test_signs_and_words_agree(self, word, number):
        nu = Partition((3, 2, 1))
        assert np.array_equal(eigenspace_injection(nu, word), eigenspace_injection(nu, number))
        mu = Partition((3, 1, 1))
        layers = tuple(lam for lam, _ in up_set(mu))
        assert np.array_equal(layer_eigenbasis(mu, layers, word), layer_eigenbasis(mu, layers, number))


# --- the array layer against the tableau objects it replaced -------------------


def family_mus(max_n: int):
    """Symmetric mu with an even number of distinct parts, |mu| <= max_n."""
    return [
        mu for n in range(1, max_n + 1) for mu in symmetric_partitions(n)
        if len(set(mu.parts)) % 2 == 0
    ]


def oracle_reference(lam: Partition, mu: Partition | None):
    """The reference tableau built from tableau objects: row_superstandard and embed."""
    if mu is not None:
        return embed(row_superstandard(mu), lam)
    if len(set(lam.parts)) % 2 == 0:
        return row_superstandard(lam)
    p = sum(1 for i, part in enumerate(lam, start=1) if part >= i)
    small = Partition(part - (i == p) for i, part in enumerate(lam, start=1) if part - (i == p))
    return embed(row_superstandard(small), lam)


def oracle_signs(lam: Partition, mu: Partition | None) -> np.ndarray:
    ref = oracle_reference(lam, mu)
    return np.array([reference_permutation_sign(T, ref) for T in enumerate_standard_tableaux(lam)])


def oracle_transpose_index(lam: Partition) -> np.ndarray:
    other = tableau_index(transpose(lam))
    return np.array([other[transpose_tableau(T)] for T in enumerate_standard_tableaux(lam)])


def oracle_tab_star(nu: Partition) -> list:
    return [T for T in enumerate_standard_tableaux(nu) if T.box_of(2) == Box(1, 2)]


def oracle_stars(nu: Partition) -> np.ndarray:
    index = tableau_index(nu)
    return np.array([index[T] for T in oracle_tab_star(nu)], dtype=np.intp)


ARRAY_SHAPES = [
    (nu, None) for n in range(2, 11) for nu in symmetric_partitions(n)
] + [(lam, mu) for mu in family_mus(9) for lam, _ in up_set(mu)]


class TestArrayLayer:
    @pytest.mark.parametrize("lam, mu", ARRAY_SHAPES, ids=str)
    def test_matches_tableau_objects(self, lam, mu):
        assert np.array_equal(altrep._sign_vector(lam, mu), oracle_signs(lam, mu))
        assert np.array_equal(altrep._transpose_index(lam), oracle_transpose_index(lam))
        ref = reference_tableau(lam) if mu is None else family_reference_tableau(mu, lam)
        assert ref == oracle_reference(lam, mu)
        if is_symmetric(lam):
            assert np.array_equal(altrep._stars(lam), oracle_stars(lam))
            assert list(tab_star(lam)) == oracle_tab_star(lam)

    def test_builders_construct_no_tableau(self, monkeypatch):
        for cache in (enumerate_standard_tableaux, tableau_index, altrep._sign_vector, altrep._transpose_index):
            cache.cache_clear()
        built = []
        init = StandardTableau.__init__

        def counting_init(self, rows):
            built.append(1)
            init(self, rows)

        monkeypatch.setattr(StandardTableau, "__init__", counting_init)
        nu, mu, lam = Partition((3, 2, 1)), Partition((3, 1, 1)), Partition((4, 1, 1))
        sel = cons.LayerSelection.from_delta(mu, 1)
        cons.alternating_ensemble(sel, "+")
        assert cons.decomposition_check(sel)
        for eps in ("+", "-"):
            associator_unitary(nu)
            eigenspace_injection(nu, eps)
            for k in range(2, nu.n):
                an_generator_matrix(nu, eps, k)
            pair_associator_unitary(mu)
            pair_branching_isometry(lam, mu, eps)
            symmetric_branching_isometry(nu, mu, eps)
            layer_eigenbasis(mu, tuple(l for l, _ in up_set(mu)), eps)
        assert built == []
        tab_star(nu)  # the guard is live: the user surface does build tableaux
        assert built


def object_eigenspace_injection(nu: Partition, eps: int) -> np.ndarray:
    """eigenspace_injection as a loop over tableau objects."""
    m = half_offdiagonal_count(nu)
    signs, index = oracle_signs(nu, None), tableau_index(nu)
    J = np.zeros((dimension(nu), dimension(nu) // 2), dtype=complex if m % 2 else float)
    for c, T in enumerate(oracle_tab_star(nu)):
        J[index[T], c] = 1 / np.sqrt(2.0)
        J[index[transpose_tableau(T)], c] += eps * i_power(m) * signs[index[T]] * (1 / np.sqrt(2.0))
    return J


def object_layer_eigenbasis(mu: Partition, layers, eps: int) -> np.ndarray:
    """layer_eigenbasis as a loop over tableau objects."""
    m = half_offdiagonal_count(mu)
    offsets = dict(zip(layers, np.cumsum([0] + [dimension(lam) for lam in layers]).tolist()))
    columns = []
    for lam in layers:
        lam_t = transpose(lam)
        index, index_t, signs = tableau_index(lam), tableau_index(lam_t), oracle_signs(lam, mu)
        if lam == lam_t:
            tabs = oracle_tab_star(lam)
        elif offsets[lam] < offsets[lam_t]:
            tabs = enumerate_standard_tableaux(lam)
        else:
            continue
        for T in tabs:
            coeff = eps * i_power(m) * signs[index[T]]
            columns.append((offsets[lam] + index[T], offsets[lam_t] + index_t[transpose_tableau(T)], coeff))
    total = sum(dimension(lam) for lam in layers)
    J = np.zeros((total, len(columns)), dtype=complex if m % 2 else float)
    for c, (ra, rb, coeff) in enumerate(columns):
        J[ra, c] += 1 / np.sqrt(2.0)
        J[rb, c] += coeff * (1 / np.sqrt(2.0))
    return J


def random_even_transversal(n: int, seed: int) -> list[Permutation]:
    rng = np.random.default_rng(seed)
    ts = []
    for k in range(1, n + 1):
        images = [x for x in map(int, rng.permutation(n) + 1) if x != k] + [k]
        if not Permutation(images).is_even:
            images[0], images[1] = images[1], images[0]
        ts.append(Permutation(images))
    return ts


class TestAlternatingBlocks:
    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("delta", [0, 1])
    @pytest.mark.parametrize("mu", [(3, 1, 1), (4, 1, 1, 1), (5, 1, 1, 1, 1), (3, 3, 2)])
    def test_blocks_equal_dense_object_oracle(self, mu, delta, eps, seed):
        mu = Partition(mu)
        sel = cons.LayerSelection.from_delta(mu, delta)
        ts = None if seed is None else random_even_transversal(mu.n + 1, seed)
        blocks = cons.alternating_ensemble(sel, eps, transversal=ts).blocks
        J_layers = object_layer_eigenbasis(mu, sel.partitions, eps)
        J_mu = object_eigenspace_injection(mu, eps)
        orbit = cons._layer_orbit(sel, ts or cons.transversal_an(mu.n + 1))
        assert len(blocks) == len(orbit) == mu.n + 1
        for block, thin in zip(blocks, orbit):
            assert np.array_equal(block, J_layers.conj().T @ thin @ J_mu)
