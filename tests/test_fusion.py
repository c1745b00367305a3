import dataclasses
import json
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from symfusion import (
    FusionEnsemble,
    Partition,
    Permutation,
    certify,
    cross_gram,
    naimark_complement,
    single_layer_ensemble,
    tightness_residual,
    welch_alpha,
    welch_bounds,
)
from symfusion.constructions import (
    LayerSelection,
    alternating_ensemble,
    alternating_shapes,
    decomposition_check,
    multi_layer_ensemble,
)
from symfusion.errors import (
    ConstraintViolationError,
    DegenerateParametersError,
    EnsembleFormatError,
    FullDimensionError,
    IndexOutOfRangeError,
    NotIsometryError,
    NotTightError,
    NotUnitaryError,
    SymfusionError,
)
from symfusion import fusion
from symfusion.fusion import is_tight, random_orthonormal_blocks

from oracles import (
    adjacent_transposition_matrix,
    automorphism_witness,
    fusion_frame_operator,
    fusion_gram,
    isoclinism_check,
    pairwise_distances,
    principal_angles,
)

TOL = 1e-9


def orthogonal_tiling(d: int, r: int) -> FusionEnsemble:
    """Partition the standard basis of F^d into d/r coordinate subspaces."""
    eye = np.eye(d)
    blocks = [eye[:, i : i + r] for i in range(0, d, r)]
    return FusionEnsemble.from_blocks(blocks)


def isoclinic_pair(alpha: float) -> FusionEnsemble:
    # the (d, r) = (4, 2) textbook pair: the identity embedding against the
    # rotated copy with cosine sqrt(alpha) in both principal angles
    b1 = np.zeros((4, 2))
    b1[0, 0] = b1[1, 1] = 1.0
    b2 = np.array(
        [
            [np.sqrt(alpha), 0],
            [0, np.sqrt(alpha)],
            [np.sqrt(1 - alpha), 0],
            [0, np.sqrt(1 - alpha)],
        ]
    )
    return FusionEnsemble.from_blocks([b1, b2])


@pytest.fixture(scope="module")
def eitff_5_2_5():
    return single_layer_ensemble(Partition((3, 2)), Partition((2, 2)))


@pytest.fixture(scope="module")
def eitff_16_6_6():
    return single_layer_ensemble(Partition((3, 2, 1)), Partition((3, 1, 1)))


class TestEnsembleValidation:
    def test_rejects_non_isometry(self):
        with pytest.raises(NotIsometryError):
            FusionEnsemble.from_blocks([np.ones((3, 2))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_block(self, bad):
        blocks = [b.copy() for b in single_layer_ensemble(Partition((3, 2)), Partition((2, 2))).blocks]
        blocks[1][0, 0] = bad
        with pytest.raises(NotIsometryError, match="non-finite"):
            FusionEnsemble.from_blocks(blocks)

    def test_rejects_a_finite_block_whose_gram_overflows(self):
        # conj(z) z of z = 1e200 (1 + i) has imaginary part inf - inf = NaN, which the
        # test "residual > tol" would pass
        b = np.full((3, 2), 1e200 * (1 + 1j))
        with pytest.raises(NotIsometryError, match="block 1 fails isometry: residual nan"):
            FusionEnsemble.from_blocks([b])

    def test_rejects_non_finite_complex_block(self):
        b = np.eye(3, 2, dtype=complex)
        b[2, 1] = complex(0.0, np.nan)
        with pytest.raises(NotIsometryError, match="non-finite"):
            FusionEnsemble.from_blocks([b], field="C")

    @pytest.mark.parametrize("block", [np.ones(3), np.ones(()), np.ones((3, 2, 1)), np.zeros((3, 0), dtype=complex)])
    def test_rejects_a_first_block_that_is_not_a_matrix(self, block):
        with pytest.raises(DegenerateParametersError):
            FusionEnsemble.from_blocks([block])

    def test_nan_imaginary_part_makes_the_block_complex(self):
        # field inference must not drop a non-finite imaginary part
        b = np.eye(3, 2, dtype=complex)
        b[2, 1] = complex(0.0, np.nan)
        with pytest.raises(NotIsometryError, match="non-finite"):
            FusionEnsemble.from_blocks([b])

    @pytest.mark.parametrize("field", ["X", "", "r", "c", 1, ("R",)])
    def test_rejects_unknown_field(self, field):
        # the rule and the error class of the ensemble file loader
        with pytest.raises(EnsembleFormatError, match="field must be 'R' or 'C'"):
            FusionEnsemble.from_blocks([np.eye(2)], field=field)

    @pytest.mark.parametrize("field, expected", [(None, "R"), ("R", "R"), ("C", "C")])
    def test_accepts_known_field(self, field, expected):
        assert FusionEnsemble.from_blocks([np.eye(2)], field=field).field == expected

    def test_field_inference(self):
        e = orthogonal_tiling(4, 2)
        assert e.field == "R"
        blocks = [b.astype(complex) for b in random_orthonormal_blocks(4, 2, 2, 0, True)]
        assert FusionEnsemble.from_blocks(blocks).field == "C"

    def test_ensembles_compare_and_hash_by_identity(self):
        # the generated == compared tuples of arrays (no truth value), and hash hashed them
        blocks = single_layer_ensemble(Partition((3, 2)), Partition((2, 2))).blocks
        a, b = FusionEnsemble.from_blocks(blocks), FusionEnsemble.from_blocks(blocks)
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2


class TestFrameOperator:
    def test_orthonormal_partition_gives_identity(self):
        e = orthogonal_tiling(6, 2)
        np.testing.assert_allclose(fusion_frame_operator(e), np.eye(6), atol=TOL)

    def test_5_2_5_operator_is_two_identity(self, eitff_5_2_5):
        np.testing.assert_allclose(
            fusion_frame_operator(eitff_5_2_5), 2.0 * np.eye(5), atol=TOL
        )

    def test_trace_is_rn(self):
        e = FusionEnsemble.from_blocks(random_orthonormal_blocks(7, 3, 4, 1))
        assert abs(np.trace(fusion_frame_operator(e)) - 12.0) < TOL * 7


class TestTightness:
    def test_tight_example(self, eitff_5_2_5):
        assert tightness_residual(eitff_5_2_5) < 1e-9

    def test_repeated_subspace_not_tight(self):
        b = np.zeros((5, 2))
        b[0, 0] = b[1, 1] = 1.0
        e = FusionEnsemble.from_blocks([b, b])
        assert tightness_residual(e) >= 1 - 2 * 2 / 5

    def test_single_full_subspace(self):
        e = FusionEnsemble.from_blocks([np.eye(3)])
        assert tightness_residual(e) < TOL


class TestAnglesAndDistances:
    def test_cross_gram_identity_on_diagonal(self, eitff_5_2_5):
        np.testing.assert_allclose(cross_gram(eitff_5_2_5, 2, 2), np.eye(2), atol=TOL)

    def test_5_2_5_angles_are_60_degrees(self, eitff_5_2_5):
        angles = principal_angles(eitff_5_2_5, 1, 2)
        np.testing.assert_allclose(angles, [np.pi / 3, np.pi / 3], atol=1e-7)

    def test_orthogonal_subspaces(self):
        e = orthogonal_tiling(6, 2)
        np.testing.assert_allclose(principal_angles(e, 1, 2), np.pi / 2, atol=TOL)
        assert pairwise_distances(e, 1, 2) == pytest.approx((1.0, np.sqrt(2.0)))

    def test_identical_subspaces(self):
        b = np.eye(4)[:, :2]
        e = FusionEnsemble.from_blocks([b, b.copy()])
        np.testing.assert_allclose(principal_angles(e, 1, 2), 0.0, atol=TOL)

    def test_isoclinic_pair_distances(self):
        alpha = 0.3
        e = isoclinic_pair(alpha)
        sp, ch = pairwise_distances(e, 1, 2)
        assert sp == pytest.approx(np.sqrt(1 - alpha))
        assert ch == pytest.approx(np.sqrt(2 * (1 - alpha)))

    def test_5_2_5_spectral_distance(self, eitff_5_2_5):
        sp, _ = pairwise_distances(eitff_5_2_5, 1, 2)
        assert sp == pytest.approx(np.sqrt(3) / 2, abs=1e-9)

    def test_symmetry_in_pair_order(self, eitff_16_6_6):
        for (i, j) in [(1, 2), (2, 5), (3, 6)]:
            np.testing.assert_allclose(
                principal_angles(eitff_16_6_6, i, j),
                principal_angles(eitff_16_6_6, j, i),
                atol=TOL,
            )

    def test_same_index_rejected(self, eitff_5_2_5):
        with pytest.raises(IndexOutOfRangeError):
            principal_angles(eitff_5_2_5, 2, 2)


class TestWelch:
    def test_5_2_5_value(self):
        sp, ch = welch_bounds(5, 2, 5)
        assert sp == pytest.approx(np.sqrt(3) / 2)
        assert ch == pytest.approx(np.sqrt(2) * np.sqrt(3) / 2)

    def test_requires_two_subspaces(self):
        with pytest.raises(DegenerateParametersError):
            welch_bounds(5, 2, 1)

    def test_chordal_is_sqrt_r_times_spectral(self):
        for (d, r, n) in [(7, 3, 4), (10, 2, 9), (16, 6, 6)]:
            sp, ch = welch_bounds(d, r, n)
            assert ch == pytest.approx(np.sqrt(r) * sp)

    def test_alpha(self):
        assert welch_alpha(5, 2, 5) == pytest.approx(0.25)
        assert welch_alpha(16, 6, 6) == pytest.approx(0.25)


class TestIsoclinism:
    def test_5_2_5(self, eitff_5_2_5):
        assert isoclinism_check(eitff_5_2_5) == pytest.approx(0.25, abs=1e-9)

    def test_16_6_6(self, eitff_16_6_6):
        assert isoclinism_check(eitff_16_6_6) == pytest.approx(0.25, abs=1e-9)

    def test_distinct_angles_fail(self):
        b1 = np.eye(4)[:, :2]
        theta = 0.7
        b2 = np.array(
            [
                [np.cos(theta), 0],
                [0, 1.0],
                [np.sin(theta), 0],
                [0, 0],
            ]
        )
        e = FusionEnsemble.from_blocks([b1, b2])
        assert isoclinism_check(e) is None


class TestCertify:
    def test_5_2_5_report(self, eitff_5_2_5):
        rep = certify(eitff_5_2_5)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(0.25, abs=1e-9)
        assert rep.spectral_min == pytest.approx(rep.welch_spectral, abs=1e-7)
        assert rep.lemmens_seidel_equality is True

    def test_random_blocks_do_not_certify(self):
        e = FusionEnsemble.from_blocks(random_orthonormal_blocks(10, 2, 3, 42))
        rep = certify(e)
        assert rep.classification in ("NONE", "TFF")
        assert rep.classification != "EITFF"

    def test_orthogonal_tiling_is_eitff_alpha_zero(self):
        rep = certify(orthogonal_tiling(6, 2))
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(0.0, abs=1e-12)
        assert rep.welch_alpha == pytest.approx(0.0, abs=1e-12)

    def test_single_subspace(self):
        rep = certify(FusionEnsemble.from_blocks([np.eye(3)]))
        assert rep.is_tight and rep.classification == "TFF"
        assert rep.welch_spectral is None

    def test_basis_invariance(self, eitff_5_2_5):
        rng = np.random.default_rng(17)
        U, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        blocks = []
        for b in eitff_5_2_5.blocks:
            Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            blocks.append(U @ b @ Q)
        rotated = FusionEnsemble.from_blocks(blocks, tol=1e-7)
        r1 = certify(eitff_5_2_5)
        r2 = certify(rotated, tol=1e-7)
        assert r1.classification == r2.classification
        assert r1.isoclinism_alpha == pytest.approx(r2.isoclinism_alpha, abs=1e-7)
        assert r1.spectral_min == pytest.approx(r2.spectral_min, abs=1e-7)
        assert r1.chordal_min == pytest.approx(r2.chordal_min, abs=1e-7)

    def test_eitff_alpha_matches_formula(self, eitff_16_6_6):
        rep = certify(eitff_16_6_6)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(rep.welch_alpha, abs=1e-9)


def three_pass_certify(e: FusionEnsemble, tol: float = TOL) -> dict:
    """The earlier certifier as an oracle: per pair, separate cross-Grams and SVDs
    for the angles and the distances, and a max-entry test of G*G - alpha I."""

    def singular_values(i, j):
        return np.linalg.svd(cross_gram(e, i, j), compute_uv=False)

    def isoclinism(i, j):
        G = cross_gram(e, i, j)
        M = G.conj().T @ G
        alpha = float(np.real(np.trace(M))) / e.r
        return alpha, float(np.max(np.abs(M - alpha * np.eye(e.r))))

    pair_angles, spectrals, chordals, alphas = [], [], [], []
    isoclinic = True
    for i in range(1, e.n + 1):
        for j in range(i + 1, e.n + 1):
            angles = np.arccos(np.clip(singular_values(i, j), 0.0, 1.0))
            pair_angles.append((i, j, tuple(float(a) for a in angles)))
            s = np.clip(singular_values(i, j), 0.0, 1.0)
            spectrals.append(float(np.sqrt(max(0.0, 1.0 - float(s[0]) ** 2))))
            chordals.append(float(np.sqrt(max(0.0, e.r - float(np.sum(s**2))))))
            alpha, resid = isoclinism(i, j)
            isoclinic = isoclinic and resid <= tol
            alphas.append(alpha)
    alpha = None
    if alphas and isoclinic and max(alphas) - min(alphas) <= tol:
        alpha = float(np.mean(alphas))
    common = None
    if chordals and max(chordals) - min(chordals) <= tol:
        common = float(np.mean(chordals))
    if tightness_residual(e) > tol * max(1.0, e.r * e.n / e.d):
        classification = "NONE"
    else:
        classification = "EITFF" if alpha is not None else "ECTFF" if common is not None else "TFF"
    return {
        "principal_angles": tuple(pair_angles),
        "spectral_min": min(spectrals) if spectrals else None,
        "chordal_min": min(chordals) if chordals else None,
        "common_chordal": common,
        "isoclinism_alpha": alpha,
        "classification": classification,
    }


def two_tilings(d: int, r: int, seed: int) -> FusionEnsemble:
    # a coordinate tiling and a randomly rotated one: tight, unequal chordal distances
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return FusionEnsemble.from_blocks([M[:, k : k + r] for M in (np.eye(d), Q) for k in range(0, d, r)])


def spectral_only_defect_pair(r: int, alpha: float, eps: float) -> FusionEnsemble:
    """Two r-subspaces of F^2r whose cross-Gram G has G*G = alpha I + eps J (J all ones).

    G*G minus its trace-normalized identity is eps (J - I): every entry is at
    most eps, but its spectral norm is (r - 1) eps.
    """
    def psd_sqrt(M):
        w, V = np.linalg.eigh(M)
        return (V * np.sqrt(w)) @ V.T

    M = alpha * np.eye(r) + eps * np.ones((r, r))
    b1 = np.vstack([np.eye(r), np.zeros((r, r))])
    b2 = np.vstack([psd_sqrt(M), psd_sqrt(np.eye(r) - M)])
    return FusionEnsemble.from_blocks([b1, b2])


# name -> (classification, builder); every class the certifier can return
EQUIVALENCE_CASES = {
    "random_none": ("NONE", lambda: FusionEnsemble.from_blocks(random_orthonormal_blocks(10, 2, 3, 42))),
    "random_complex_none": ("NONE", lambda: FusionEnsemble.from_blocks(random_orthonormal_blocks(6, 3, 4, 7, True))),
    "two_tilings_tff": ("TFF", lambda: two_tilings(6, 2, 3)),
    "multi_layer_ectff": ("ECTFF", lambda: multi_layer_ensemble(LayerSelection(Partition((3, 1)), (0, 2)))),
    "real_eitff": ("EITFF", lambda: single_layer_ensemble(Partition((3, 2, 1)), Partition((3, 1, 1)))),
    "complex_eitff": (
        "EITFF",
        lambda: alternating_ensemble(LayerSelection.from_delta(alternating_shapes(1, 3), 1), "+"),
    ),
    "orthogonal_tiling": ("EITFF", lambda: orthogonal_tiling(6, 2)),
    "single_subspace": ("TFF", lambda: FusionEnsemble.from_blocks([np.eye(3)])),
}


def build(case: str) -> FusionEnsemble:
    return EQUIVALENCE_CASES[case][1]()


class TestOnePassCertifier:
    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
    def test_matches_three_pass_oracle(self, case):
        e = build(case)
        rep, old = certify(e), three_pass_certify(e)
        assert rep.classification == old["classification"] == EQUIVALENCE_CASES[case][0]
        assert rep.principal_angles == old["principal_angles"]
        assert rep.spectral_min == old["spectral_min"]
        assert rep.chordal_min == old["chordal_min"]
        assert rep.common_chordal == old["common_chordal"]
        if old["isoclinism_alpha"] is None:
            assert rep.isoclinism_alpha is None
        else:
            assert abs(rep.isoclinism_alpha - old["isoclinism_alpha"]) <= 1e-12
        for i, j, angles in old["principal_angles"]:
            assert np.array_equal(principal_angles(e, i, j), np.array(angles))

    @pytest.mark.parametrize("case", ["random_none", "multi_layer_ectff", "complex_eitff"])
    def test_public_views_match_the_report(self, case):
        e = build(case)
        rep = certify(e)
        dists = [pairwise_distances(e, i, j) for i, j, _ in rep.principal_angles]
        assert min(sp for sp, _ in dists) == rep.spectral_min
        assert min(ch for _, ch in dists) == rep.chordal_min
        assert isoclinism_check(e) == rep.isoclinism_alpha

    def test_spectral_rule_is_stricter_than_max_entry(self):
        tol = 1e-6
        e = spectral_only_defect_pair(r=4, alpha=0.3, eps=0.6 * tol)
        old = three_pass_certify(e, tol)
        assert old["isoclinism_alpha"] == pytest.approx(0.3 + 0.6 * tol, abs=1e-12)
        rep = certify(e, tol)
        assert isoclinism_check(e, tol) is None and rep.isoclinism_alpha is None
        assert rep.isoclinism_residual == pytest.approx(3 * 0.6 * tol, rel=1e-6)
        assert rep.isoclinism_residual > tol

    @pytest.mark.parametrize("case", ["random_none", "real_eitff", "complex_eitff", "single_subspace"])
    def test_one_cross_gram_and_one_svd_per_pair(self, monkeypatch, case):
        import symfusion.fusion as fusion

        e = build(case)
        counts = {"cross_gram": 0, "svd": 0}
        real_cross_gram, real_svd = fusion.cross_gram, np.linalg.svd

        def counted_cross_gram(*args, **kwargs):
            counts["cross_gram"] += 1
            return real_cross_gram(*args, **kwargs)

        def counted_svd(a, *args, **kwargs):  # a stack of matrices counts each one
            counts["svd"] += len(a) if a.ndim == 3 else 1
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(fusion, "cross_gram", counted_cross_gram)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        certify(e)
        pairs = e.n * (e.n - 1) // 2
        assert counts == {"cross_gram": pairs, "svd": pairs}


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def open_helper_gate(monkeypatch, env: dict[str, str], cpus: set[int] | int | None, min_bytes: int | None = 0) -> None:
    """Set the helper gate's inputs: the BLAS variables (all others unset), the CPUs the
    process may use (a set is its affinity; an int or None is what os.cpu_count returns on
    a platform with no sched_getaffinity) and the size constant (None keeps it)."""
    for var in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    if isinstance(cpus, set):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if min_bytes is not None:
        monkeypatch.setattr(fusion, "_HELPER_BYTES", min_bytes)


@pytest.fixture
def threads_made(monkeypatch):
    """Every threading.Thread constructed while the test runs."""
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(threading, "Thread", Recorded)
    return made


# name -> (classification, builder)
HELPER_CASES = {
    "real_eitff": EQUIVALENCE_CASES["real_eitff"],
    "complex_eitff": EQUIVALENCE_CASES["complex_eitff"],
    "random_none": EQUIVALENCE_CASES["random_none"],
    "n_1": EQUIVALENCE_CASES["single_subspace"],
    "n_2": ("NONE", lambda: isoclinic_pair(0.3)),
}


class TestHelperThread:
    @pytest.mark.parametrize("case", list(HELPER_CASES))
    def test_helper_on_equals_helper_off(self, monkeypatch, threads_made, case):
        classification, build_case = HELPER_CASES[case]
        e = build_case()
        with monkeypatch.context() as m:
            m.setattr(fusion, "_helper_wanted", lambda e: False)
            off = certify(e)
        assert threads_made == []
        open_helper_gate(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"}, {0, 1})
        on = certify(e)
        assert len(threads_made) == 1 and threads_made[0].daemon and not threads_made[0].is_alive()
        assert on.to_json() == off.to_json()
        assert on.summary() == off.summary()
        assert on.classification == classification

    def test_every_pair_is_claimed_once_under_fast_thread_switches(self, monkeypatch, threads_made):
        e = FusionEnsemble.from_blocks(random_orthonormal_blocks(12, 2, 24, 5))
        with monkeypatch.context() as m:
            m.setattr(fusion, "_helper_wanted", lambda e: False)
            off = certify(e)
        open_helper_gate(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"}, {0, 1})
        claimed, lock, real_cross_gram = [], threading.Lock(), fusion.cross_gram

        def recorded(e, i, j):
            with lock:
                claimed.append((i, j))
            return real_cross_gram(e, i, j)

        monkeypatch.setattr(fusion, "cross_gram", recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            on = certify(e)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads_made) == 1 and not threads_made[0].is_alive()
        assert sorted(claimed) == [(i, j) for i in range(1, 25) for j in range(i + 1, 25)]
        assert on.to_json() == off.to_json()

    @pytest.mark.parametrize("broken", ["tightness_residual", "cross_gram"])
    def test_an_exception_in_either_thread_reaches_the_caller(self, monkeypatch, threads_made, broken):
        e = HELPER_CASES["real_eitff"][1]()
        baseline = threading.active_count()
        open_helper_gate(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"}, {0, 1})

        def fail(*args):
            raise RuntimeError(f"{broken} failed")

        monkeypatch.setattr(fusion, broken, fail)
        with pytest.raises(RuntimeError, match=f"{broken} failed"):
            certify(e)
        assert len(threads_made) == 1 and not threads_made[0].is_alive()
        assert threading.active_count() == baseline

    @pytest.mark.parametrize(
        "env, cpus, min_bytes",
        [
            ({"OPENBLAS_NUM_THREADS": "1"}, {0, 1}, None),  # P is below the size constant
            ({}, {0, 1}, 0),  # BLAS picks its own thread count
            ({"OPENBLAS_NUM_THREADS": "2"}, {0, 1}, 0),
            ({"OMP_NUM_THREADS": "2"}, {0, 1}, 0),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, {0, 1}, 0),  # OpenBLAS reads its own first
            ({"OPENBLAS_NUM_THREADS": "1"}, {0}, 0),  # one CPU
            ({"OPENBLAS_NUM_THREADS": "1"}, 1, 0),  # no sched_getaffinity: os.cpu_count
            ({"OPENBLAS_NUM_THREADS": "1"}, None, 0),  # os.cpu_count cannot tell
        ],
    )
    def test_gate_closed_starts_no_thread(self, monkeypatch, threads_made, env, cpus, min_bytes):
        e = HELPER_CASES["real_eitff"][1]()
        assert e.synthesis().nbytes < fusion._HELPER_BYTES
        open_helper_gate(monkeypatch, env, cpus, min_bytes)
        certify(e)
        assert threads_made == []

    @pytest.mark.parametrize(
        "env, cpus",
        [
            ({"OMP_NUM_THREADS": "1"}, {0, 1}),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, {0, 1, 2}),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2),  # no sched_getaffinity: os.cpu_count
        ],
    )
    def test_gate_open_starts_one_helper(self, monkeypatch, threads_made, env, cpus):
        open_helper_gate(monkeypatch, env, cpus)
        certify(HELPER_CASES["real_eitff"][1]())
        assert len(threads_made) == 1


# name -> builder: the helper cases, r = 1, and rows that end in a part stack
STACK_CASES = {
    **{name: build_case for name, (_, build_case) in HELPER_CASES.items()},
    "r_1": lambda: FusionEnsemble.from_blocks(random_orthonormal_blocks(5, 1, 9, 3)),
    # k = 1024 // 100 = 10 pairs a stack, so row i's 24 - i pairs end in a stack of fewer
    "part_stacks": lambda: FusionEnsemble.from_blocks(random_orthonormal_blocks(120, 100, 24, 11)),
}


class TestStackedPairPass:
    @pytest.mark.parametrize("helper", [False, True], ids=["helper_off", "helper_on"])
    @pytest.mark.parametrize("case", list(STACK_CASES))
    def test_report_equals_the_per_pair_oracle(self, monkeypatch, threads_made, case, helper):
        e = STACK_CASES[case]()
        if helper:
            open_helper_gate(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"}, {0, 1})
        else:
            monkeypatch.setattr(fusion, "_helper_wanted", lambda e: False)
        rep = certify(e)
        assert len(threads_made) == helper
        pairs = [(i, j) for i in range(1, e.n + 1) for j in range(i + 1, e.n + 1)]
        assert [(i, j) for i, j, _ in rep.principal_angles] == pairs
        for i, j, angles in rep.principal_angles:
            assert angles == tuple(principal_angles(e, i, j).tolist())
        dists = [pairwise_distances(e, i, j) for i, j in pairs]
        assert rep.spectral_min == min((sp for sp, _ in dists), default=None)
        assert rep.chordal_min == min((ch for _, ch in dists), default=None)
        assert rep.isoclinism_alpha == isoclinism_check(e)

    @pytest.mark.parametrize("case", ["r_1", "part_stacks", "real_eitff"])
    def test_one_svd_per_stack_of_at_most_panel_rows(self, monkeypatch, case):
        e = STACK_CASES[case]()
        k, stacks, real_svd = max(1, fusion._PANEL_ROWS // e.r), [], np.linalg.svd

        def recorded_svd(a, *args, **kwargs):
            stacks.append(a.shape)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        certify(e)
        # row i has n - i pairs, cut into stacks of k from its start
        want = [(min(k, e.n - j), e.r, e.r) for i in range(1, e.n) for j in range(i, e.n, k)]
        assert stacks == want
        assert max(m for m, _, _ in stacks) * e.r <= fusion._PANEL_ROWS


def eye_difference_residual(e: FusionEnsemble) -> float:
    """The residual as first written: a d x d eye and a d x d difference."""
    return float(np.max(np.abs(fusion_frame_operator(e) - (e.r * e.n / e.d) * np.eye(e.d))))


class TestInPlaceTightness:
    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
    def test_equals_the_eye_difference_formula(self, case):
        e = build(case)
        assert tightness_residual(e) == eye_difference_residual(e)

    def test_equals_the_eye_difference_formula_on_iii_1_1_4(self):
        e = single_layer_ensemble(Partition((5, 2, 1, 1, 1)), Partition((5, 1, 1, 1, 1)))
        assert tightness_residual(e) == eye_difference_residual(e)


# d above the panel height of tightness_residual, so it takes several panel products
PANELLED_CASES = {"real_1500": (1500, 300, 7, 3), "complex_1300": (1300, 200, 9, 3, True)}


@pytest.fixture(scope="module", params=list(PANELLED_CASES))
def panelled(request):
    return request.param, FusionEnsemble.from_blocks(random_orthonormal_blocks(*PANELLED_CASES[request.param]))


class TestPanelledTightness:
    def test_equals_the_eye_difference_formula(self, panelled):
        import symfusion.fusion as fusion

        _case, e = panelled
        assert e.d > fusion._PANEL_ROWS
        assert tightness_residual(e) == eye_difference_residual(e)

    def test_allocates_less_than_the_frame_operator(self, panelled):
        import tracemalloc

        case, e = panelled
        tightness_residual(e)  # warm up any lazy numpy state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tightness_residual(e)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the real one holds one panel product; the complex one also the conjugate of one panel
        bound = {"real_1500": 0.6, "complex_1300": 1.3}[case]
        assert peak <= bound * e.d * e.d * e.synthesis().itemsize

STACKED_CASES = {
    **{case: builder for case, (_, builder) in EQUIVALENCE_CASES.items()},
    "real_iii_1_1_4": lambda: single_layer_ensemble(Partition((5, 2, 1, 1, 1)), Partition((5, 1, 1, 1, 1))),
}


class TestStackedSynthesis:
    @pytest.mark.parametrize("case", list(STACKED_CASES))
    def test_blocks_are_views_of_one_synthesis_array(self, case):
        e = STACKED_CASES[case]()
        P = e.synthesis()
        assert e.synthesis() is P
        assert P.shape == (e.d, e.r * e.n) and P.flags.c_contiguous
        assert all(np.shares_memory(b, P) for b in e.blocks)
        assert np.array_equal(P, np.hstack(e.blocks))

    @pytest.mark.parametrize("case", list(STACKED_CASES))
    def test_storage_is_read_only(self, case):
        e = STACKED_CASES[case]()
        for target in (e.synthesis(), e.blocks[0], e.blocks[-1]):
            with pytest.raises(ValueError, match="read-only"):
                target[0, 0] = 1.0
        with pytest.raises(ValueError):
            e.blocks[0].setflags(write=True)

    @pytest.mark.parametrize("case", list(STACKED_CASES))
    def test_caller_arrays_are_copied(self, case):
        e = STACKED_CASES[case]()
        inputs = [np.array(b) for b in e.blocks]
        f = FusionEnsemble.from_blocks(inputs, field=e.field)
        assert np.array_equal(f.synthesis(), e.synthesis())
        for b in inputs:
            b[...] = 7.0
        assert np.array_equal(f.synthesis(), e.synthesis())
        assert all(np.array_equal(x, y) for x, y in zip(f.blocks, e.blocks, strict=True))

    @pytest.mark.parametrize("case", list(STACKED_CASES))
    def test_frame_operator_equals_the_per_block_sum(self, case):
        e = STACKED_CASES[case]()
        S = np.zeros((e.d, e.d), dtype=e.synthesis().dtype)
        for b in e.blocks:
            S += b @ b.conj().T
        assert np.max(np.abs(fusion_frame_operator(e) - S)) <= 1e-13

    def test_tightness_allocates_about_one_frame_operator(self):
        import tracemalloc

        e = STACKED_CASES["real_iii_1_1_4"]()
        tightness_residual(e)  # warm up any lazy numpy state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tightness_residual(e)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        operator = e.d * e.d * 8
        assert operator <= peak <= 1.25 * operator


class TestReportResiduals:
    def test_eitff_residuals_within_tolerance(self, eitff_16_6_6):
        rep = certify(eitff_16_6_6)
        for value in (rep.isoclinism_residual, rep.alpha_spread, rep.chordal_spread):
            assert 0.0 <= value <= rep.tolerance

    def test_failed_tests_report_their_margin(self):
        rep = certify(build("multi_layer_ectff"))
        assert rep.classification == "ECTFF"
        assert rep.chordal_spread <= rep.tolerance < rep.isoclinism_residual
        rep = certify(build("random_none"))
        assert rep.isoclinism_residual > rep.tolerance
        assert rep.alpha_spread > rep.tolerance and rep.chordal_spread > rep.tolerance

    def test_residuals_in_json_and_none_for_one_subspace(self, eitff_5_2_5):
        data = certify(eitff_5_2_5).to_json_dict()
        assert {"isoclinism_residual", "alpha_spread", "chordal_spread"} <= set(data)
        rep = certify(FusionEnsemble.from_blocks([np.eye(3)]))
        assert rep.isoclinism_residual is rep.alpha_spread is rep.chordal_spread is None

    def test_json_dict_holds_every_field_once(self, eitff_5_2_5):
        rep = certify(eitff_5_2_5)
        data = rep.to_json_dict()
        assert len(data) == 21 and set(data) == {f.name for f in dataclasses.fields(rep)}
        assert data.pop("principal_angles") == [
            {"i": i, "j": j, "angles": list(angles)} for i, j, angles in rep.principal_angles
        ]
        for key, value in data.items():
            assert value == getattr(rep, key), key


class TestToleranceCheck:
    """Every tolerance the certifier judges by must be finite and positive."""

    BAD = [float("inf"), float("nan"), 0.0, -1.0]

    @staticmethod
    def rejects(call):
        with pytest.raises(SymfusionError, match="tolerance") as info:
            call()
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("tol", BAD)
    def test_certify(self, tol):
        e = FusionEnsemble.from_blocks(random_orthonormal_blocks(12, 3, 5, seed=1))
        self.rejects(lambda: certify(e, tol=tol))

    @pytest.mark.parametrize("tol", BAD)
    def test_is_tight_isoclinism_check_naimark_complement(self, eitff_5_2_5, tol):
        self.rejects(lambda: is_tight(eitff_5_2_5, tol))
        self.rejects(lambda: isoclinism_check(eitff_5_2_5, tol))
        self.rejects(lambda: naimark_complement(eitff_5_2_5, tol))

    @pytest.mark.parametrize("call", [
        lambda e, tol: certify(e, tol),
        lambda e, tol: is_tight(e, tol),
        lambda e, tol: isoclinism_check(e, tol),
        lambda e, tol: naimark_complement(e, tol),
        lambda e, tol: FusionEnsemble.from_blocks(e.blocks, tol=tol),
    ], ids=["certify", "is_tight", "isoclinism_check", "naimark_complement", "from_blocks"])
    @pytest.mark.parametrize("tol", [True, "1e-9", None], ids=repr)
    def test_not_a_real_number(self, eitff_5_2_5, call, tol):
        # True was read as the tolerance 1, under which four random planes of R^6 certified as EITFF
        with pytest.raises(ConstraintViolationError, match="tolerance"):
            call(eitff_5_2_5, tol)

    @pytest.mark.parametrize("tol", [*BAD, True], ids=repr)
    def test_naimark_complement_refuses_the_tolerance_before_the_dimension(self, tol):
        # d = rn: the tolerance was not looked at, and FullDimensionError was raised instead
        lines = FusionEnsemble.from_blocks([np.eye(2)[:, :1], np.eye(2)[:, 1:]])
        with pytest.raises(ConstraintViolationError, match="tolerance"):
            naimark_complement(lines, tol)

    @pytest.mark.parametrize("tol", [np.float32(1e-6), Fraction(1, 10**6), 1], ids=repr)
    def test_real_numbers_report_as_floats(self, eitff_5_2_5, tol):
        # a float32 tolerance made the verdicts numpy bools, which the JSON report refused
        report = json.loads(certify(eitff_5_2_5, tol).to_json())
        assert report["tolerance"] == float(tol) and report["classification"] == "EITFF"

    @pytest.mark.parametrize("tol", BAD)
    def test_block_validation_and_automorphism_witness(self, eitff_5_2_5, tol):
        # no residual exceeds a NaN or infinite tolerance: a column of norm 8.66 would pass
        # as an isometry, and two orthogonal lines as images of each other
        self.rejects(lambda: FusionEnsemble.from_blocks([5 * np.ones((3, 1)), np.ones((3, 1))], tol=tol))
        self.rejects(lambda: automorphism_witness(eitff_5_2_5, np.eye(5), Permutation.adjacent(5, 1), tol))
        lines = FusionEnsemble.from_blocks([np.eye(2)[:, :1], np.eye(2)[:, 1:]])
        self.rejects(lambda: automorphism_witness(lines, np.eye(2), Permutation.parse("(1 2)", n=2), tol))
        sel = LayerSelection.from_delta(Partition((3, 1, 1)), 0)
        self.rejects(lambda: single_layer_ensemble(Partition((3, 2)), Partition((2, 2)), tol=tol))
        self.rejects(lambda: decomposition_check(sel, tol=tol))


class TestFusionGram:
    def test_diagonal_blocks(self, eitff_5_2_5):
        G = fusion_gram(eitff_5_2_5)
        for j in range(5):
            np.testing.assert_allclose(
                G[2 * j : 2 * j + 2, 2 * j : 2 * j + 2], np.eye(2), atol=TOL
            )

    def test_eigenvalues_of_tight_gram(self, eitff_5_2_5):
        w = np.linalg.eigvalsh(fusion_gram(eitff_5_2_5))
        assert np.allclose(sorted(np.round(w, 9)), [0] * 5 + [2] * 5, atol=1e-9)

    def test_nonzero_eigenvalues_match_frame_operator(self):
        e = FusionEnsemble.from_blocks(random_orthonormal_blocks(6, 2, 4, 5))
        w_gram = np.linalg.eigvalsh(fusion_gram(e))
        w_op = np.linalg.eigvalsh(fusion_frame_operator(e))
        np.testing.assert_allclose(np.sort(w_gram)[-6:], np.sort(w_op), atol=1e-9)


def random_transversal(n: int, seed: int) -> list[Permutation]:
    """Seeded coset representatives t_1..t_n of S_{n-1} in S_n, t_k(n) = k."""
    rng = np.random.default_rng(seed)
    ts = []
    for k in range(1, n + 1):
        images = [x for x in map(int, rng.permutation(n) + 1) if x != k] + [k]
        ts.append(Permutation(images))
    return ts


def rotated_first_block(e: FusionEnsemble, angle: float) -> FusionEnsemble:
    """e with its first subspace turned by ``angle`` in the plane of coordinates 1, 2:
    still isometric, tight only up to a residual of order ``angle``."""
    R = np.eye(e.d)
    R[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return FusionEnsemble.from_blocks([R @ e.blocks[0], *e.blocks[1:]], field=e.field)


COMPLEMENT_CASES = {
    "real_5_2_5": lambda: single_layer_ensemble(Partition((3, 2)), Partition((2, 2))),
    "real_16_6_6": lambda: single_layer_ensemble(Partition((3, 2, 1)), Partition((3, 1, 1))),
    "real_iii_1_1_3": lambda: single_layer_ensemble(Partition((4, 2, 1, 1)), Partition((4, 1, 1, 1))),
    "complex_alternating_4_1_1_1_delta_1": lambda: alternating_ensemble(
        LayerSelection.from_delta(Partition((4, 1, 1, 1)), 1), "+"
    ),
    "multi_5_1_1_1_1_delta_1_random_transversal": lambda: multi_layer_ensemble(
        LayerSelection.from_delta(Partition((5, 1, 1, 1, 1)), 1), transversal=random_transversal(10, 2024)
    ),
    # d = 448 is seven whole blocks of reflectors
    "real_iii_1_1_4": lambda: single_layer_ensemble(Partition((5, 2, 1, 1, 1)), Partition((5, 1, 1, 1, 1))),
}


class TestNaimark:
    def test_5_2_5_self_complementary(self, eitff_5_2_5):
        comp = naimark_complement(eitff_5_2_5)
        assert (comp.d, comp.r, comp.n) == (5, 2, 5)
        assert certify(comp).classification == "EITFF"

    def test_16_6_6_complement(self, eitff_16_6_6):
        comp = naimark_complement(eitff_16_6_6)
        assert (comp.d, comp.r, comp.n) == (20, 6, 6)
        rep = certify(comp)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(welch_alpha(20, 6, 6), abs=1e-9)

    def test_complement_gram_identity(self, eitff_5_2_5):
        comp = naimark_complement(eitff_5_2_5)
        G, Gc = fusion_gram(eitff_5_2_5), fusion_gram(comp)
        rn, d = 10, 5
        np.testing.assert_allclose(
            Gc, (rn / (rn - d)) * (np.eye(rn) - (d / rn) * G), atol=1e-9
        )

    def test_double_complement_round_trip(self, eitff_16_6_6):
        double = naimark_complement(naimark_complement(eitff_16_6_6))
        np.testing.assert_allclose(
            fusion_gram(double), fusion_gram(eitff_16_6_6), atol=1e-7
        )

    def test_full_dimension_rejected(self):
        with pytest.raises(FullDimensionError):
            naimark_complement(orthogonal_tiling(6, 2))

    def test_more_than_full_dimension_names_both_sizes(self):
        e = FusionEnsemble.from_blocks(random_orthonormal_blocks(5, 2, 2, 1))
        with pytest.raises(FullDimensionError, match="d >= rn leaves nothing to complement: d = 5, rn = 4"):
            naimark_complement(e)

    def test_not_tight_rejected(self):
        b = np.zeros((5, 2))
        b[0, 0] = b[1, 1] = 1.0
        with pytest.raises(NotTightError):
            naimark_complement(FusionEnsemble.from_blocks([b, b, b]))

    def test_no_rn_gram_and_no_eigh(self, monkeypatch, eitff_16_6_6):
        def forbidden(*args, **kwargs):
            raise AssertionError("naimark_complement must not call eigh")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        comp = naimark_complement(eitff_16_6_6)
        assert (comp.d, comp.r, comp.n) == (20, 6, 6)

    def test_no_complete_qr(self, monkeypatch, eitff_16_6_6):
        qr = np.linalg.qr

        def no_complete(a, mode="reduced"):
            assert mode != "complete", "naimark_complement must not form the rn x rn Q"
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", no_complete)
        comp = naimark_complement(eitff_16_6_6)
        assert (comp.d, comp.r, comp.n) == (20, 6, 6)

    @pytest.mark.parametrize("case", list(COMPLEMENT_CASES))
    def test_complement_is_orthogonal_and_both_tight(self, case):
        e = COMPLEMENT_CASES[case]()
        comp = naimark_complement(e)
        assert (comp.field, comp.d, comp.r, comp.n) == (e.field, e.r * e.n - e.d, e.r, e.n)
        # sum_j Phi_j Psi_j* = Phi Psi*: the synthesis rows of the pair are orthogonal
        assert np.max(np.abs(e.synthesis() @ comp.synthesis().conj().T)) <= TOL
        assert is_tight(e) and is_tight(comp)
        rep = certify(comp)
        assert rep.classification == "EITFF"
        assert abs(rep.isoclinism_alpha - welch_alpha(comp.d, comp.r, comp.n)) <= TOL

    def test_input_tight_only_within_tolerance(self, eitff_16_6_6):
        e = rotated_first_block(eitff_16_6_6, 1e-6)
        e = rotated_first_block(eitff_16_6_6, 1e-6 * (TOL / 2) / tightness_residual(e))
        assert TOL / 4 < tightness_residual(e) < TOL
        comp = naimark_complement(e)
        assert (comp.d, comp.r, comp.n) == (20, 6, 6)
        assert tightness_residual(comp) < 2 * TOL


class TestAutomorphismWitness:
    def test_identity(self, eitff_5_2_5):
        assert automorphism_witness(
            eitff_5_2_5, np.eye(5), Permutation.identity(5)
        )

    def test_single_layer_generators(self, eitff_5_2_5):
        lam = Partition((3, 2))
        for k in range(1, 5):
            U = adjacent_transposition_matrix(lam, k)
            sigma = Permutation.adjacent(5, k)
            assert automorphism_witness(eitff_5_2_5, U, sigma)

    def test_wrong_permutation_fails(self, eitff_5_2_5):
        assert not automorphism_witness(
            eitff_5_2_5, np.eye(5), Permutation.adjacent(5, 1)
        )

    def test_rejects_non_unitary(self, eitff_5_2_5):
        with pytest.raises(NotUnitaryError):
            automorphism_witness(
                eitff_5_2_5, np.ones((5, 5)), Permutation.identity(5)
            )
