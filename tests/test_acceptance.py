"""Acceptance suite: every criterion checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its runtime.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from symfusion import (
    LayerSelection,
    Partition,
    Permutation,
    alternating_ensemble,
    alternating_parameters,
    certify,
    cross_gram,
    decomposition_check,
    dimension,
    distance_condition,
    down_set,
    fusion_gram,
    isoclinic_certificate,
    naimark_complement,
    partitions_of,
    rep_matrix,
    single_layer_ensemble,
    single_layer_parameters,
    single_layer_shapes,
    tightness_residual,
    transpose,
    up_set,
)
from symfusion.altrep import half_offdiagonal_count
from symfusion.constructions import alternating_shapes
from symfusion.fusion import _ct
from itertools import combinations

from oracles import (
    adjacent_transposition_matrix,
    an_pair_generators,
    automorphism_witness,
    branching_isometry,
    eigenspace_injection,
    enumerate_standard_tableaux,
    family_reference_tableau,
    layer_eigenbasis,
    reference_permutation_sign,
    transpose_tableau,
)

# Table rows reproduced at desk scale: (d, r, n, alpha, family kind, a, b, c)
SN_ROWS = [
    (5, 2, 5, Fraction(1, 4), "I", 2, 2, None),
    (14, 5, 7, Fraction(1, 4), "I", 2, 3, None),
    (16, 6, 6, Fraction(1, 4), "III", 1, 1, 2),
    (42, 14, 9, Fraction(1, 4), "I", 2, 4, None),
    (90, 20, 8, Fraction(1, 9), "III", 1, 1, 3),
    (168, 56, 9, Fraction(1, 4), "III", 1, 2, 2),
    (210, 42, 10, Fraction(1, 9), "I", 3, 3, None),
    (448, 70, 10, Fraction(1, 16), "III", 1, 1, 4),
]

# (field, d, r, n, alpha, a, c, delta)
AN_ROWS = [
    ("R", 8, 3, 6, Fraction(1, 4), 1, 2, 0),
    ("C", 35, 10, 8, Fraction(9, 49), 1, 3, 1),
    ("R", 126, 35, 10, Fraction(16, 81), 1, 4, 1),
    ("C", 462, 126, 12, Fraction(25, 121), 1, 5, 1),
]


def announce(criterion: str, elapsed: float, budget: float) -> None:
    print(f"[{criterion}] PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"{criterion} exceeded its runtime budget"


@pytest.fixture(scope="module")
def sn_ensembles():
    start = time.perf_counter()
    out = {}
    for d, r, n, alpha, kind, a, b, c in SN_ROWS:
        lam, mu = single_layer_shapes(kind, a, b, c)
        out[(d, r, n)] = (single_layer_ensemble(lam, mu), lam, alpha)
    out["build_seconds"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def an_ensembles():
    start = time.perf_counter()
    out = {}
    for field, d, r, n, alpha, a, c, delta in AN_ROWS:
        mu = alternating_shapes(a, c)
        sel = LayerSelection.from_delta(mu, delta)
        out[(d, r, n)] = (alternating_ensemble(sel, "+"), mu, sel, alpha)
    out["build_seconds"] = time.perf_counter() - start
    return out


def test_criterion_1_eitff_5_2_5():
    start = time.perf_counter()
    e = single_layer_ensemble(Partition((3, 2)), Partition((2, 2)))
    assert tightness_residual(e) <= 1e-9
    quarter_eye = 0.25 * np.eye(2)
    pair_count = 0
    for i in range(1, 6):
        for j in range(i + 1, 6):
            G = cross_gram(e, i, j)
            assert np.max(np.abs(G.T @ G - quarter_eye)) <= 1e-9
            pair_count += 1
    assert pair_count == 10
    rep = certify(e)
    assert abs(rep.spectral_min - np.sqrt(3) / 2) <= 1e-7
    announce("criterion 1: EITFF(5,2,5)", time.perf_counter() - start, 1.0)


def test_criterion_2_sn_table_rows(sn_ensembles):
    start = time.perf_counter() - sn_ensembles["build_seconds"]
    for d, r, n, alpha, kind, a, b, c in SN_ROWS:
        got = single_layer_parameters(kind, a, b, c)
        assert got == (d, r, n, alpha), f"formulas disagree on {(d, r, n)}"
        e, _lam, _ = sn_ensembles[(d, r, n)]
        assert (e.d, e.r, e.n) == (d, r, n)
        rep = certify(e)
        assert rep.classification == "EITFF", (d, r, n)
        assert abs(rep.isoclinism_alpha - float(alpha)) <= 1e-9, (d, r, n)
    announce("criterion 2: Table-2 rows d<=448", time.perf_counter() - start, 300.0)


def test_criterion_3_an_table_rows(an_ensembles):
    start = time.perf_counter() - an_ensembles["build_seconds"]
    for field, d, r, n, alpha, a, c, delta in AN_ROWS:
        got = alternating_parameters(a, c, delta)
        assert got == (field, d, r, n, alpha)
        e, _mu, _sel, _ = an_ensembles[(d, r, n)]
        assert (e.field, e.d, e.r, e.n) == (field, d, r, n)
        rep = certify(e)
        assert rep.classification == "EITFF", (field, d, r, n)
        assert abs(rep.isoclinism_alpha - float(alpha)) <= 1e-9, (field, d, r, n)
    announce("criterion 3: Table-3 rows d<=462", time.perf_counter() - start, 600.0)


def test_criterion_4_exact_certificates_beyond_desk_scale():
    start = time.perf_counter()
    cert = isoclinic_certificate(Partition((7, 7, 4, 3, 3)), 1)
    assert cert.holds
    assert cert.n == 25
    assert cert.d_mu == 11_660_320_672
    assert cert.d_layers == 10 * cert.d_mu
    assert cert.beta_squared == cert.beta_squared_predicted  # exact identity
    elapsed_first = time.perf_counter() - start
    assert elapsed_first < 1.0

    start2 = time.perf_counter()
    cert2 = isoclinic_certificate(Partition((5, 3, 2, 1, 1)), 0)
    assert cert2.holds
    assert cert2.parameters() == (42900, 7700, 13)
    assert cert2.beta_squared == cert2.beta_squared_predicted
    elapsed_second = time.perf_counter() - start2
    assert elapsed_second < 1.0
    announce(
        "criterion 4: exact certificates", elapsed_first + elapsed_second, 2.0
    )


def test_criterion_5_brute_force_oracle():
    start = time.perf_counter()
    for n in range(2, 9):
        for mu in partitions_of(n - 1):
            covers = [lam for lam, _ in up_set(mu)]
            winners = set()
            for size in range(1, len(covers)):
                for combo in combinations(covers, size):
                    holds, _ = distance_condition(mu, combo)
                    if holds:
                        winners.add(frozenset(combo))
            cert0 = isoclinic_certificate(mu, 0)
            cert1 = isoclinic_certificate(mu, 1)
            assert cert0.holds == cert1.holds
            if cert0.holds:
                expected = {frozenset(cert0.layers), frozenset(cert1.layers)}
            else:
                expected = set()
            assert winners == expected, mu
    announce("criterion 5: brute-force oracle n<=8", time.perf_counter() - start, 60.0)


def test_criterion_6_representation_property_suite():
    start = time.perf_counter()
    tol = 1e-9
    rng = np.random.default_rng(2024)

    # S_n: Coxeter, homomorphism on 100 random pairs, unitarity
    for n in range(2, 8):
        pairs = [
            (Permutation(rng.permutation(n) + 1), Permutation(rng.permutation(n) + 1))
            for _ in range(100)
        ]
        for lam in partitions_of(n):
            gens = [adjacent_transposition_matrix(lam, k) for k in range(1, n)]
            eye = np.eye(dimension(lam))
            for k in range(n - 1):
                assert np.max(np.abs(gens[k] @ gens[k] - eye)) <= tol
                assert np.max(np.abs(gens[k].T @ gens[k] - eye)) <= tol
            for k in range(n - 2):
                lhs = gens[k] @ gens[k + 1] @ gens[k]
                rhs = gens[k + 1] @ gens[k] @ gens[k + 1]
                assert np.max(np.abs(lhs - rhs)) <= tol
            for k in range(n - 1):
                for j in range(k + 2, n - 1):
                    assert np.max(np.abs(gens[k] @ gens[j] - gens[j] @ gens[k])) <= tol
            for g, h in pairs:
                diff = rep_matrix(lam, g) @ rep_matrix(lam, h) - rep_matrix(lam, g * h)
                assert np.max(np.abs(diff)) <= tol

    # branching intertwining for all (lam, mu), n <= 7
    for n in range(3, 8):
        for lam in partitions_of(n):
            for mu, _ in down_set(lam):
                Psi = branching_isometry(lam, mu)
                for k in range(1, n - 1):
                    lhs = Psi @ rep_matrix(mu, Permutation.adjacent(n - 1, k))
                    rhs = rep_matrix(lam, Permutation.adjacent(n, k)) @ Psi
                    assert np.max(np.abs(lhs - rhs)) <= tol

    # A_n suite for nu = (3,2,1)
    nu = Partition((3, 2, 1))
    from oracles import an_rep_matrix, associator_unitary

    U = associator_unitary(nu)
    assert np.max(np.abs(U @ U - np.eye(16))) <= tol
    mu = Partition((3, 1, 1))
    m = half_offdiagonal_count(mu)
    for lam, _ in up_set(mu):
        ref = family_reference_tableau(mu, lam)
        ref_t = family_reference_tableau(mu, transpose(lam))
        for T in enumerate_standard_tableaux(lam):
            s = reference_permutation_sign(T, ref)
            s_t = reference_permutation_sign(transpose_tableau(T), ref_t)
            assert (-1) ** m * s * s_t == 1

    def random_even(n):
        while True:
            g = Permutation(rng.permutation(n) + 1)
            if g.is_even:
                return g

    J = eigenspace_injection(nu, "+")
    for _ in range(50):
        g, h = random_even(6), random_even(6)
        lhs = an_rep_matrix(nu, "+", g) @ an_rep_matrix(nu, "+", h)
        assert np.max(np.abs(lhs - an_rep_matrix(nu, "+", g * h))) <= tol
        conj = J.conj().T @ rep_matrix(nu, g).astype(J.dtype) @ J
        assert np.max(np.abs(conj - an_rep_matrix(nu, "+", g))) <= tol

    announce("criterion 6: representation suite", time.perf_counter() - start, 120.0)


def test_criterion_7_decomposition_identity():
    start = time.perf_counter()
    mu = Partition((3, 1, 1))
    sel = LayerSelection.from_delta(mu, 0)
    assert decomposition_check(sel, tol=1e-9)
    # the epsilon pieces really are the two (8,3,6) halves
    for eps in ("+", "-"):
        e = alternating_ensemble(sel, eps)
        assert (e.d, e.r, e.n) == (8, 3, 6)
        assert certify(e).classification == "EITFF"
    announce("criterion 7: decomposition identity", time.perf_counter() - start, 10.0)


def test_criterion_8_naimark_round_trip(sn_ensembles):
    start = time.perf_counter()
    e, _lam, _ = sn_ensembles[(16, 6, 6)]
    comp = naimark_complement(e)
    rep = certify(comp)
    assert (comp.d, comp.r, comp.n) == (20, 6, 6)
    assert rep.classification == "EITFF"
    double = naimark_complement(comp)
    assert np.max(np.abs(fusion_gram(double) - fusion_gram(e))) <= 1e-7
    announce("criterion 8: Naimark round trip", time.perf_counter() - start, 60.0)


def test_criterion_9_automorphism_witnesses(sn_ensembles, an_ensembles):
    start = time.perf_counter()
    for (d, r, n), (e, lam, _alpha) in (
        (k, v) for k, v in sn_ensembles.items() if k != "build_seconds"
    ):
        for k in range(1, n):
            U = adjacent_transposition_matrix(lam, k)
            assert automorphism_witness(e, U, Permutation.adjacent(n, k)), (d, r, n, k)
    for (d, r, n), (e, mu, sel, _alpha) in (
        (k, v) for k, v in an_ensembles.items() if k != "build_seconds"
    ):
        layers = sel.partitions
        J = layer_eigenbasis(mu, layers, "+")
        for g in an_pair_generators(n):
            off = 0
            rotated = np.empty_like(J)
            for lam in layers:
                dlam = dimension(lam)
                from symfusion import rep_apply

                rotated[off : off + dlam] = rep_apply(lam, g, J[off : off + dlam])
                off += dlam
            U = _ct(J) @ rotated
            assert automorphism_witness(e, U, g), (d, r, n, g.cycle_string())
    announce("criterion 9: automorphism witnesses", time.perf_counter() - start, 600.0)
