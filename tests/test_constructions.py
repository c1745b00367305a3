import ast
import dataclasses
import json
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from pathlib import Path

import numpy as np
import pytest

from symfusion import (
    LayerSelection,
    Partition,
    alternating_ensemble,
    alternating_parameters,
    an_table,
    certify,
    classify_single_layer,
    decomposition_check,
    dimension,
    distance_condition,
    four_part_family,
    generic_orbit_ensemble,
    isoclinic_certificate,
    multi_layer_ensemble,
    naimark_complement,
    partitions_of,
    search_isoclinic,
    single_layer_ensemble,
    single_layer_parameters,
    single_layer_shapes,
    sn_table,
    three_part_family,
    up_set,
)
import symfusion
from symfusion import altrep, symrep, tableaux
from symfusion import constructions as cons
from symfusion.constructions import (
    ExactIsoclinicCertificate,
    _corners,
    _isoclinic,
    _scaled_sums,
    alternating_shapes,
    layer_sums,
)
from symfusion.errors import (
    BadTransversalError,
    ConstraintViolationError,
    DegenerateParametersError,
    DivisibilityViolatedError,
    EmptySelectionError,
    EnsembleFormatError,
    InconsistentFamilyError,
    NotInDownSetError,
    NotIsometryError,
    NotTransposeClosedError,
    ResourceLimitError,
    StepConstraintViolatedError,
    TrivialSubspaceError,
)
from symfusion.permutations import Permutation, transversal_an, transversal_sn
from symfusion.symrep import rep_apply
from symfusion.tableaux import corner_parts, down_set, partition_corners, removable_boxes

from oracles import (
    box_axial_distance,
    boxes,
    branching_isometry,
    certificate_json,
    eigenspace_injection,
    fusion_gram,
    hook_length,
    layer_eigenbasis,
    out_of_place_layer_orbit,
    parity_certificates,
    partition_parts,
    projection,
    unscreened_isoclinic,
)

TOL = 1e-9


class TestSingleLayer:
    def test_5_2_5(self):
        e = single_layer_ensemble(Partition((3, 2)), Partition((2, 2)))
        rep = certify(e)
        assert (e.d, e.r, e.n) == (5, 2, 5)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(0.25, abs=TOL)

    def test_16_6_6(self):
        e = single_layer_ensemble(Partition((3, 2, 1)), Partition((3, 1, 1)))
        rep = certify(e)
        assert (e.d, e.r, e.n) == (16, 6, 6)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(0.25, abs=TOL)

    def test_mercedes_benz(self):
        e = single_layer_ensemble(Partition((2, 1)), Partition((1, 1)))
        assert (e.d, e.r, e.n) == (2, 1, 3)
        assert certify(e).classification == "EITFF"

    def test_trivial_subspace_guard(self):
        with pytest.raises(TrivialSubspaceError):
            single_layer_ensemble(Partition((2,)), Partition((1,)))
        with pytest.raises(TrivialSubspaceError):
            single_layer_ensemble(Partition((2, 2)), Partition((2, 1)))

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            single_layer_ensemble(Partition((3, 2, 1)), Partition((3, 1, 1)), max_dim=10)

    def test_transversal_independence(self):
        lam, mu = Partition((3, 2)), Partition((2, 2))
        e_default = single_layer_ensemble(lam, mu)
        cyc = Permutation.parse("(1 2 3 4 5)")
        ts, power = [], Permutation.identity(5)
        for _ in range(5):
            power = power * cyc
            ts.append(power)
        e_cycle = single_layer_ensemble(lam, mu, transversal=ts)
        for k in range(5):
            P1 = projection(e_default, k + 1)
            P2 = projection(e_cycle, k + 1)
            np.testing.assert_allclose(P1, P2, atol=TOL)
        r1, r2 = certify(e_default), certify(e_cycle)
        assert r1.classification == r2.classification
        assert r1.isoclinism_alpha == pytest.approx(r2.isoclinism_alpha, abs=TOL)


class TestClassification:
    def test_known_families(self):
        fam = classify_single_layer(Partition((3, 2)), Partition((2, 2)))
        assert (fam.kind, fam.a, fam.b) == ("I", 2, 2)
        fam = classify_single_layer(Partition((3, 2, 1)), Partition((3, 1, 1)))
        assert (fam.kind, fam.a, fam.b, fam.c) == ("III", 1, 1, 2)
        fam = classify_single_layer(Partition((4, 2, 2)), Partition((3, 2, 2)))
        assert fam.kind == "equichordal-only"

    def test_type_two(self):
        fam = classify_single_layer(Partition((2, 2, 1)), Partition((2, 2)))
        assert (fam.kind, fam.a, fam.b) == ("II", 2, 2)

    def test_equichordal_only_is_ectff_numerically(self):
        e = single_layer_ensemble(Partition((4, 2, 2)), Partition((3, 2, 2)))
        rep = certify(e)
        assert rep.classification == "ECTFF"

    def test_classification_agrees_with_certification_through_9(self):
        from symfusion.tableaux import down_set

        for n in range(3, 10):
            for lam in partitions_of(n):
                for mu, _ in down_set(lam):
                    if dimension(mu) >= dimension(lam):
                        continue
                    fam = classify_single_layer(lam, mu)
                    rep = certify(single_layer_ensemble(lam, mu))
                    assert rep.is_tight
                    expected = "EITFF" if fam.is_equiisoclinic else "ECTFF"
                    assert rep.classification == expected, (lam, mu)

    def test_classification_is_the_distance_condition_through_12(self):
        for total in range(2, 13):
            for lam in partitions_of(total):
                for mu, _ in down_set(lam):
                    if dimension(mu) < dimension(lam):
                        holds, _ = distance_condition(mu, [lam])
                        assert classify_single_layer(lam, mu).is_equiisoclinic == holds, (lam, mu)

    def test_named_shapes_read_back_their_family(self):
        rows = sn_table(10**7)
        assert len(rows) == 40
        cases = [(row.family, row.a, row.b, row.c) for row in rows]
        cases += [("II", a, b, None) for a in range(2, 6) for b in range(1, 6)]
        for kind, a, b, c in cases:
            fam = classify_single_layer(*single_layer_shapes(kind, a, b, c))
            assert (fam.kind, fam.a, fam.b, fam.c) == (kind, a, b, c)

    @pytest.mark.parametrize("lam, mu, error", [
        ((4, 1), (2, 2), NotInDownSetError),
        ((3, 2), (2, 1), NotInDownSetError),
        ((2, 2), (2, 1), TrivialSubspaceError),
        ((2,), (1,), TrivialSubspaceError),
    ])
    def test_invalid_pairs_fail_as_the_construction_does(self, lam, mu, error):
        lam, mu = Partition(lam), Partition(mu)
        for call in (classify_single_layer, single_layer_ensemble):
            with pytest.raises(error):
                call(lam, mu)


class TestSingleLayerParameters:
    def test_table_values(self):
        assert single_layer_parameters("I", 2, 3) == (14, 5, 7, Fraction(1, 4))
        assert single_layer_parameters("I", 2, 2) == (5, 2, 5, Fraction(1, 4))
        assert single_layer_parameters("III", 1, 1, 4) == (448, 70, 10, Fraction(1, 16))

    def test_against_hook_dimensions(self):
        # the closed forms must reproduce the exact tableau-count dimensions
        for kind, a, b, c in [("I", 2, 3, None), ("I", 3, 3, None), ("II", 2, 4, None),
                              ("III", 1, 1, 3), ("III", 1, 2, 2), ("III", 2, 2, 2)]:
            d, r, n, alpha = single_layer_parameters(kind, a, b, c)
            lam, mu = single_layer_shapes(kind, a, b, c)
            assert d == dimension(lam)
            assert r == dimension(mu)
            assert n == lam.n
            assert alpha == Fraction(r * n - d, d * (n - 1))

    def test_constraints(self):
        with pytest.raises(ConstraintViolationError):
            single_layer_parameters("I", 1, 3)
        with pytest.raises(ConstraintViolationError):
            single_layer_parameters("III", 1, 1, 1)


class TestCanonicalSubsets:
    @staticmethod
    def subsets(mu):
        return tuple(LayerSelection.from_delta(mu, delta).partitions for delta in (0, 1))

    def test_2_2(self):
        L0, L1 = self.subsets(Partition((2, 2)))
        assert L0 == (Partition((2, 2, 1)),)
        assert L1 == (Partition((3, 2)),)

    def test_sizes(self):
        for mu in partitions_of(6):
            L0, L1 = self.subsets(mu)
            assert len(L0) + len(L1) == len(set(mu.parts)) + 1

    def test_3_1_1(self):
        L0, L1 = self.subsets(Partition((3, 1, 1)))
        assert L0 == (Partition((3, 2, 1)),)
        assert L1 == (Partition((4, 1, 1)), Partition((3, 1, 1, 1)))

    def test_parities_split_the_covers_and_read_back_through_10(self):
        # 1-based position p goes to L_0 when p is even, L_1 when odd
        for total in range(1, 11):
            for mu in partitions_of(total):
                covers = tuple(lam for lam, _ in up_set(mu))
                L0, L1 = self.subsets(mu)
                assert (L0, L1) == (covers[1::2], covers[0::2]), mu
                for delta in (0, 1):
                    assert LayerSelection.from_delta(mu, delta).delta == delta, mu
                    assert LayerSelection.from_delta(mu, delta).complement().delta == 1 - delta, mu


class TestCertificates:
    def test_2_2_single_box(self):
        cert = isoclinic_certificate(Partition((2, 2)), 1)
        assert cert.holds
        assert cert.s_values == (Fraction(1, 4),)
        assert cert.beta_squared == cert.beta_squared_predicted == Fraction(1, 16)

    def test_7_7_4_3_3(self):
        cert = isoclinic_certificate(Partition((7, 7, 4, 3, 3)), 1)
        assert cert.holds
        assert cert.n == 25
        assert cert.d_mu == 11_660_320_672
        assert cert.d_layers == 10 * cert.d_mu
        assert cert.beta == Fraction(1, 10)
        assert cert.beta_squared == cert.beta_squared_predicted

    def test_5_3_2_1_1(self):
        cert = isoclinic_certificate(Partition((5, 3, 2, 1, 1)), 0)
        assert cert.holds
        assert cert.parameters() == (42900, 7700, 13)
        assert cert.alpha == Fraction(1, 9)
        assert cert.beta_squared == cert.beta_squared_predicted

    def test_sign_pattern_is_forced(self):
        # whenever the magnitudes agree, the signs follow (-1)^(q+delta)
        for total in range(1, 9):
            for mu in partitions_of(total):
                for delta in (0, 1):
                    sel = LayerSelection.from_delta(mu, delta)
                    magnitude_ok, _ = distance_condition(mu, sel.partitions)
                    cert = isoclinic_certificate(mu, delta)
                    assert cert.holds == magnitude_ok

    def test_deltas_succeed_together_through_12(self):
        for total in range(1, 13):
            for mu in partitions_of(total):
                assert (
                    isoclinic_certificate(mu, 0).holds
                    == isoclinic_certificate(mu, 1).holds
                )

    def test_parity_subsets_have_opposite_box_sums_through_20(self):
        # sum_k w_k / (x_k - y) = 0 over all covers of mu (a residue of Kerov's
        # transition measure), so s(L_1) = -s(L_0) and the parities agree
        for total in range(1, 21):
            for mu in partitions_of(total):
                c0, c1 = isoclinic_certificate(mu, 0), isoclinic_certificate(mu, 1)
                assert c1.s_values == tuple(-s for s in c0.s_values), mu
                assert (c0.holds, c0.beta, c0.beta_squared_predicted) == (
                    c1.holds, c1.beta, c1.beta_squared_predicted
                ), mu
                assert c0.d_layers + c1.d_layers == c0.n * c0.d_mu, mu

    def test_brute_force_only_canonical_subsets_succeed(self):
        # every proper nonempty subset of covers, tested against the free-sign
        # distance condition, succeeds exactly for L_0 / L_1 of isoclinic mu
        for n in range(2, 9):
            for mu in partitions_of(n - 1):
                covers = [lam for lam, _ in up_set(mu)]
                sel0 = LayerSelection.from_delta(mu, 0).partitions
                sel1 = LayerSelection.from_delta(mu, 1).partitions
                is_isoclinic = isoclinic_certificate(mu, 0).holds
                winners = []
                for size in range(1, len(covers)):
                    for combo in combinations(covers, size):
                        holds, _ = distance_condition(mu, combo)
                        if holds:
                            winners.append(frozenset(combo))
                expected = (
                    {frozenset(sel0), frozenset(sel1)} if is_isoclinic else set()
                )
                assert set(winners) == expected, mu


def _box_hook_product(lam):
    return prod(hook_length(lam, box) for box in boxes(lam))


def _reference_sums(mu, layers):
    """The hook-product layer sums: each d_lam / (n d_mu) as a quotient of
    box-by-box hook products over the axial distance, summed per removable box of mu."""
    added = dict(up_set(mu))
    sums = []
    for box in removable_boxes(mu):
        total = Fraction(0)
        for lam in layers:
            ratio = Fraction(_box_hook_product(mu), _box_hook_product(lam))
            total += ratio / box_axial_distance(added[lam], box)
        sums.append(total)
    return tuple(sums)


def _reference_certificate(mu, delta):
    """The hook-product certificate built on :func:`_reference_sums`."""
    layers = LayerSelection.from_delta(mu, delta).partitions
    sums = _reference_sums(mu, layers)
    n = mu.n + 1
    d_mu = factorial(mu.n) // _box_hook_product(mu)
    d_layers = sum(factorial(n) // _box_hook_product(lam) for lam in layers)
    predicted = Fraction(d_layers * (n * d_mu - d_layers), d_mu * d_mu * n * n * (n - 1))
    beta = None
    holds = True
    for q, s in enumerate(sums, start=1):
        signed = s if (q + delta) % 2 == 0 else -s
        if signed < 0 or (beta is not None and signed != beta):
            holds = False
            break
        beta = signed
    if not holds:
        beta = None
    beta_squared = beta * beta if beta is not None else None
    alpha = (
        Fraction(n * n * d_mu * d_mu, d_layers * d_layers) * beta_squared
        if beta_squared is not None
        else None
    )
    return {
        "mu": str(mu),
        "delta": delta,
        "layers": [str(l) for l in layers],
        "s_values": [str(s) for s in sums],
        "holds": holds,
        "beta": str(beta) if beta is not None else None,
        "beta_squared": str(beta_squared) if beta_squared is not None else None,
        "beta_squared_predicted": str(predicted),
        "d": d_layers,
        "r": d_mu,
        "n": n,
        "alpha": str(alpha) if alpha is not None else None,
    }


class TestKerovTransitionMeasure:
    def test_weights_are_hook_product_ratios_through_16(self):
        for total in range(1, 17):
            for mu in partitions_of(total):
                covers = up_set(mu)
                xs, ys = _corners(mu.parts)
                v, scaled, _sums = _scaled_sums(xs, ys, xs)
                assert len(scaled) == len(covers)
                for (lam, _box), x, vw in zip(covers, xs, scaled):
                    assert Fraction(vw, v) == Fraction(_box_hook_product(mu), _box_hook_product(lam)), (mu, lam)
                    # the kernel's divisions by x_k - y_q leave no remainder
                    assert all(vw % (x - y) == 0 for y in ys), (mu, lam)

    def test_layer_sums_match_hook_product_oracle_through_12(self):
        count = 0
        for total in range(1, 13):
            for mu in partitions_of(total):
                covers = [lam for lam, _ in up_set(mu)]
                for size in range(1, len(covers) + 1):
                    for combo in combinations(covers, size):
                        assert layer_sums(mu, combo) == _reference_sums(mu, combo), (mu, combo)
                        count += 1
        assert count == 2709

    @pytest.mark.parametrize("layers, error", [
        ([], EmptySelectionError),
        ([Partition((3, 2)), Partition((3, 2))], ConstraintViolationError),
        ([Partition((4, 2))], NotInDownSetError),
        ([Partition((2, 2))], NotInDownSetError),
    ], ids=["empty", "repeated", "not-a-cover", "mu-itself"])
    def test_layer_lists_are_validated(self, layers, error):
        mu = Partition((2, 2))
        for check in (layer_sums, distance_condition):
            with pytest.raises(error):
                check(mu, layers)

    def test_certificates_match_hook_product_oracle_through_14(self):
        for total in range(1, 15):
            for mu in partitions_of(total):
                for delta in (0, 1):
                    assert (
                        isoclinic_certificate(mu, delta).to_json_dict()
                        == _reference_certificate(mu, delta)
                    ), (mu, delta)

    def test_certificate_rejects_bad_delta(self):
        with pytest.raises(ConstraintViolationError):
            isoclinic_certificate(Partition((2, 2)), 2)

    # a bool is an int to Python, but True must not become a record reading "delta": true
    @pytest.mark.parametrize("delta", [True, False, 1.0, 0.0, 2, -1, "0", None])
    @pytest.mark.parametrize("check", [
        lambda delta: isoclinic_certificate(Partition((2, 2)), delta),
        lambda delta: LayerSelection.from_delta(Partition((2, 2)), delta),
        lambda delta: alternating_parameters(1, 2, delta),
    ], ids=["isoclinic_certificate", "from_delta", "alternating_parameters"])
    def test_delta_must_be_the_int_0_or_1(self, check, delta):
        with pytest.raises(ConstraintViolationError):
            check(delta)

    # the same for layer positions: True would read as position 1 (L_0 over (3, 1)), and a
    # float or a string must not end in a bare TypeError
    @pytest.mark.parametrize("indices", [(True,), (False, 1), (0.0,), (1.5,), ("0",), (None,), (3,), (-1,)])
    def test_layer_indices_must_be_ints_in_range(self, indices):
        with pytest.raises(ConstraintViolationError, match="ints in 0..2"):
            LayerSelection(Partition((3, 1)), indices)

    def test_layer_indices_given_as_a_list_are_stored_as_a_tuple(self):
        mu = Partition((3, 1, 1))
        listed, tupled = LayerSelection(mu, [0, 2]), LayerSelection(mu, (0, 2))
        assert listed.indices == (0, 2) and listed == tupled and hash(listed) == hash(tupled)
        assert listed.delta == tupled.delta == 1
        for meta in (multi_layer_ensemble(listed).meta, alternating_ensemble(listed, "+").meta):
            assert meta["delta"] == 1

    @pytest.mark.parametrize("max_n", [3.5, 22.0, True, 1, 0, -4, "22", None])
    def test_search_max_n_must_be_an_int_of_at_least_2(self, max_n):
        with pytest.raises(ConstraintViolationError):
            search_isoclinic(max_n)


class TestSearch:
    def test_small_hits(self):
        mus = {str(c.mu) for c in search_isoclinic(5)}
        assert "2,2" in mus
        assert "4" in mus

    def test_includes_3_1_1(self):
        mus = {str(c.mu) for c in search_isoclinic(7)}
        assert "3,1,1" in mus

    def test_matches_brute_force_through_8(self):
        found = {(str(c.mu), c.delta) for c in search_isoclinic(8)}
        for n in range(2, 9):
            for mu in partitions_of(n - 1):
                holds = isoclinic_certificate(mu, 0).holds
                assert ((str(mu), 0) in found) == holds
                assert ((str(mu), 1) in found) == holds


def _diagram_sums(mu, delta):
    """Covers, weights, the picks of L_delta, its box sums and its verdict, from the
    diagram: contents from up_set and removable_boxes, Fraction weights and sums,
    and the sign rule checked for the given parity on its own."""
    covers = up_set(mu)
    xs = [box.superdiagonal for _lam, box in covers]
    ys = [box.superdiagonal for box in removable_boxes(mu)]
    weights = [Fraction(prod(x - y for y in ys), prod(x - z for z in xs if z != x)) for x in xs]
    picks = range(1 - delta, len(covers), 2)
    sums = tuple(sum((weights[k] / (xs[k] - y) for k in picks), Fraction(0)) for y in ys)
    beta = abs(sums[0])
    holds = all(s == (beta, -beta)[(q + delta) % 2] for q, s in enumerate(sums, start=1))
    return covers, weights, picks, sums, holds


def _diagram_certificate(mu, delta):
    """The full certificate record built on :func:`_diagram_sums`."""
    covers, weights, picks, sums, holds = _diagram_sums(mu, delta)
    n = mu.n + 1
    d_mu = dimension(mu)
    d_layers = int(sum(n * d_mu * weights[k] for k in picks))
    beta = abs(sums[0]) if holds else None
    beta_squared = beta * beta if holds else None
    return ExactIsoclinicCertificate(
        mu=mu,
        delta=delta,
        layers=tuple(covers[k][0] for k in picks),
        s_values=sums,
        holds=holds,
        beta=beta,
        beta_squared=beta_squared,
        beta_squared_predicted=Fraction(d_layers * (n * d_mu - d_layers), d_mu * d_mu * n * n * (n - 1)),
        d_layers=d_layers,
        d_mu=d_mu,
        n=n,
        alpha=Fraction(n * n * d_mu * d_mu, d_layers * d_layers) * beta_squared if holds else None,
    )


def _two_certificate_search(max_n):
    """The search as a loop over every mu and both parities, each judged on its own."""
    return [
        _diagram_certificate(mu, delta)
        for n in range(2, max_n + 1)
        for mu in partitions_of(n - 1)
        for delta in (0, 1)
        if _diagram_sums(mu, delta)[-1]
    ]


def _lines(certs):
    return [json.dumps(c.to_json_dict(), sort_keys=True) for c in certs]


class TestCornerData:
    def test_corners_match_the_diagram_through_20(self):
        for total in range(1, 21):
            for mu in partitions_of(total):
                xs, ys = _corners(mu.parts)
                assert xs == tuple(box.superdiagonal for _lam, box in up_set(mu)), mu
                assert ys == tuple(box.superdiagonal for box in removable_boxes(mu)), mu
                # x_1 > y_1 > x_2 > ... > y_c > x_{c+1}
                assert len(xs) == len(ys) + 1, mu
                merged = [v for pair in zip(xs, ys) for v in pair] + [xs[-1]]
                assert all(a > b for a, b in zip(merged, merged[1:])), mu
                v, scaled, _sums = _scaled_sums(xs, ys, xs)
                assert sum(scaled) == v, mu  # the weights sum to 1

    def test_certificates_match_the_diagram_rule_through_20(self):
        for total in range(1, 21):
            for mu in partitions_of(total):
                for delta in (0, 1):
                    cert = isoclinic_certificate(mu, delta)
                    assert cert == _diagram_certificate(mu, delta), (mu, delta)
                    assert cert.holds == (_isoclinic(*_corners(mu.parts)) is not None), (mu, delta)
                # every cover in L_0 lies below y_1, so beta = -s_1(L_0) is positive
                assert isoclinic_certificate(mu, 0).s_values[0] < 0, mu

    def test_search_matches_the_two_certificate_loop_through_26(self):
        expected = _two_certificate_search(26)  # ordered by n: each max_n is a prefix
        assert len(expected) == 378
        for max_n in range(2, 27):
            found = search_isoclinic(max_n)
            prefix = [c for c in expected if c.n <= max_n]
            assert found == prefix, max_n
            assert _lines(found) == _lines(prefix), max_n

    def test_search_certifies_only_the_hits(self, monkeypatch):
        # one record build per holding mu, in search order, fed by the kernel call that found it
        real = cons._parity_certificates
        calls, built = [], []

        def spy(mu, v, vws, scaled, holds):
            calls.append(mu.parts)
            xs, ys = _corners(mu.parts)
            assert holds and (v, vws, scaled) == _isoclinic(xs, ys), mu
            built.extend(real(mu, v, vws, scaled, holds))
            return built[-2:]

        holding = [mu.parts for n in range(2, 19) for mu in partitions_of(n - 1) if _diagram_sums(mu, 0)[-1]]
        monkeypatch.setattr(cons, "_parity_certificates", spy)
        found = search_isoclinic(18)
        assert calls == holding
        assert found == built
        assert [(c.mu.parts, c.delta) for c in found] == [(parts, delta) for parts in holding for delta in (0, 1)]

    def test_walk_matches_the_part_by_part_oracle_through_30(self):
        counts = [1] + [0] * 30  # p(n), adding one part size at a time
        for size in range(1, 31):
            for total in range(size, 31):
                counts[total] += counts[total - size]
        for n in range(1, 31):
            walked = list(partition_corners(n))
            assert len(walked) == counts[n], n
            parts = [corner_parts(xs, ys) for xs, ys in walked]
            assert parts == list(partition_parts(n)), n
            assert walked == [_corners(p) for p in parts], n
            assert [mu.parts for mu in partitions_of(n)] == parts, n
        assert len(walked) == 5604  # p(30)
        # the package keeps one enumerator
        assert not hasattr(tableaux, "partition_parts")


class TestMissScreen:
    """The float screen of s_1 + s_2 in :func:`_isoclinic` rejects only true misses."""

    def test_screened_kernel_matches_the_integer_kernel_through_33(self):
        for total in range(1, 34):
            for xs, ys in partition_corners(total):
                assert _isoclinic(xs, ys) == unscreened_isoclinic(xs, ys), (xs, ys)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_dilations_of_the_hits_through_15_pass_the_screen(self, t):
        # each box of mu becomes a t x t square: every content is multiplied by t, and
        # the verdict and the weight of L_0 are unchanged
        hits = [c.mu for c in search_isoclinic(16) if c.delta == 0]
        assert len(hits) == 84
        for mu in hits:
            v, vws, _ = _isoclinic(*_corners(mu.parts))
            dilated = tuple(p * t for p in mu.parts for _ in range(t))
            hit = _isoclinic(*_corners(dilated))
            assert hit is not None, (mu, t)
            assert Fraction(sum(hit[1]), hit[0]) == Fraction(sum(vws), v), (mu, t)

    def test_screen_leaves_few_partitions_to_the_kernel_through_21(self, monkeypatch):
        real, calls = cons._scaled_sums, []
        monkeypatch.setattr(cons, "_scaled_sums", lambda *args: calls.append(args) or real(*args))
        hits = len(search_isoclinic(22)) // 2
        assert sum(1 for n in range(1, 22) for _ in partition_corners(n)) == 3505
        assert hits <= len(calls) <= 200  # 166 measured: a no-op screen would let all 3505 through


class TestSignTest:
    """The integer sign test in :func:`_isoclinic` runs before the float screen's first product."""

    def test_sign_test_rejects_half_the_multi_corner_partitions_through_21(self, monkeypatch):
        real, products = cons.prod, []
        monkeypatch.setattr(cons, "prod", lambda *args: products.append(args) or real(*args))
        multi = rejected = 0
        for total in range(1, 22):
            for xs, ys in partition_corners(total):
                if len(ys) < 2:
                    continue
                multi += 1
                products.clear()
                hit = _isoclinic(xs, ys)
                if not products:  # refused with no product formed
                    rejected += 1
                    assert hit is None and unscreened_isoclinic(xs, ys) is None, (xs, ys)
        assert (rejected, multi) == (1718, 3435)


def _certificate_fields(cert):
    """Each field's name, value and type: a Fraction where an int was, or the reverse, differs."""
    return [(f.name, getattr(cert, f.name), type(getattr(cert, f.name))) for f in dataclasses.fields(cert)]


def _oracle_records(mu):
    """Both parity records of mu from the record-builder oracle, fed by the unscreened kernel."""
    xs, ys = _corners(mu.parts)
    hit = unscreened_isoclinic(xs, ys)
    return parity_certificates(mu, *(hit or _scaled_sums(xs, ys, xs[1::2])), hit is not None)


class TestOnePassRecords:
    """The records built from one beta and encoded directly match the per-sum Fraction
    builder and the generic field-by-field JSON encoding they replaced."""

    def test_certificates_match_the_record_oracle_through_16(self):
        verdicts = set()
        for total in range(1, 17):
            for mu in partitions_of(total):
                for delta, expected in enumerate(_oracle_records(mu)):
                    cert = isoclinic_certificate(mu, delta)
                    assert _certificate_fields(cert) == _certificate_fields(expected), (mu, delta)
                    assert list(cert.to_json_dict().items()) == list(certificate_json(expected).items()), (mu, delta)
                    verdicts.add(cert.holds)
        assert verdicts == {True, False}

    def test_search_matches_the_record_oracle_through_26(self):
        expected = [
            cert
            for n in range(2, 27)
            for xs, ys in partition_corners(n - 1)
            if unscreened_isoclinic(xs, ys) is not None
            for cert in _oracle_records(Partition(corner_parts(xs, ys)))
        ]
        found = search_isoclinic(26)
        assert len(found) == len(expected) == 378
        assert [_certificate_fields(c) for c in found] == [_certificate_fields(c) for c in expected]
        assert [list(c.to_json_dict().items()) for c in found] == [list(certificate_json(c).items()) for c in expected]


class TestFamilyRanges:
    """Each shapes function refuses exactly what its parameters function refuses, with the same error."""

    @pytest.mark.parametrize("shapes, parameters, args", [
        (single_layer_shapes, single_layer_parameters, ("I", 1, 2)),
        (single_layer_shapes, single_layer_parameters, ("I", 0, 2)),
        (single_layer_shapes, single_layer_parameters, ("II", 1, 3)),
        (single_layer_shapes, single_layer_parameters, ("III", 1, 1, 1)),
        (single_layer_shapes, single_layer_parameters, ("IV", 2, 2)),
        (alternating_shapes, lambda a, c: alternating_parameters(a, c, 0), (1, 1)),
    ])
    def test_shapes_refuse_what_the_parameters_refuse(self, shapes, parameters, args):
        with pytest.raises(ConstraintViolationError) as refused:
            parameters(*args)
        with pytest.raises(ConstraintViolationError) as refused_shapes:
            shapes(*args)
        assert str(refused_shapes.value) == str(refused.value)

    @pytest.mark.parametrize("args", [("I", 2, 1), ("II", 2, 1), ("III", 1, 1, 2)])
    def test_shapes_at_the_range_edge_match_their_parameters(self, args):
        lam, mu = single_layer_shapes(*args)
        d, r, n, _alpha = single_layer_parameters(*args)
        assert (dimension(lam), dimension(mu), lam.n) == (d, r, n)


class TestNonIntParameters:
    # a float, a bool or a string where an int belongs: without the shared type(x) is int
    # check these raise a raw TypeError, report a wrong recipe step, or read True as 1
    CASES = {
        alternating_parameters: [(1, 4.0, 1), (True, 4, 1), ("1", 4, 1)],
        single_layer_parameters: [("I", 2.0, 2), ("I", 2, True), ("III", 1, 1, 2.5), ("III", 1, 1)],
        single_layer_shapes: [("I", 2, 2.5), ("II", True, 2), ("III", 1, 1, 2.0), ("III", 1, 1)],
        three_part_family: [(2, 1.5, 3, 1), (2, 1, 4, True)],
        four_part_family: [(1, 2.0, 2), (True, 1, 1)],
        alternating_shapes: [(1, 2.5), (1.0, 2)],
        sn_table: [(True,), (100.0,)],
        an_table: [(2.5,), (False,)],
    }

    @pytest.mark.parametrize("fn", CASES, ids=lambda fn: fn.__name__)
    def test_non_int_parameters_are_refused(self, fn):
        for args in self.CASES[fn]:
            with pytest.raises(ConstraintViolationError, match="must be ints"):
                fn(*args)


class TestFamilies:
    @pytest.mark.parametrize("recipe, args", [
        (three_part_family, (2, 1, 4, 1)),
        (three_part_family, (1, 2, 4, 1)),
        (three_part_family, (3, 1, 6, 1)),
        (three_part_family, (2, 2, 8, 2)),
        (four_part_family, (1, 1, 1)),
        (four_part_family, (1, 2, 1)),
    ])
    def test_recipe_certifies_once_with_the_first_holding_parity(self, monkeypatch, recipe, args):
        real = cons.isoclinic_certificate
        calls = []
        monkeypatch.setattr(cons, "isoclinic_certificate", lambda mu, delta: calls.append(delta) or real(mu, delta))
        mu, cert = recipe(*args)
        assert calls == [0]
        assert cert == _diagram_certificate(mu, next(d for d in (0, 1) if _diagram_sums(mu, d)[-1]))

    def test_non_isoclinic_recipe_output_is_inconsistent(self):
        with pytest.raises(InconsistentFamilyError):
            cons._first_holding(Partition((3, 1)))

    def test_three_part_example(self):
        mu, cert = three_part_family(2, 1, 4, 1)
        assert mu == Partition((7, 7, 4, 3, 3))
        assert cert.holds

    def test_three_part_more_instances(self):
        for (a, f, h, b) in [(1, 2, 4, 1), (3, 1, 6, 1), (2, 2, 8, 2)]:
            mu, cert = three_part_family(a, f, h, b)
            assert cert.holds
            assert len(set(mu.parts)) == 3

    def test_three_part_constraints(self):
        with pytest.raises(StepConstraintViolatedError):
            three_part_family(1, 1, 2, 1)  # af = 1
        with pytest.raises(StepConstraintViolatedError):
            three_part_family(2, 1, 4, 2)  # b = h/2

    def test_four_part_example(self):
        mu, cert = four_part_family(1, 1, 1)
        assert mu == Partition((5, 3, 2, 1, 1))
        assert cert.holds

    def test_four_part_second_instance(self):
        mu, cert = four_part_family(1, 2, 1)
        assert cert.holds
        assert mu == Partition((10, 4, 4, 3, 1, 1, 1, 1, 1, 1))

    def test_four_part_divisibility(self):
        with pytest.raises(DivisibilityViolatedError):
            four_part_family(1, 3, 2)


def test_library_code_has_no_assert():
    # assert statements vanish under python -O; library checks must raise
    for path in sorted(Path(symfusion.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert at lines {lines}"


class TestMultiLayer:
    def test_singleton_reduces_to_single_layer(self):
        # bit-identical blocks for every valid single-layer pair through |lam| = 8
        pairs = 0
        for n in range(2, 9):
            for lam in partitions_of(n):
                for mu, _box in down_set(lam):
                    if dimension(mu) >= dimension(lam):
                        continue  # a trivial subspace, rejected by single_layer_ensemble
                    e_single = single_layer_ensemble(lam, mu)
                    e_multi = multi_layer_ensemble(LayerSelection.from_partitions(mu, [lam]))
                    assert all(
                        np.array_equal(a, b) for a, b in zip(e_single.blocks, e_multi.blocks, strict=True)
                    ), (lam, mu)
                    pairs += 1
        assert pairs == 100

    def test_full_cover_gives_orthogonal_subspaces(self):
        mu = Partition((2, 1))
        sel = LayerSelection(mu, tuple(range(len(up_set(mu)))))
        e = multi_layer_ensemble(sel)
        rep = certify(e)
        assert (e.d, e.r, e.n) == (4 * 2, 2, 4)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(0.0, abs=1e-12)

    def test_L0_of_3_1_1_is_complement_of_16_6_6(self):
        mu = Partition((3, 1, 1))
        e = multi_layer_ensemble(LayerSelection.from_delta(mu, 1))
        rep = certify(e)
        assert (e.d, e.r, e.n) == (20, 6, 6)
        assert rep.classification == "EITFF"
        base = single_layer_ensemble(Partition((3, 2, 1)), mu)
        comp = naimark_complement(base)
        # same parameters and isoclinism as the Naimark complement
        assert rep.isoclinism_alpha == pytest.approx(
            certify(comp).isoclinism_alpha, abs=TOL
        )

    def test_complement_gram_identity_through_7(self):
        # scaled fusion Grams of L and its complement sum to the identity
        for n in range(3, 8):
            for mu in partitions_of(n - 1):
                covers = [lam for lam, _ in up_set(mu)]
                d_mu = dimension(mu)
                for size in range(1, len(covers)):
                    for combo in combinations(range(len(covers)), size):
                        if 0 not in combo:
                            continue  # each {L, L^c} pair once
                        sel = LayerSelection(mu, combo)
                        comp = sel.complement()
                        gl = fusion_gram(multi_layer_ensemble(sel))
                        gc = fusion_gram(multi_layer_ensemble(comp))
                        total = (
                            sel.total_dimension * gl + comp.total_dimension * gc
                        ) / (n * d_mu)
                        np.testing.assert_allclose(
                            total, np.eye(n * d_mu), atol=TOL
                        )

    def test_tightness_for_all_selections_up_to_cap(self):
        for n in range(3, 8):
            for mu in partitions_of(n - 1):
                covers = up_set(mu)
                for delta in (0, 1):
                    sel = LayerSelection.from_delta(mu, delta)
                    if sel.total_dimension > 500:
                        continue
                    rep = certify(multi_layer_ensemble(sel))
                    assert rep.is_tight
                    holds, _ = distance_condition(mu, sel.partitions)
                    assert (rep.classification == "EITFF") == holds


class TestAlternating:
    def test_8_3_6(self):
        mu = Partition((3, 1, 1))
        e = alternating_ensemble(LayerSelection.from_delta(mu, 0), "+")
        rep = certify(e)
        assert (e.field, e.d, e.r, e.n) == ("R", 8, 3, 6)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(0.25, abs=TOL)

    def test_10_3_6_other_delta(self):
        mu = Partition((3, 1, 1))
        e = alternating_ensemble(LayerSelection.from_delta(mu, 1), "+")
        rep = certify(e)
        assert (e.field, e.d, e.r, e.n) == ("R", 10, 3, 6)
        assert rep.classification == "EITFF"

    def test_epsilon_reports_agree(self):
        mu = Partition((3, 1, 1))
        sel = LayerSelection.from_delta(mu, 0)
        r_plus = certify(alternating_ensemble(sel, "+"))
        r_minus = certify(alternating_ensemble(sel, "-"))
        assert r_plus.classification == r_minus.classification
        assert r_plus.isoclinism_alpha == pytest.approx(r_minus.isoclinism_alpha, abs=TOL)
        assert r_plus.spectral_min == pytest.approx(r_minus.spectral_min, abs=TOL)
        assert r_plus.tightness_residual < TOL and r_minus.tightness_residual < TOL

    def test_complex_case_35_10_8(self):
        mu = Partition((4, 1, 1, 1))
        e = alternating_ensemble(LayerSelection.from_delta(mu, 1), "+")
        rep = certify(e)
        assert (e.field, e.d, e.r, e.n) == ("C", 35, 10, 8)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(9 / 49, abs=TOL)

    def test_naimark_pair_across_deltas(self):
        # the two delta-halves are Naimark complements: scaled Grams sum to I
        mu = Partition((3, 1, 1))
        e0 = alternating_ensemble(LayerSelection.from_delta(mu, 0), "+")
        e1 = alternating_ensemble(LayerSelection.from_delta(mu, 1), "+")
        rn = e0.r * e0.n
        total = (e0.d * fusion_gram(e0) + e1.d * fusion_gram(e1)) / (e0.d + e1.d)
        np.testing.assert_allclose(total, np.eye(rn), atol=TOL)

    def test_validation(self):
        mu = Partition((3, 1, 1))
        with pytest.raises(NotTransposeClosedError):
            alternating_ensemble(
                LayerSelection.from_partitions(mu, [Partition((4, 1, 1))]), "+"
            )
        from symfusion.errors import NotSymmetricError, OddDistinctPartsError

        with pytest.raises(NotSymmetricError):
            alternating_ensemble(
                LayerSelection.from_delta(Partition((3, 1)), 0), "+"
            )
        with pytest.raises(OddDistinctPartsError):
            alternating_ensemble(
                LayerSelection.from_delta(Partition((3, 2, 1)), 0), "+"
            )
        with pytest.raises(ConstraintViolationError, match="proper subset"):
            alternating_ensemble(LayerSelection(mu, (0, 1, 2)), "+")

    def test_decomposition_check(self):
        assert decomposition_check(LayerSelection.from_delta(Partition((3, 1, 1)), 0))
        assert decomposition_check(LayerSelection.from_delta(Partition((3, 1, 1)), 1))

    @pytest.mark.parametrize("mu, delta", [((3, 1, 1), 0), ((4, 1, 1, 1), 1)])
    def test_decomposition_check_fails_when_the_halves_mix(self, monkeypatch, mu, delta):
        # mu's basis taken as [J_- J_+] against the layers' [J_+ J_-]: every rotated block
        # is still an isometry, but its off-diagonal quadrants are the halves' blocks
        real_injection_basis = altrep._injection_basis
        flipped = {"+": "-", "-": "+"}
        monkeypatch.setattr(altrep, "_injection_basis", lambda nu, eps: real_injection_basis(nu, flipped[eps]))
        assert decomposition_check(LayerSelection.from_delta(Partition(mu), delta)) is False

    def test_decomposition_check_complex_field(self):
        assert decomposition_check(LayerSelection.from_delta(Partition((4, 1, 1, 1)), 1))

    @pytest.mark.parametrize("mu, delta", [((3, 1, 1), 0), ((3, 1, 1), 1), ((4, 1, 1, 1), 1)])
    def test_decomposition_check_builds_one_orbit(self, monkeypatch, mu, delta):
        # one apply_generator per generator step and layer: the orbit is built once
        calls = []
        real_apply_generator = symfusion.constructions.apply_generator

        def counting_apply_generator(lam, k, M, **kwargs):
            calls.append(lam)
            return real_apply_generator(lam, k, M, **kwargs)

        monkeypatch.setattr(symfusion.constructions, "apply_generator", counting_apply_generator)
        sel = LayerSelection.from_delta(Partition(mu), delta)
        assert decomposition_check(sel)
        assert len(calls) == sel.mu.n * len(sel.partitions)

    def test_complex_epsilon_pair_agrees(self):
        sel = LayerSelection.from_delta(Partition((4, 1, 1, 1)), 1)
        r_plus = certify(alternating_ensemble(sel, "+"))
        r_minus = certify(alternating_ensemble(sel, "-"))
        assert r_plus.classification == r_minus.classification == "EITFF"
        assert r_plus.isoclinism_alpha == pytest.approx(r_minus.isoclinism_alpha, abs=TOL)

    def test_decomposition_cross_grams_are_direct_sums(self):
        # cross-Grams of the big ensemble equal the direct sums of the halves'
        mu = Partition((3, 1, 1))
        sel = LayerSelection.from_delta(mu, 0)
        ts = transversal_an(6)
        big = multi_layer_ensemble(sel, transversal=ts)
        plus = alternating_ensemble(sel, "+", transversal=ts)
        minus = alternating_ensemble(sel, "-", transversal=ts)
        from symfusion import cross_gram

        B_mu = np.hstack(
            [eigenspace_injection(mu, "+"), eigenspace_injection(mu, "-")]
        )
        r_half = plus.r
        for i, j in [(1, 2), (2, 5), (3, 6)]:
            G = B_mu.conj().T @ cross_gram(big, i, j).astype(B_mu.dtype) @ B_mu
            np.testing.assert_allclose(G[:r_half, :r_half], cross_gram(plus, i, j), atol=TOL)
            np.testing.assert_allclose(G[r_half:, r_half:], cross_gram(minus, i, j), atol=TOL)
            np.testing.assert_allclose(G[:r_half, r_half:], 0, atol=TOL)
            np.testing.assert_allclose(G[r_half:, :r_half], 0, atol=TOL)

    def test_automorphism_witnesses(self):
        from oracles import automorphism_witness
        from symfusion.symrep import rep_matrix

        mu = Partition((3, 1, 1))
        sel = LayerSelection.from_delta(mu, 0)
        e = alternating_ensemble(sel, "+")
        layers = sel.partitions
        J = layer_eigenbasis(mu, layers, "+")
        for k in range(2, 6):
            g = Permutation.adjacent(6, 1) * Permutation.adjacent(6, k)
            blocks = [rep_matrix(lam, g) for lam in layers]
            total = sum(len(b) for b in blocks)
            M = np.zeros((total, total))
            off = 0
            for b in blocks:
                M[off : off + len(b), off : off + len(b)] = b
                off += len(b)
            U = J.conj().T @ M.astype(J.dtype) @ J
            assert automorphism_witness(e, U, g)


def _transversal(kind, n, even):
    """None (the default), the powers of (1 2 ... n), or a seeded random one;
    an odd element t is replaced by t (1 2) when even ones are required."""
    if kind == "default":
        return None
    if kind == "cycle":
        step = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        ts, power = [], Permutation.identity(n)
        for _ in range(n):
            power = power * step
            ts.append(power)
    else:
        rng = np.random.default_rng(n)
        ts = []
        for k in range(1, n + 1):
            images = [int(x) for x in rng.permutation(n) + 1]
            j = images.index(k)
            images[j], images[-1] = images[-1], images[j]
            ts.append(Permutation(images))
    if even:
        swap = Permutation.transposition(n, 1, 2)
        ts = [t if t.is_even else t * swap for t in ts]
    return ts


def _full_word_orbit(sel, ts):
    """pi_L(t) Psi_L for each t, each layer through the whole word of t."""
    d_layers = sel.total_dimension
    pieces = [
        (lam, np.sqrt(dimension(lam) / d_layers) * branching_isometry(lam, sel.mu))
        for lam in sel.partitions
    ]
    return [np.vstack([rep_apply(lam, t, P) for lam, P in pieces]) for t in ts]


TRANSVERSAL_KINDS = ("default", "cycle", "random")
ORBIT_CASES = [
    ("single", (3, 2), (2, 2), None),
    ("single", (3, 3, 1), (3, 3), None),
    ("single", (4, 2, 1, 1), (4, 1, 1, 1), None),
    ("single", (2, 2, 2, 1, 1), (2, 2, 2, 1), None),
    ("multi", None, (3, 1), 0),
    ("multi", None, (4, 2, 1), 1),
    ("multi", None, (5, 1, 1), (0, 2)),
    ("multi", None, (3, 2, 1, 1), 0),
    ("alternating", None, (2, 1), 0),
    ("alternating", None, (3, 1, 1), 0),
    ("alternating", None, (3, 1, 1), 1),
    ("alternating", None, (4, 1, 1, 1), 1),
]


def _orbit_case(kind, lam, mu, layers, tkind):
    """(selection, transversal or None, builder) for one case; the builder
    returns the ensemble's blocks."""
    mu = Partition(mu)
    if kind == "single":
        sel = LayerSelection.from_partitions(mu, [Partition(lam)])
    elif isinstance(layers, tuple):
        sel = LayerSelection(mu, layers)
    else:
        sel = LayerSelection.from_delta(mu, layers)
    ts = _transversal(tkind, mu.n + 1, even=kind == "alternating")
    if kind == "single":
        return sel, ts, lambda: single_layer_ensemble(Partition(lam), mu, transversal=ts).blocks
    if kind == "multi":
        return sel, ts, lambda: multi_layer_ensemble(sel, transversal=ts).blocks
    return sel, ts, lambda: alternating_ensemble(sel, "+", transversal=ts).blocks


class TestLayerOrbit:
    @pytest.mark.parametrize("tkind", TRANSVERSAL_KINDS)
    @pytest.mark.parametrize("kind, lam, mu, layers", ORBIT_CASES)
    def test_conjugation_recursion_matches_full_words(self, kind, lam, mu, layers, tkind):
        sel, ts, build = _orbit_case(kind, lam, mu, layers, tkind)
        n = sel.mu.n + 1
        if ts is None:
            ts = transversal_an(n) if kind == "alternating" else transversal_sn(n)
        reference = _full_word_orbit(sel, ts)
        if kind == "alternating":
            J_layers = layer_eigenbasis(sel.mu, sel.partitions, "+")
            J_mu = eigenspace_injection(sel.mu, "+")
            reference = [J_layers.conj().T @ thin @ J_mu for thin in reference]
        built = build()
        assert len(built) == len(reference) == n
        for mine, theirs in zip(built, reference):
            assert np.max(np.abs(mine - theirs)) <= 1e-12

    @pytest.mark.parametrize("tkind", TRANSVERSAL_KINDS)
    @pytest.mark.parametrize("kind, lam, mu, layers", ORBIT_CASES)
    def test_synthesis_is_bit_identical_to_the_out_of_place_orbit(self, kind, lam, mu, layers, tkind):
        # the working arrays compute every entry with the operands and operations
        # of the builder that made each product a new array
        sel, ts, build = _orbit_case(kind, lam, mu, layers, tkind)
        n = sel.mu.n + 1
        if ts is None:
            ts = transversal_an(n) if kind == "alternating" else transversal_sn(n)
        compress = cons._compression(sel, ("+",)) if kind == "alternating" else (lambda block: block)
        reference = dict((j, compress(block)) for j, block in out_of_place_layer_orbit(sel, ts))
        assert np.array_equal(np.hstack(build()), np.hstack([reference[j] for j in range(n)]))

    @pytest.mark.parametrize("tkind", TRANSVERSAL_KINDS)
    @pytest.mark.parametrize("kind, lam, mu, layers", [
        ("single", (5, 2, 1, 1, 1), (5, 1, 1, 1, 1), None),  # d = 448, r = 70
        ("multi", None, (4, 4, 1), 1),  # two layers, d = 588, r = 84
    ])
    def test_build_allocates_at_most_three_blocks_beyond_the_synthesis_array(self, kind, lam, mu, layers, tkind):
        # P, the two d_L x r working arrays, and temporaries of a row chunk or r x r
        import tracemalloc

        _sel, _ts, build = _orbit_case(kind, lam, mu, layers, tkind)
        blocks = build()  # warm the caches
        block, synthesis = blocks[0].nbytes, sum(b.nbytes for b in blocks)
        del blocks
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= synthesis + 3 * block

    @pytest.mark.parametrize("tkind", TRANSVERSAL_KINDS)
    @pytest.mark.parametrize("kind, lam, mu, layers", [ORBIT_CASES[i] for i in (2, 5, 6, 11)])
    def test_orbit_takes_one_generator_step_per_layer(self, monkeypatch, kind, lam, mu, layers, tkind):
        # the conjugation recursion: (n - 1) |L| apply_generator calls from the orbit
        # builder, one per layer at each of k = n - 1, ..., 1, and no word products
        calls = []
        real_apply_generator = symrep.apply_generator

        def counted_apply_generator(lam_, k, M, **kwargs):
            calls.append((lam_, k))
            return real_apply_generator(lam_, k, M, **kwargs)

        monkeypatch.setattr(symfusion.constructions, "apply_generator", counted_apply_generator)
        sel, _ts, build = _orbit_case(kind, lam, mu, layers, tkind)
        build()
        assert calls == [(lam_, k) for k in range(sel.mu.n, 0, -1) for lam_ in sel.partitions]

    @pytest.mark.parametrize("build", [
        lambda sel: single_layer_ensemble(Partition((3, 2, 1)), Partition((3, 1, 1)), max_dim=1),
        lambda sel: multi_layer_ensemble(sel, max_dim=1),
        lambda sel: alternating_ensemble(sel, "+", max_dim=1),
        lambda sel: decomposition_check(sel, max_dim=1),
    ])
    def test_cap_refuses_before_any_matrix_is_built(self, monkeypatch, build):
        def unbuilt(*args):
            raise AssertionError("a matrix was built before the cap refused")

        monkeypatch.setattr(symfusion.constructions, "_layer_orbit", unbuilt)
        monkeypatch.setattr(altrep, "_layer_basis", unbuilt)
        monkeypatch.setattr(altrep, "_injection_basis", unbuilt)
        with pytest.raises(ResourceLimitError):
            build(LayerSelection.from_delta(Partition((3, 1, 1)), 1))

    @pytest.mark.parametrize("build", [
        lambda: single_layer_ensemble(Partition((10**20, 1)), Partition((10**20,))),
        lambda: multi_layer_ensemble(LayerSelection.from_delta(Partition((10**20,)), 0)),
        lambda: multi_layer_ensemble(LayerSelection.from_delta(Partition((10**20,)), 1)),
        lambda: alternating_ensemble(LayerSelection.from_delta(Partition((30,) + (1,) * 29), 0), "+", max_dim=20),
        lambda: decomposition_check(LayerSelection.from_delta(Partition((30,) + (1,) * 29), 0), max_dim=20),
    ], ids=["single_layer", "multi_layer", "multi_layer_row", "alternating", "decomposition_check"])
    def test_cap_refuses_a_far_too_large_n_before_any_dimension(self, monkeypatch, build):
        # n! of n = 10**20 + 1 raised OverflowError, and of n = 3 * 10**6 ran for minutes;
        # the row selection (the one cover (10**20 + 1)) was not bounded by n at all
        def untaken(lam):
            raise AssertionError(f"dimension({lam!r}) was taken before the cap refused")

        monkeypatch.setattr(symfusion.constructions, "dimension", untaken)
        with pytest.raises(ResourceLimitError, match="for n = "):
            build()

    def test_the_cap_floor_holds_through_20(self):
        # why the cap's n rule refuses more than its dimension rule only for selections made of one
        # row, one column and (2, 2): every other lam has d_lam >= n - 1
        for n in range(1, 21):
            for lam in partitions_of(n):
                if 1 < len(lam) < n and lam.parts != (2, 2):
                    assert dimension(lam) >= n - 1, lam

    def test_trivial_exactly_when_one_box_is_removable_through_10(self):
        # the single-layer guard reads d_lam = d_mu off the shape, with no dimension
        for n in range(2, 11):
            for lam in partitions_of(n):
                for mu, _box in down_set(lam):
                    assert (dimension(mu) == dimension(lam)) == (len(removable_boxes(lam)) == 1), (lam, mu)

    @pytest.mark.parametrize("cap", [None, 99.5, 100.0, True, "100", -1])
    @pytest.mark.parametrize("build", [
        lambda sel, cap: single_layer_ensemble(Partition((3, 2, 1)), Partition((3, 1, 1)), max_dim=cap),
        lambda sel, cap: multi_layer_ensemble(sel, max_dim=cap),
        lambda sel, cap: alternating_ensemble(sel, "+", max_dim=cap),
        lambda sel, cap: decomposition_check(sel, max_dim=cap),
    ])
    def test_cap_must_be_an_int_of_at_least_0(self, build, cap):
        # a negative cap is a caller's mistake, not a resource refusal
        with pytest.raises(ConstraintViolationError, match="max_dim"):
            build(LayerSelection.from_delta(Partition((3, 1, 1)), 1), cap)

    @pytest.mark.parametrize("mu, delta", [((3, 1, 1), 0), ((4, 1, 1, 1), 1)])
    def test_alternating_builds_form_no_dense_eigenbasis(self, mu, delta):
        # the halves are compressed by signed gathers on the basis arrays alone; the
        # package holds no dense eigenbasis to form (tests/test_surface.py)
        sel = LayerSelection.from_delta(Partition(mu), delta)
        assert certify(alternating_ensemble(sel, "-")).classification == "EITFF"
        assert decomposition_check(sel)


    def test_orbit_is_written_into_one_synthesis_array(self):
        # the orbit's blocks go straight into the ensemble's storage: no block
        # list and no second copy of the d x rn array at the peak
        import tracemalloc

        lam, mu = Partition((5, 2, 1, 1, 1)), Partition((5, 1, 1, 1, 1))
        e = single_layer_ensemble(lam, mu)  # warm the caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            single_layer_ensemble(lam, mu)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * e.synthesis().nbytes

    @pytest.mark.parametrize("field, fault, error, message", [
        ("X", lambda k, thin: thin, EnsembleFormatError, "field must be 'R' or 'C'"),
        ("R", lambda k, thin: thin + 1e-3j * (k == 4), NotIsometryError, "complex entries"),
        ("R", lambda k, thin: thin[:, : thin.shape[1] - (k == 4)], DegenerateParametersError, "block 5 has shape"),
        ("R", lambda k, thin: thin * (np.nan if k == 4 else 1.0), NotIsometryError, "block 5 has a non-finite"),
        ("R", lambda k, thin: thin * (2.0 if k == 4 else 1.0), NotIsometryError, "block 5 fails isometry"),
    ])
    def test_orbit_path_makes_every_block_check(self, field, fault, error, message):
        # the orbit validates through the same routine as from_blocks; block 5 is spoiled
        ts = transversal_sn(6)
        calls = iter(range(5, -1, -1))  # the orbit builds the blocks of t_6, t_5, ..., t_1
        with pytest.raises(error, match=message):
            cons._orbit_ensemble(LayerSelection.from_delta(Partition((3, 1, 1)), 1), ts, {}, field, 1e-9,
                                 compress=lambda thin: fault(next(calls), thin))

class TestAlternatingParameters:
    def test_table_rows(self):
        assert alternating_parameters(1, 2, 0) == ("R", 8, 3, 6, Fraction(1, 4))
        assert alternating_parameters(1, 3, 1) == ("C", 35, 10, 8, Fraction(9, 49))
        assert alternating_parameters(1, 3, 0) == ("C", 45, 10, 8, Fraction(35, 45 * 7))
        assert alternating_parameters(2, 2, 0) == ("C", 4290, 1320, 13, Fraction(1, 4))

    def test_parameters_match_certificates(self):
        for a, c in [(1, 2), (1, 3), (2, 2)]:
            mu = alternating_shapes(a, c)
            for delta in (0, 1):
                field, d, r, n, alpha = alternating_parameters(a, c, delta)
                cert = isoclinic_certificate(mu, delta)
                assert cert.holds
                assert cert.d_layers == 2 * d
                assert cert.d_mu == 2 * r
                assert cert.n == n
                assert cert.alpha == alpha
                from symfusion import field_for

                assert field_for(mu) == field

    def test_constraints(self):
        with pytest.raises(ConstraintViolationError):
            alternating_parameters(0, 2, 0)
        with pytest.raises(ConstraintViolationError):
            alternating_parameters(1, 1, 0)


class TestGenericOrbit:
    def test_mercedes_benz_matrices(self):
        s3 = np.sqrt(3.0)
        rot = np.array([[-1.0, -s3], [s3, -1.0]]) / 2
        flip = np.diag([1.0, -1.0])
        e = generic_orbit_ensemble(
            {"r": rot, "f": flip},
            [["r"], ["r", "r"], []],
            np.array([[0.0], [1.0]]),
        )
        rep = certify(e)
        assert (e.d, e.r, e.n) == (2, 1, 3)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(0.25, abs=TOL)
        np.testing.assert_allclose(
            e.blocks[0].ravel(), [-s3 / 2, -0.5], atol=TOL
        )

    def test_5_2_5_verbatim_synthesis(self):
        # the degree-5 generator images and the [e4 e5] isometry reproduce the
        # published synthesis matrix column for column
        s2, s3, s6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)
        gens = {
            "s1": np.diag([1.0, 1.0, -1.0, 1.0, -1.0]),
            "s2": np.array(
                [[2, 0, 0, 0, 0], [0, -1, s3, 0, 0], [0, s3, 1, 0, 0],
                 [0, 0, 0, -1, s3], [0, 0, 0, s3, 1]]) / 2,
            "s3": np.array(
                [[-1, 2 * s2, 0, 0, 0], [2 * s2, 1, 0, 0, 0], [0, 0, 3, 0, 0],
                 [0, 0, 0, 3, 0], [0, 0, 0, 0, -3]]) / 3,
            "s4": np.array(
                [[2, 0, 0, 0, 0], [0, -1, 0, s3, 0], [0, 0, -1, 0, s3],
                 [0, s3, 0, 1, 0], [0, 0, s3, 0, 1]]) / 2,
        }
        cycle = ["s1", "s2", "s3", "s4"]  # (1 2 3 4 5) as a word
        words = [cycle * k for k in range(1, 5)] + [[]]
        iso = np.zeros((5, 2))
        iso[3, 0] = iso[4, 1] = 1.0
        e = generic_orbit_ensemble(gens, words, iso)
        expected = np.array([
            [4 * s6, 0, -2 * s6, -6 * s2, 4 * s6, 0, 0, 0, 0, 0],
            [-s3, 9, -4 * s3, 6, 2 * s3, 0, -3 * s3, -9, 0, 0],
            [-3, -3 * s3, -6, 0, 0, 6 * s3, -9, 3 * s3, 0, 0],
            [-3, -3 * s3, 6, 0, 6, 0, -3, -3 * s3, 12, 0],
            [-3 * s3, 3, 0, -6, 0, -6, -3 * s3, 3, 0, 12],
        ]) / 12
        np.testing.assert_allclose(e.synthesis(), expected, atol=1e-12)
        rep = certify(e)
        assert rep.classification == "EITFF"
        assert rep.isoclinism_alpha == pytest.approx(0.25, abs=TOL)

    def test_identity_generators_do_not_certify(self):
        e = generic_orbit_ensemble(
            {"e": np.eye(4)}, [[], [], []], np.eye(4)[:, :2]
        )
        assert certify(e).classification == "NONE"

    def test_rejects_bad_input(self):
        from symfusion.errors import NotIsometryError, NotUnitaryError

        with pytest.raises(NotUnitaryError):
            generic_orbit_ensemble({"g": np.ones((2, 2))}, [[]], np.eye(2))
        with pytest.raises(NotUnitaryError, match="not square"):
            generic_orbit_ensemble({"g": np.eye(3)[:, :2]}, [[]], np.eye(3))
        with pytest.raises(NotUnitaryError, match="mismatched size"):
            generic_orbit_ensemble({"g": np.eye(2), "h": np.eye(3)}, [[]], np.eye(2))
        with pytest.raises(NotIsometryError):
            generic_orbit_ensemble({"g": np.eye(2)}, [[]], np.ones((2, 2)))
        for isometry in (5, [1.0, 0.0], np.zeros((1, 1, 1))):  # not a matrix, with or without generators
            for generators in ({}, {"g": np.eye(2)}):
                with pytest.raises(NotIsometryError, match="d x r"):
                    generic_orbit_ensemble(generators, [[]], isometry)

    @pytest.mark.parametrize("words", [5, None, "g", ["g"], [[], 3], [["g", 2]]])
    def test_rejects_malformed_words(self, words):
        with pytest.raises(BadTransversalError):
            generic_orbit_ensemble({"g": np.eye(2)}, words, np.eye(2)[:, :1])

    def test_unknown_generator_is_a_package_error(self):
        with pytest.raises(BadTransversalError, match="'h'"):
            generic_orbit_ensemble({"g": np.eye(2)}, [["g"], ["h"]], np.eye(2)[:, :1])

    def test_rejects_unknown_field(self):
        with pytest.raises(EnsembleFormatError):
            generic_orbit_ensemble({"g": np.eye(2)}, [[], ["g"]], np.eye(2)[:, :1], field="X")


class TestTables:
    def test_sn_table_matches_published_rows(self):
        rows = [(r.d, r.r, r.n, r.alpha) for r in sn_table(500)]
        assert rows == [
            (5, 2, 5, Fraction(1, 4)),
            (14, 5, 7, Fraction(1, 4)),
            (16, 6, 6, Fraction(1, 4)),
            (42, 14, 9, Fraction(1, 4)),
            (90, 20, 8, Fraction(1, 9)),
            (132, 42, 11, Fraction(1, 4)),
            (168, 56, 9, Fraction(1, 4)),
            (210, 42, 10, Fraction(1, 9)),
            (429, 132, 13, Fraction(1, 4)),
            (448, 70, 10, Fraction(1, 16)),
        ]

    def test_sn_table_extends_to_published_tail(self):
        rows = [(r.d, r.r, r.n) for r in sn_table(2200)]
        for expected in [(1430, 429, 15), (2100, 252, 12), (2112, 660, 12)]:
            assert expected in rows

    def test_an_table_matches_published_rows(self):
        rows = [(r.field, r.d, r.r, r.n, r.alpha) for r in an_table(500)]
        assert rows == [
            ("R", 8, 3, 6, Fraction(1, 4)),
            ("C", 35, 10, 8, Fraction(9, 49)),
            ("R", 126, 35, 10, Fraction(16, 81)),
            ("C", 462, 126, 12, Fraction(25, 121)),
        ]

    def test_an_table_larger(self):
        rows = [(r.field, r.d, r.r, r.n) for r in an_table(7000)]
        for expected in [("R", 1716, 462, 14), ("C", 4290, 1320, 13), ("C", 6435, 1716, 16)]:
            assert expected in rows
