"""Subspace ensembles as matrices: tightness, angles, Welch bounds, Naimark complements.

An ensemble is held as n isometries onto its subspaces.  All pairwise
geometry flows through cross-Gram matrices Phi_i* Phi_j, whose singular
values are the cosines of the principal angles.  Adjoints are conjugate
transposes throughout, so real and complex ensembles share one code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateParametersError,
    EnsembleFormatError,
    FullDimensionError,
    IndexOutOfRangeError,
    NotIsometryError,
    NotTightError,
    NotUnitaryError,
)
from .permutations import Permutation

DEFAULT_TOL = 1e-9


def _ct(A: np.ndarray) -> np.ndarray:
    return A.conj().T


def _max_abs(A: np.ndarray) -> float:
    return float(np.max(np.abs(A))) if A.size else 0.0


@dataclass(frozen=True)
class FusionEnsemble:
    """n isometry blocks of shape d x r over a common field tag 'R' or 'C'.

    The blocks are stored once, side by side, in one read-only C-ordered
    d x rn synthesis array; ``blocks`` holds read-only column views of it.
    """

    field: str
    d: int
    r: int
    n: int
    blocks: tuple[np.ndarray, ...]
    _P: np.ndarray = dc_field(repr=False, compare=False)
    meta: Mapping[str, object] = dc_field(default_factory=dict)

    @classmethod
    def from_blocks(
        cls,
        blocks: Sequence[np.ndarray],
        field: str | None = None,
        tol: float = DEFAULT_TOL,
        meta: Mapping[str, object] | None = None,
    ) -> "FusionEnsemble":
        """Validate the field tag (None, "R" or "C"), block shapes, finiteness and
        isometry (within ``tol``, max-entry norm), copying each block into its
        column slice of the synthesis array; later changes to ``blocks`` do not
        reach the ensemble."""
        if not blocks:
            raise DegenerateParametersError("an ensemble needs at least one block")
        if field not in (None, "R", "C"):
            raise EnsembleFormatError(f"field must be 'R' or 'C', got {field!r}")
        arrays = [np.asarray(b) for b in blocks]
        complex_entries = any(np.iscomplexobj(b) and np.imag(b).any() for b in arrays)
        if field is None:
            field = "C" if complex_entries else "R"
        if field == "R" and complex_entries:
            raise NotIsometryError("field 'R' but blocks have complex entries")
        if arrays[0].ndim != 2:
            raise DegenerateParametersError(f"block 1 has shape {arrays[0].shape}, expected a d x r matrix")
        d, r = arrays[0].shape
        if not 1 <= r <= d:
            raise DegenerateParametersError(f"need 1 <= r <= d, got r={r}, d={d}")
        P = np.empty((d, r * len(arrays)), dtype=np.complex128 if field == "C" else np.float64)
        for j, b in enumerate(arrays):
            if b.shape != (d, r):
                raise DegenerateParametersError(f"block {j + 1} has shape {b.shape}, expected {(d, r)}")
            view = P[:, j * r : (j + 1) * r]
            view[...] = b.real if field == "R" and np.iscomplexobj(b) else b
            if not np.isfinite(view).all():
                raise NotIsometryError(f"block {j + 1} has a non-finite entry")
            resid = _max_abs(_ct(view) @ view - np.eye(r))
            if resid > tol:
                raise NotIsometryError(f"block {j + 1} fails isometry: residual {resid:.3e} > {tol:.3e}")
        P.setflags(write=False)  # views taken from here on are read-only too
        n = len(arrays)
        views = tuple(P[:, j * r : (j + 1) * r] for j in range(n))
        return cls(field=field, d=d, r=r, n=n, blocks=views, _P=P, meta=dict(meta or {}))

    def synthesis(self) -> np.ndarray:
        """The d x rn fusion synthesis matrix [Phi_1 ... Phi_n].

        This is the ensemble's own read-only storage, not a copy: every block
        is a column view of it."""
        return self._P

    def projection(self, j: int) -> np.ndarray:
        """Orthogonal projection Phi_j Phi_j* onto the j-th subspace (1-based)."""
        b = self._block(j)
        return b @ _ct(b)

    def _block(self, j: int) -> np.ndarray:
        if not 1 <= j <= self.n:
            raise IndexOutOfRangeError(f"subspace index {j} outside 1..{self.n}")
        return self.blocks[j - 1]


def fusion_frame_operator(e: FusionEnsemble) -> np.ndarray:
    """Sum of the subspace projections; d x d, self-adjoint PSD, trace rn.

    One product P P* of the synthesis array P, a single syrk for real P."""
    P = e.synthesis()
    return P @ _ct(P)


def tightness_residual(e: FusionEnsemble) -> float:
    """Max-entry distance of the frame operator from (rn/d) I, subtracted in place;
    for a real operator the max is taken without an abs copy."""
    S = fusion_frame_operator(e)
    S.flat[:: e.d + 1] -= e.r * e.n / e.d
    return _max_abs(S) if np.iscomplexobj(S) else float(max(S.max(), -S.min()))


def is_tight(e: FusionEnsemble, tol: float = DEFAULT_TOL) -> bool:
    return tightness_residual(e) <= tol * max(1.0, e.r * e.n / e.d)


def cross_gram(e: FusionEnsemble, i: int, j: int) -> np.ndarray:
    """Phi_i* Phi_j, the r x r cross-Gram matrix (1-based indices)."""
    return _ct(e._block(i)) @ e._block(j)


def _cosines(e: FusionEnsemble, i: int, j: int) -> np.ndarray:
    """Singular values of the cross-Gram of subspaces i != j: the principal-angle
    cosines, nonincreasing, clamped to [0, 1] to absorb roundoff.  Every pairwise
    quantity derives from them, so a pair costs one cross-Gram and one SVD."""
    if i == j:
        raise IndexOutOfRangeError("angles and distances require two distinct subspaces")
    return np.clip(np.linalg.svd(cross_gram(e, i, j), compute_uv=False), 0.0, 1.0)


def _distances(r: int, s: np.ndarray) -> tuple[float, float]:
    return float(np.sqrt(max(0.0, 1.0 - float(s[0]) ** 2))), float(np.sqrt(max(0.0, r - float(np.sum(s**2)))))


def principal_angles(e: FusionEnsemble, i: int, j: int) -> np.ndarray:
    """The r principal angles between subspaces i and j, nondecreasing, in [0, pi/2]."""
    return np.arccos(_cosines(e, i, j))


def pairwise_distances(e: FusionEnsemble, i: int, j: int) -> tuple[float, float]:
    """(spectral, chordal) distance between subspaces i and j.

    spectral = min_k sin(theta_k) = sqrt(1 - s_1^2);
    chordal  = sqrt(r - sum_k s_k^2), with s the cross-Gram singular values.
    """
    return _distances(e.r, _cosines(e, i, j))


def welch_bounds(d: int, r: int, n: int) -> tuple[float, float]:
    """(spectral, chordal) Welch bounds for n r-dimensional subspaces of F^d."""
    if n < 2 or not 1 <= r <= d:
        raise DegenerateParametersError(f"need n >= 2 and 1 <= r <= d, got {(d, r, n)}")
    spectral = float(np.sqrt(n * (d - r) / (d * (n - 1))))
    return spectral, float(np.sqrt(r) * spectral)


def welch_alpha(d: int, r: int, n: int) -> float:
    """The isoclinism parameter (rn - d) / (d (n - 1)) forced at the Welch bound."""
    if n < 2:
        raise DegenerateParametersError("alpha at the Welch bound needs n >= 2")
    return (r * n - d) / (d * (n - 1))


def _pair_pass(e: FusionEnsemble, tol: float) -> dict:
    """The report's pairwise fields from one cross-Gram and one SVD per pair i < j.

    A pair with cosines s has parameter alpha = sum_k s_k^2 / r and residual
    max_k |s_k^2 - alpha|, the spectral norm of G*G - alpha I.  The ensemble is
    equi-isoclinic when every residual and the spread of the pair parameters are
    within ``tol``; it has a common chordal distance when the chordal spread is.
    """
    angles, spectrals, chordals, alphas, resids = [], [], [], [], []
    for i in range(1, e.n + 1):
        for j in range(i + 1, e.n + 1):
            s = _cosines(e, i, j)
            angles.append((i, j, tuple(float(a) for a in np.arccos(s))))
            sp, ch = _distances(e.r, s)
            spectrals.append(sp)
            chordals.append(ch)
            alphas.append(float(np.sum(s**2)) / e.r)
            resids.append(float(np.max(np.abs(s**2 - alphas[-1]))))
    if not alphas:
        return {"principal_angles": (), **dict.fromkeys(
            ("spectral_min", "chordal_min", "common_chordal", "chordal_spread",
             "isoclinism_alpha", "isoclinism_residual", "alpha_spread"), None)}
    resid, a_spread, c_spread = max(resids), max(alphas) - min(alphas), max(chordals) - min(chordals)
    return {
        "principal_angles": tuple(angles),
        "spectral_min": min(spectrals),
        "chordal_min": min(chordals),
        "common_chordal": float(np.mean(chordals)) if c_spread <= tol else None,
        "chordal_spread": c_spread,
        "isoclinism_alpha": float(np.mean(alphas)) if max(resid, a_spread) <= tol else None,
        "isoclinism_residual": resid,
        "alpha_spread": a_spread,
    }


def isoclinism_check(e: FusionEnsemble, tol: float = DEFAULT_TOL) -> float | None:
    """Common isoclinism parameter if every pair's G*G is alpha I within ``tol``
    in the spectral norm and the pair parameters agree within ``tol``."""
    return _pair_pass(e, tol)["isoclinism_alpha"]


@dataclass(frozen=True)
class CertificationReport:
    """Numerical verdict on a subspace ensemble against the Welch bounds."""

    field: str
    d: int
    r: int
    n: int
    tolerance: float
    tightness_residual: float
    is_tight: bool
    principal_angles: tuple[tuple[int, int, tuple[float, ...]], ...]
    spectral_min: float | None
    chordal_min: float | None
    common_chordal: float | None
    chordal_spread: float | None
    isoclinism_alpha: float | None
    isoclinism_residual: float | None
    alpha_spread: float | None
    welch_spectral: float | None
    welch_chordal: float | None
    welch_alpha: float | None
    lemmens_seidel_bound: float | None
    lemmens_seidel_equality: bool | None
    classification: str  # NONE | TFF | ECTFF | EITFF

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "d": self.d,
            "r": self.r,
            "n": self.n,
            "tolerance": self.tolerance,
            "tightness_residual": self.tightness_residual,
            "is_tight": self.is_tight,
            "principal_angles": [
                {"i": i, "j": j, "angles": list(angles)}
                for i, j, angles in self.principal_angles
            ],
            "spectral_min": self.spectral_min,
            "chordal_min": self.chordal_min,
            "common_chordal": self.common_chordal,
            "chordal_spread": self.chordal_spread,
            "isoclinism_alpha": self.isoclinism_alpha,
            "isoclinism_residual": self.isoclinism_residual,
            "alpha_spread": self.alpha_spread,
            "welch_spectral": self.welch_spectral,
            "welch_chordal": self.welch_chordal,
            "welch_alpha": self.welch_alpha,
            "lemmens_seidel_bound": self.lemmens_seidel_bound,
            "lemmens_seidel_equality": self.lemmens_seidel_equality,
            "classification": self.classification,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"{self.classification}_{self.field}({self.d}, {self.r}, {self.n})",
            f"  tightness residual : {self.tightness_residual:.3e}"
            f"  (tight: {self.is_tight})",
        ]
        if self.spectral_min is not None and self.welch_spectral is not None:
            lines.append(
                f"  min spectral dist  : {self.spectral_min:.12f}"
                f"  (Welch {self.welch_spectral:.12f})"
            )
        if self.chordal_min is not None and self.welch_chordal is not None:
            lines.append(
                f"  min chordal dist   : {self.chordal_min:.12f}"
                f"  (Welch {self.welch_chordal:.12f})"
            )
        if self.isoclinism_alpha is not None:
            lines.append(f"  isoclinism alpha   : {self.isoclinism_alpha:.12f}")
        return "\n".join(lines)


def certify(e: FusionEnsemble, tol: float = DEFAULT_TOL) -> CertificationReport:
    """Full report: tightness, per-pair angles, distances, Welch comparison.

    Classification is EITFF when the ensemble is tight and every cross-Gram
    is a scaled unitary with a common parameter (spectral residuals within
    ``tol``), ECTFF when tight with a common chordal distance, TFF when merely
    tight.  Equality in the Lemmens-Seidel bound is reported for information
    only; it is never used to infer the classification.
    """
    resid = tightness_residual(e)
    tight = resid <= tol * max(1.0, e.r * e.n / e.d)
    pairs = _pair_pass(e, tol)
    alpha = pairs["isoclinism_alpha"]
    w_spectral, w_chordal = welch_bounds(e.d, e.r, e.n) if e.n >= 2 else (None, None)
    w_alpha = welch_alpha(e.d, e.r, e.n) if e.n >= 2 else None

    if not tight:
        classification = "NONE"
    elif alpha is not None:
        classification = "EITFF"
    elif pairs["common_chordal"] is not None:
        classification = "ECTFF"
    else:
        classification = "TFF"

    ls_bound = None
    ls_equality = None
    if alpha is not None and e.r - e.d * alpha > 1e-15:
        ls_bound = e.d * (1.0 - alpha) / (e.r - e.d * alpha)
        ls_equality = abs(ls_bound - e.n) <= 1e-6 * max(1.0, e.n)

    return CertificationReport(
        field=e.field,
        d=e.d,
        r=e.r,
        n=e.n,
        tolerance=tol,
        tightness_residual=resid,
        is_tight=tight,
        welch_spectral=w_spectral,
        welch_chordal=w_chordal,
        welch_alpha=w_alpha,
        lemmens_seidel_bound=ls_bound,
        lemmens_seidel_equality=ls_equality,
        classification=classification,
        **pairs,
    )


def fusion_gram(e: FusionEnsemble) -> np.ndarray:
    """The rn x rn block matrix of cross-Grams, Phi* Phi."""
    Phi = e.synthesis()
    return _ct(Phi) @ Phi


def naimark_complement(e: FusionEnsemble, tol: float = DEFAULT_TOL) -> FusionEnsemble:
    """A TFF(rn - d, r, n) whose fusion Gram is rn/(rn-d) (I - (d/rn) Phi* Phi).

    Requires a tight ensemble with d < rn.  Tightness makes the columns of
    Phi* orthogonal with equal norms, so a complete QR of Phi* (rn x d) gives
    an orthonormal basis Q_perp of their complement, and the complement's
    synthesis matrix is sqrt(rn/(rn-d)) Q_perp*; no rn x rn Gram is formed.
    Each block is then re-orthonormalized (polar projection), which absorbs
    the drift of an input that is tight only within ``tol``.
    """
    rn = e.r * e.n
    if e.d >= rn:
        raise FullDimensionError("d = rn leaves nothing to complement")
    if not is_tight(e, tol):
        raise NotTightError(f"ensemble is not tight within {tol:.1e}")
    Q, _ = np.linalg.qr(_ct(e.synthesis()), mode="complete")
    Psi = np.sqrt(rn / (rn - e.d)) * _ct(Q[:, e.d :])
    blocks = []
    for j in range(e.n):
        u, _s, vh = np.linalg.svd(Psi[:, j * e.r : (j + 1) * e.r], full_matrices=False)
        blocks.append(u @ vh)
    meta = {"construction": "naimark_complement", "of": dict(e.meta)}
    return FusionEnsemble.from_blocks(blocks, field=e.field, tol=tol, meta=meta)


def automorphism_witness(
    e: FusionEnsemble,
    U: np.ndarray,
    sigma: Permutation,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True iff U Phi_j Phi_j* U* equals the projection of subspace sigma(j) for all j."""
    U = np.asarray(U)
    if U.shape != (e.d, e.d) or _max_abs(_ct(U) @ U - np.eye(e.d)) > max(tol, 1e-8):
        raise NotUnitaryError("U must be a d x d unitary")
    if sigma.degree != e.n:
        raise IndexOutOfRangeError(f"sigma must permute [{e.n}]")
    for j in range(1, e.n + 1):
        A = U @ e._block(j)
        if _max_abs(A @ _ct(A) - e.projection(sigma(j))) > tol:
            return False
    return True


def random_orthonormal_blocks(
    d: int, r: int, n: int, seed: int, complex_field: bool = False
) -> list[np.ndarray]:
    """Seeded Gaussian blocks orthonormalized by QR; handy for null tests."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n):
        A = rng.standard_normal((d, r))
        if complex_field:
            A = A + 1j * rng.standard_normal((d, r))
        Q, _ = np.linalg.qr(A)
        blocks.append(Q[:, :r])
    return blocks
