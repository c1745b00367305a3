"""Subspace ensembles as matrices: tightness, angles, Welch bounds, Naimark complements.

An ensemble is held as n isometries onto its subspaces.  All pairwise
geometry flows through cross-Gram matrices Phi_i* Phi_j, whose singular
values are the cosines of the principal angles; :func:`certify` is the one
pass that reads them.  Adjoints are conjugate transposes throughout, so real
and complex ensembles share one code path.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import threading
from dataclasses import dataclass, field as dc_field, fields
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegenerateParametersError,
    EnsembleFormatError,
    FullDimensionError,
    IndexOutOfRangeError,
    NotIsometryError,
    NotTightError,
)
from .tableaux import Partition

DEFAULT_TOL = 1e-9
_PANEL_ROWS = 1024  # the most rows of P that one tightness_residual product takes
_HELPER_BYTES = 8 << 20  # the least synthesis array, in bytes, whose pair pass takes a helper thread


def _ct(A: np.ndarray) -> np.ndarray:
    return A.conj().T


def _max_abs(A: np.ndarray) -> float:
    return float(np.max(np.abs(A))) if A.size else 0.0


def _check_tolerance(tol: float) -> float:
    """``tol`` as a Python float, once it is known to be a real number (not a bool)
    that is finite and positive (NaN fails both).  A numpy float would make every
    verdict compared with it a numpy bool, which the JSON report cannot encode."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (math.isfinite(tol) and tol > 0):
        raise ConstraintViolationError(f"tolerance must be a finite positive real number, got {tol!r}")
    return float(tol)


def _jsonable(value):
    """Partitions and fractions become strings and tuples lists; the rest is JSON already."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return str(value) if isinstance(value, (Partition, Fraction)) else value


def _fields_json(record, **rename: str) -> dict:
    """A dataclass record as a JSON object: one key per field, in field order,
    named as the field unless ``rename`` maps the field to a JSON name."""
    return {rename.get(f.name, f.name): _jsonable(getattr(record, f.name)) for f in fields(record)}


@dataclass(frozen=True, eq=False)
class FusionEnsemble:
    """n isometry blocks of shape d x r over a common field tag 'R' or 'C'.

    The blocks are stored once, side by side, in one read-only C-ordered
    d x rn synthesis array; ``blocks`` holds read-only column views of it.
    Ensembles compare and hash by identity, as arrays have no truth value.
    """

    field: str
    d: int
    r: int
    n: int
    blocks: tuple[np.ndarray, ...]
    _P: np.ndarray = dc_field(repr=False)
    meta: Mapping[str, object] = dc_field(default_factory=dict)

    @classmethod
    def from_blocks(
        cls,
        blocks: Sequence[np.ndarray],
        field: str | None = None,
        tol: float = DEFAULT_TOL,
        meta: Mapping[str, object] | None = None,
    ) -> "FusionEnsemble":
        """Copy the blocks into a new synthesis array and validate them there: the field
        tag (None infers "C" from any nonzero imaginary part), shapes, finiteness and
        isometry within ``tol`` (max-entry norm).  Later changes to ``blocks`` do not reach it."""
        arrays = [np.asarray(b) for b in blocks]
        if field is None:
            field = "C" if any(np.iscomplexobj(b) and np.imag(b).any() for b in arrays) else "R"
        return cls._stacked(len(arrays), ((j, b, None) for j, b in enumerate(arrays)), field, tol, meta)

    @classmethod
    def _stacked(cls, n: int, triples: Iterable[tuple[int, np.ndarray, np.ndarray | None]], field: str,
                 tol: float, meta: Mapping[str, object] | None) -> "FusionEnsemble":
        """The one validation routine, for n blocks C R drawn as (0-based index, C, r x r R or None
        for the identity) triples, each index once, in any order: allocate P at the first block's
        shape, write each block into its column slice and validate it there, then make P read-only."""
        _check_tolerance(tol)
        if n < 1:
            raise DegenerateParametersError("an ensemble needs at least one block")
        if field not in ("R", "C"):
            raise EnsembleFormatError(f"field must be 'R' or 'C', got {field!r}")
        P = None
        for j, b, R in triples:
            if field == "R" and np.iscomplexobj(b) and np.imag(b).any():
                raise NotIsometryError("field 'R' but blocks have complex entries")
            if P is None:
                if b.ndim != 2 or not 1 <= b.shape[1] <= b.shape[0]:
                    raise DegenerateParametersError(f"block {j + 1} has shape {b.shape}, expected d x r, 1 <= r <= d")
                d, r = b.shape
                P = np.empty((d, r * n), dtype=np.complex128 if field == "C" else np.float64)
            if b.shape != (d, r):
                raise DegenerateParametersError(f"block {j + 1} has shape {b.shape}, expected {(d, r)}")
            view = P[:, j * r : (j + 1) * r]
            if R is None:
                view[...] = b.real if field == "R" and np.iscomplexobj(b) else b
            else:
                np.matmul(b, R, out=view)
            with np.errstate(all="ignore"):  # a non-finite Gram is reported below, not warned of
                resid = _shifted_max(_ct(view) @ view, 1.0)  # not finite iff the Gram is not
            if not math.isfinite(resid) and not np.isfinite(view).all():
                raise NotIsometryError(f"block {j + 1} has a non-finite entry")
            if not resid <= tol:  # an overflowing Gram of finite entries gives NaN
                raise NotIsometryError(f"block {j + 1} fails isometry: residual {resid:.3e} > {tol:.3e}")
        P.setflags(write=False)  # views taken from here on are read-only too
        views = tuple(P[:, j * r : (j + 1) * r] for j in range(n))
        return cls(field=field, d=d, r=r, n=n, blocks=views, _P=P, meta=dict(meta or {}))

    def synthesis(self) -> np.ndarray:
        """The d x rn fusion synthesis matrix [Phi_1 ... Phi_n].

        This is the ensemble's own read-only storage, not a copy: every block
        is a column view of it."""
        return self._P

    def _block(self, j: int) -> np.ndarray:
        if not 1 <= j <= self.n:
            raise IndexOutOfRangeError(f"subspace index {j} outside 1..{self.n}")
        return self.blocks[j - 1]


def tightness_residual(e: FusionEnsemble) -> float:
    """Max-entry distance of the frame operator P P* from (rn/d) I, over ceil(d / _PANEL_ROWS)
    row panels of P of near-equal height: one product P_a P_b* per pair a <= b (P P* is
    self-adjoint).  One panel is the single product P P*, a complex P conjugated whole;
    above that only one panel product and one conjugated panel live."""
    P, m = e.synthesis(), -(-e.d // _PANEL_ROWS)
    panels = [P[e.d * k // m : e.d * (k + 1) // m] for k in range(m)]
    return max(_shifted_max(panels[a] @ _ct(panels[b]), e.r * e.n / e.d if a == b else None)
               for b in range(m) for a in range(b + 1))


def _shifted_max(S: np.ndarray, shift: float | None) -> float:
    """max |S - shift I|, subtracted in place (S alone for None); a real max takes no abs copy."""
    if shift is not None:
        S.flat[:: len(S) + 1] -= shift
    return _max_abs(S) if np.iscomplexobj(S) else float(max(S.max(), -S.min()))


def is_tight(e: FusionEnsemble, tol: float = DEFAULT_TOL) -> bool:
    tol = _check_tolerance(tol)
    return tightness_residual(e) <= tol * max(1.0, e.r * e.n / e.d)


def cross_gram(e: FusionEnsemble, i: int, j: int) -> np.ndarray:
    """Phi_i* Phi_j, the r x r cross-Gram matrix (1-based indices)."""
    return _ct(e._block(i)) @ e._block(j)


def _cosines(e: FusionEnsemble, i: int, j: int) -> np.ndarray:
    """Singular values of the cross-Gram of subspaces i < j: the principal-angle
    cosines, nonincreasing, clamped to [0, 1] to absorb roundoff.  Every pairwise
    quantity derives from them, so a pair costs one cross-Gram and one SVD."""
    return np.clip(np.linalg.svd(cross_gram(e, i, j), compute_uv=False), 0.0, 1.0)


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


def _helper_wanted(e: FusionEnsemble) -> bool:
    """BLAS runs one thread (as OpenBLAS reads it at load), two CPUs are usable, P has _HELPER_BYTES."""
    blas = next(filter(None, map(os.environ.get, ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))), None)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return e.synthesis().nbytes >= _HELPER_BYTES and blas == "1" and cpus >= 2


def _pair_pass(e: FusionEnsemble, tol: float) -> tuple[float, dict]:
    """The tightness residual and the report's pairwise fields, from one cross-Gram and one SVD per pair i < j.

    A pair with cosines s has parameter alpha = sum_k s_k^2 / r and residual
    max_k |s_k^2 - alpha|, the spectral norm of G*G - alpha I.  The ensemble is
    equi-isoclinic when every residual and the spread of the pair parameters are
    within ``tol``; it has a common chordal distance when the chordal spread is.

    When :func:`_helper_wanted`, a daemon helper takes the tightness residual (GEMMs release the GIL), then claims
    pairs from the caller's iterator; cosines are reduced in pair order, so none depends on the
    thread.  A failure in either thread stops both and is raised here, after the join.
    """
    pairs = [(i, j) for i in range(1, e.n + 1) for j in range(i + 1, e.n + 1)]
    cosines, claims, out, failed = [None] * len(pairs), iter(enumerate(pairs)), [], []

    def work(lead: bool) -> None:
        try:
            if lead:
                out.append(tightness_residual(e))
            for k, (i, j) in claims:  # each next() is atomic under the GIL
                if failed:
                    return
                cosines[k] = _cosines(e, i, j)
        except BaseException as exc:
            failed.append(exc)

    helper = threading.Thread(target=work, args=(True,), daemon=True) if _helper_wanted(e) else None
    if helper is not None:
        helper.start()
    work(helper is None)  # catches all, so the join below always runs
    if helper is not None:
        helper.join()
    if failed:
        raise failed[0]
    angles, spectrals, chordals, alphas, resids = [], [], [], [], []
    for (i, j), s in zip(pairs, cosines):
        squares = s**2
        total = float(np.sum(squares))
        angles.append((i, j, tuple(float(a) for a in np.arccos(s))))
        spectrals.append(float(np.sqrt(max(0.0, 1.0 - float(s[0]) ** 2))))  # sin of the least angle
        chordals.append(float(np.sqrt(max(0.0, e.r - total))))
        alphas.append(total / e.r)
        resids.append(float(np.max(np.abs(squares - alphas[-1]))))
    if not alphas:
        return out[0], {"principal_angles": (), **dict.fromkeys(
            ("spectral_min", "chordal_min", "common_chordal", "chordal_spread",
             "isoclinism_alpha", "isoclinism_residual", "alpha_spread"), None)}
    resid, a_spread, c_spread = max(resids), max(alphas) - min(alphas), max(chordals) - min(chordals)
    return out[0], {
        "principal_angles": tuple(angles),
        "spectral_min": min(spectrals),
        "chordal_min": min(chordals),
        "common_chordal": float(np.mean(chordals)) if c_spread <= tol else None,
        "chordal_spread": c_spread,
        "isoclinism_alpha": float(np.mean(alphas)) if max(resid, a_spread) <= tol else None,
        "isoclinism_residual": resid,
        "alpha_spread": a_spread,
    }


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
        angles = [{"i": i, "j": j, "angles": list(a)} for i, j, a in self.principal_angles]
        return {**_fields_json(self), "principal_angles": angles}

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
    only; it is never used to infer the classification.  ``tol`` must be
    finite and positive.

    With BLAS at one thread (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, is 1), two usable CPUs
    and P of at least 8 MiB, a helper thread takes the tightness residual and shares the pairs;
    the report's bytes do not change.
    """
    tol = _check_tolerance(tol)
    resid, pairs = _pair_pass(e, tol)
    tight = resid <= tol * max(1.0, e.r * e.n / e.d)
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


def naimark_complement(e: FusionEnsemble, tol: float = DEFAULT_TOL) -> FusionEnsemble:
    """A TFF(rn - d, r, n) whose fusion Gram is rn/(rn-d) (I - (d/rn) Phi* Phi).

    Requires a tight ensemble with d < rn.  Tightness makes the columns of Phi*
    (rn x d) orthogonal with equal norms, so the Householder reflectors of its QR,
    applied to [0; I_{rn-d}], give an orthonormal basis X of their complement, and
    sqrt(rn/(rn-d)) X* is the complement's synthesis matrix; no rn x rn Q or Gram is
    formed.  Each block is then re-orthonormalized (polar projection, blind to the
    scale), which absorbs the drift of an input that is tight only within ``tol``.
    """
    rn, tol = e.r * e.n, _check_tolerance(tol)
    if e.d >= rn:
        raise FullDimensionError(f"d >= rn leaves nothing to complement: d = {e.d}, rn = {rn}")
    if not is_tight(e, tol):
        raise NotTightError(f"ensemble is not tight within {tol:.1e}")
    h, tau = np.linalg.qr(_ct(e.synthesis()), mode="raw")  # h[i, i + 1:] is reflector i's tail
    X = np.eye(rn, rn - e.d, -e.d, dtype=h.dtype)  # [0; I_{rn-d}]
    for b in reversed(range(0, e.d, 64)):  # reflectors b .. b + 63 as I - V T V*, V = Vt.T
        Vt = np.triu(h[b : b + 64, b:], 1)
        np.fill_diagonal(Vt, 1)
        G, T = Vt.conj() @ Vt.T, np.diag(tau[b : b + 64])
        for c in range(1, len(T)):  # LAPACK's dlarft recurrence, which never divides by tau
            T[:c, c] = -T[c, c] * (T[:c, :c] @ G[:c, c])
        X[b:] -= Vt.T @ (T @ (Vt.conj() @ X[b:]))
    del h, tau  # before the complement's P is allocated
    svds = (np.linalg.svd(_ct(X[j * e.r : (j + 1) * e.r]), full_matrices=False) for j in range(e.n))
    polar = ((j, u, vh) for j, (u, _s, vh) in enumerate(svds))
    meta = {"construction": "naimark_complement", "of": dict(e.meta)}
    return FusionEnsemble._stacked(e.n, polar, e.field, tol, meta)


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
