"""The tests' reference implementations, which the package is checked against.

First, standard tableaux as objects, the reference for the word arrays, and the
recursive word builder that the package's bottom-up one replaced.
The package reads Tab(lam) only as the arrays :func:`symfusion.tableaux.tableau_words`
and :func:`symfusion.tableaux.tableau_contents`.  This module keeps the
textbook picture beside them, a validated grid of entries with its box map,
so the tests can state each array, index and sign by its definition on
tableaux and compare.  It also keeps the part-by-part partition generator
that the package's corner walk :func:`symfusion.tableaux.partition_corners`
replaced, and the out-of-place orbit builder that the package's working-array
builder :func:`symfusion.constructions._layer_orbit` replaced, the
isoclinic test without the sign test and the float screen that now guard
:func:`symfusion.constructions._isoclinic`, and the record builder and the
generic field-by-field JSON encoding that the one-pass certificate records replaced.
It keeps the ensemble file as nested lists for ``json.dumps`` and the synthesis
CSV through ``csv.writer``: the bytes that the package's float text must reproduce.
It keeps the analysis views that :func:`symfusion.fusion.certify`'s one pair pass
replaced: the dense frame operator and fusion Gram, per-pair principal angles and
distances, and a serial isoclinism test; and the axial distance of two boxes.
Last, it keeps the dense encoding of the representation objects that the package
applies only sparsely: the associators, eigenspace injections, layer eigenbases,
rho_eps(g) and branching isometries of :mod:`symfusion.altrep` as matrices built
from its basis triples, :func:`symfusion.altrep.gather` and
:func:`symfusion.symrep.rep_apply`; the dense pi(s_k) and branching isometry of
:mod:`symfusion.symrep`; the generators s_1 s_k of A_n; and the automorphism
witness with the subspace projections it compares.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from symfusion import altrep
from symfusion.altrep import (
    _check_family_mu,
    _eps_sign,
    _injection_basis,
    _layer_basis,
    _stars,
    gather,
    half_offdiagonal_count,
)
from symfusion.constructions import ExactIsoclinicCertificate, _parity, _scaled_sums
from symfusion.errors import (
    IndexOutOfRangeError,
    NotSymmetricError,
    NotUnitaryError,
    SizeMismatchError,
    TooSmallError,
)
from symfusion.fusion import DEFAULT_TOL, FusionEnsemble, _check_tolerance, _ct, _fields_json, _max_abs, cross_gram
from symfusion.permutations import Permutation, permutation_word
from symfusion.symrep import _generator_action, apply_generator, rep_apply
from symfusion.tableaux import (
    Box,
    Partition,
    added_row,
    dimension,
    down_offset,
    down_set,
    is_symmetric,
    tableau_words,
    transpose,
    up_set,
)


class NotStandardError(ValueError):
    """Tableau filling is not standard."""


class BoxOutsideDiagramError(ValueError):
    """Referenced box does not lie in the Young diagram."""


class OddPermutationError(ValueError):
    """Permutation is odd where an even one is required."""


class SymmetricLambdaError(ValueError):
    """Shape is symmetric where a non-symmetric one is required."""


class StandardTableau:
    """A bijective filling of a Young diagram, increasing along rows and columns."""

    __slots__ = ("rows", "shape", "_box_of")

    def __init__(self, rows: Iterable[Iterable[int]]):
        grid = tuple(tuple(int(v) for v in row) for row in rows)
        shape = Partition(len(row) for row in grid)
        n = shape.n
        positions: list[Box | None] = [None] * n
        for i, row in enumerate(grid, start=1):
            for j, v in enumerate(row, start=1):
                if not 1 <= v <= n:
                    raise NotStandardError(f"entry {v} outside 1..{n}")
                if positions[v - 1] is not None:
                    raise NotStandardError(f"entry {v} repeated")
                positions[v - 1] = Box(i, j)
        for i, row in enumerate(grid):
            for j, v in enumerate(row):
                if j + 1 < len(row) and v >= row[j + 1]:
                    raise NotStandardError("rows must increase left to right")
                if i + 1 < len(grid) and j < len(grid[i + 1]) and v >= grid[i + 1][j]:
                    raise NotStandardError("columns must increase top to bottom")
        self.rows = grid
        self.shape = shape
        self._box_of = tuple(positions)

    @property
    def n(self) -> int:
        return self.shape.n

    def box_of(self, entry: int) -> Box:
        return self._box_of[entry - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "\n".join("|" + "|".join(map(str, row)) + "|" for row in self.rows)

    def to_lists(self) -> list[list[int]]:
        """Row-major nested lists, the JSON serialization of a tableau."""
        return [list(row) for row in self.rows]


def boxes(lam: Partition) -> Iterator[Box]:
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            yield Box(i, j)


def hook_length(lam: Partition, box: Box | tuple[int, int]) -> int:
    """Boxes at-or-right of ``box`` in its row plus strictly below in its column."""
    row, col = box
    if not (1 <= row <= len(lam) and 1 <= col <= lam[row - 1]):
        raise BoxOutsideDiagramError(f"box {tuple(box)} outside diagram of {lam!r}")
    arm = lam[row - 1] - col
    leg = sum(1 for p in lam.parts[row:] if p >= col)
    return arm + leg + 1


def content(T: StandardTableau) -> tuple[int, ...]:
    """Superdiagonal positions of the entries 1..n, in entry order."""
    return tuple(b.superdiagonal for b in T._box_of)


def axial_distance(T: StandardTableau, i: int, j: int) -> int:
    """Content difference between entries ``i`` and ``j`` of ``T``."""
    c = content(T)
    return c[i - 1] - c[j - 1]


def box_axial_distance(a: Box | tuple[int, int], b: Box | tuple[int, int]) -> int:
    """Axial distance from box ``a`` to box ``b``: difference of superdiagonals."""
    return (a[1] - a[0]) - (b[1] - b[0])


def apply_adjacent_transposition(T: StandardTableau, k: int) -> StandardTableau | None:
    """Swap entries k and k+1 of ``T`` if the result is standard, else None.

    The result is standard exactly when |axial_distance(T, k+1, k)| >= 2,
    i.e. when the two entries are neither row- nor column-adjacent.
    """
    if abs(axial_distance(T, k + 1, k)) < 2:
        return None
    a = T.box_of(k)
    b = T.box_of(k + 1)
    grid = [list(row) for row in T.rows]
    grid[a.row - 1][a.col - 1] = k + 1
    grid[b.row - 1][b.col - 1] = k
    return StandardTableau(grid)


def _from_word(word: list[int]) -> StandardTableau:
    """The tableau whose entry e sits in the 0-based row ``word[e - 1]``."""
    grid: list[list[int]] = [[] for _ in range(max(word) + 1)]
    for entry, row in enumerate(word, start=1):
        grid[row].append(entry)
    return StandardTableau(grid)


def embed(R: StandardTableau, lam: Partition) -> StandardTableau:
    """Add the box lam - shape(R) to ``R`` and fill it with n = |lam|."""
    return _from_word([box.row - 1 for box in R._box_of] + [added_row(R.shape, lam)])


def transpose_tableau(T: StandardTableau) -> StandardTableau:
    cols = transpose(T.shape)
    grid = [[T.rows[i][j] for i in range(cols[j])] for j in range(len(cols))]
    return StandardTableau(grid)


def row_superstandard(lam: Partition) -> StandardTableau:
    """The tableau whose rows list 1, 2, 3, ... left to right, top to bottom."""
    return _from_word([row for row, part in enumerate(lam) for _ in range(part)])


def canonical_key(T: StandardTableau) -> tuple[int, ...]:
    """Sort key for the canonical basis order: (row of n, row of n-1, ..., row of 1)."""
    return tuple(T._box_of[e].row for e in range(T.n - 1, -1, -1))


@lru_cache(maxsize=None)
def recursive_tableau_words(lam: Partition) -> np.ndarray:
    """:func:`symfusion.tableaux.tableau_words` as first written, one call per box: each
    shape's words are its down set's, each with the row of n appended, stacked in order."""
    if lam.n == 1:
        words = np.zeros((1, 1), dtype=np.int16)
    else:
        blocks = [(recursive_tableau_words(mu), box.row - 1) for mu, box in down_set(lam)]
        words = np.vstack([
            np.column_stack([sub, np.full(len(sub), row, dtype=np.int16)]) for sub, row in blocks
        ])
    words.setflags(write=False)
    return words


@lru_cache(maxsize=None)
def enumerate_standard_tableaux(lam: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of shape ``lam``, in the order of :func:`tableau_words`."""
    return tuple(map(_from_word, tableau_words(lam).tolist()))


@lru_cache(maxsize=None)
def tableau_index(lam: Partition) -> dict[StandardTableau, int]:
    """Position of every standard tableau of shape ``lam`` in the canonical order."""
    return {T: i for i, T in enumerate(enumerate_standard_tableaux(lam))}


def reference_tableau(kappa: Partition) -> StandardTableau:
    """The distinguished tableau of a symmetric shape, from the package's reference word."""
    return _from_word(altrep._reference_word(kappa, None).tolist())


def family_reference_tableau(mu: Partition, lam: Partition) -> StandardTableau:
    """Reference tableau of lam in the family over symmetric mu, from the package's word."""
    return _from_word(altrep._reference_word(lam, mu).tolist())


def reference_permutation_sign(T: StandardTableau, reference: StandardTableau) -> int:
    """Sign of the unique g with g * reference = T (entrywise relabeling)."""
    images = [0] * T.n
    for ref_row, t_row in zip(reference.rows, T.rows):
        for src, dst in zip(ref_row, t_row):
            images[src - 1] = dst
    return Permutation(images).sign


def partition_parts(n: int) -> Iterator[tuple[int, ...]]:
    """The parts of every partition of n once, in descending lexicographic order,
    one part at a time: the largest part first, then the partitions of the rest."""

    def gen(remaining: int, max_part: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for p in range(min(max_part, remaining), 0, -1):
            yield from gen(remaining - p, p, prefix + (p,))

    yield from gen(n, n, ())


def unscreened_isoclinic(xs, ys):
    """:func:`symfusion.constructions._isoclinic` decided on the integers alone: the
    kernel's V, V w_k and V s_q over L_0 if the s_q alternate in sign with one
    magnitude, else None, with every mu running the kernel."""
    v, vws, sums = _scaled_sums(xs, ys, xs[1::2])
    scaled = [next(sums)]
    for s in sums:
        if s != -scaled[-1]:
            return None
        scaled.append(s)
    return v, vws, scaled


def parity_certificates(mu: Partition, v, vws, scaled, holds: bool) -> tuple[ExactIsoclinicCertificate, ...]:
    """The records of L_0 and L_1 from the kernel's V, V w_k and V s_q over L_0, each
    sum its own Fraction and alpha = (n d_mu / d_L)^2 beta^2 as a product of Fractions."""
    n, d_mu = mu.n + 1, dimension(mu)
    whole = n * d_mu
    d_even = whole * sum(vws) // v  # d_lam = n d_mu w_lam exactly
    sums = tuple(Fraction(s, v) for s in scaled)
    predicted = Fraction(d_even * (whole - d_even), d_mu * d_mu * n * n * (n - 1))
    # when it holds, every (-1)^(q + delta) s_q is one beta >= 0, which is then |s_1|
    beta = abs(sums[0]) if holds else None
    beta_squared = beta * beta if holds else None
    covers = [lam for lam, _box in up_set(mu)]
    return tuple(
        ExactIsoclinicCertificate(
            mu=mu, delta=delta, layers=tuple(covers[_parity(delta)]), s_values=s_values, holds=holds,
            beta=beta, beta_squared=beta_squared, beta_squared_predicted=predicted,
            d_layers=d_layers, d_mu=d_mu, n=n,
            alpha=Fraction(whole * whole, d_layers * d_layers) * beta_squared if holds else None,
        )
        for delta, s_values, d_layers in ((0, sums, d_even), (1, tuple(-s for s in sums), whole - d_even))
    )


def certificate_json(cert: ExactIsoclinicCertificate) -> dict:
    """The record as a JSON object by the generic dataclass encoding, d_layers named d and d_mu named r."""
    return _fields_json(cert, d_layers="d", d_mu="r")


def tab_star(nu: Partition) -> tuple[StandardTableau, ...]:
    """Tab_*(nu) as objects, at the package's canonical indices of it."""
    tableaux = enumerate_standard_tableaux(nu)
    return tuple(tableaux[i] for i in _stars(nu))


def _left_step(lam: Partition, k: int, M: np.ndarray) -> np.ndarray:
    diag, off, partner = _generator_action(lam, k)
    return diag[:, None] * M + off[:, None] * M[partner]


def _right_step(lam: Partition, k: int, M: np.ndarray) -> np.ndarray:
    diag, off, partner = _generator_action(lam, k)
    return M * diag + np.take(M, partner, axis=1) * off


def _word_apply(lam: Partition, g: Permutation, M: np.ndarray) -> np.ndarray:
    for k in reversed(permutation_word(g)):
        M = _left_step(lam, k, M)
    return M


def out_of_place_layer_orbit(sel, ts) -> Iterator[tuple[int, np.ndarray]]:
    """The orbit pi_L(t_k) Psi_L of :func:`symfusion.constructions._layer_orbit`,
    (k - 1, block) for k = n, ..., 1, with every generator step, the stacking
    of the layers and the product by pi_mu(h) made as a new array: the
    arithmetic the working-array builder must reproduce bit for bit."""
    mu = sel.mu
    n = mu.n + 1
    layers = sel.partitions
    d_layers = sel.total_dimension
    C = [np.sqrt(dimension(lam) / d_layers) * branching_isometry(lam, mu) for lam in layers]
    for k in range(n, 0, -1):
        if k < n:
            C = [_word_apply(lam, Permutation.adjacent(n, k), M) for lam, M in zip(layers, C)]
        if k < n - 1:
            C = [_right_step(mu, k, M) for M in C]
        block = np.vstack(C)
        h = Permutation.transposition(n, k, n) * ts[k - 1]
        if not h.is_identity:
            block = block @ _word_apply(mu, Permutation(h.images[:-1]), np.eye(dimension(mu)))
        yield k - 1, block


def _encode_matrix(M: np.ndarray, field: str) -> list:
    return np.stack([M.real, M.imag], -1).tolist() if field == "C" else M.tolist()


def to_json_dict(e: FusionEnsemble) -> dict:
    """The ensemble file's object: ``json.dumps`` of it is the file's text."""
    return {
        "field": e.field,
        "d": e.d,
        "r": e.r,
        "n": e.n,
        "isometries": [_encode_matrix(b, e.field) for b in e.blocks],
        "metadata": dict(e.meta),
    }


def synthesis_csv(P: np.ndarray) -> bytes:
    """The synthesis CSV as ``csv.writer`` writes the ``repr`` of each entry."""
    fh = io.StringIO(newline="")
    csv.writer(fh).writerows([repr(float(v)) for v in row] for row in P)
    return fh.getvalue().encode()


def fusion_frame_operator(e: FusionEnsemble) -> np.ndarray:
    """Sum of the subspace projections; d x d, self-adjoint PSD, trace rn.

    One product P P* of the synthesis array P: a syrk for real P, and a complex P is
    conjugated whole first.  :func:`symfusion.fusion.tightness_residual` forms it only up to one panel."""
    P = e.synthesis()
    return P @ _ct(P)


def fusion_gram(e: FusionEnsemble) -> np.ndarray:
    """The rn x rn block matrix of cross-Grams, Phi* Phi."""
    Phi = e.synthesis()
    return _ct(Phi) @ Phi


def _cosines(e: FusionEnsemble, i: int, j: int) -> np.ndarray:
    """Singular values of the cross-Gram of subspaces i != j: the principal-angle
    cosines, nonincreasing, clamped to [0, 1] to absorb roundoff."""
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


def isoclinism_check(e: FusionEnsemble, tol: float = DEFAULT_TOL) -> float | None:
    """Common isoclinism parameter if every pair's G*G is alpha I within ``tol``
    in the spectral norm and the pair parameters agree within ``tol``: one pair
    at a time on one thread, with no tightness residual beside it."""
    tol = _check_tolerance(tol)
    cosines = [_cosines(e, i, j) for i in range(1, e.n + 1) for j in range(i + 1, e.n + 1)]
    alphas = [float(np.sum(s**2)) / e.r for s in cosines]
    if not alphas:
        return None
    resid = max(float(np.max(np.abs(s**2 - alpha))) for s, alpha in zip(cosines, alphas))
    return float(np.mean(alphas)) if max(resid, max(alphas) - min(alphas)) <= tol else None


def adjacent_transposition_matrix(lam: Partition, k: int) -> np.ndarray:
    """Dense matrix of pi_lam(s_k): symmetric, orthogonal, an involution."""
    return apply_generator(lam, k, np.eye(dimension(lam)))


def branching_isometry(lam: Partition, mu: Partition) -> np.ndarray:
    """The 0/1 isometry V_mu -> V_lam sending v_R to v_{R embedded in lam}.

    Requires mu in the down set of lam.  Its image is the pi_mu-isotypic
    component of the restriction of pi_lam to S_{n-1}: the span of basis
    vectors v_T with n in the removed box, contiguous rows at
    :func:`tableaux.down_offset`, so the matrix is a vertical [0; I; 0] block.
    """
    return np.eye(dimension(lam), dimension(mu), -down_offset(lam, mu))


def an_pair_generators(n: int) -> list[Permutation]:
    """The products s_1 s_k, 2 <= k <= n-1, which generate A_n."""
    s1 = Permutation.adjacent(n, 1)
    return [s1 * Permutation.adjacent(n, k) for k in range(2, n)]


def _dense(basis: tuple[np.ndarray, np.ndarray, np.ndarray], rows: int) -> np.ndarray:
    """J itself, the adjoint of the gather of the rows x rows identity; complex when the phases are."""
    return gather(basis, np.eye(rows)).conj().T


def _involution(basis: tuple[np.ndarray, np.ndarray, np.ndarray], rows: int) -> np.ndarray:
    """The self-adjoint involution of a triple (index, partner, phase): e_index[c]
    goes to phase[c] e_partner[c] and back with conj(phase[c]); eps U on an eps triple."""
    index, partner, phase = basis
    U = np.zeros((rows, rows), dtype=np.result_type(phase, float))
    U[partner, index] = phase
    U[index, partner] = np.conj(phase)
    return U


def associator_unitary(nu: Partition) -> np.ndarray:
    """The self-adjoint involution sending v_T to i^m sgn(g_T) v_{T'} on Tab(nu)."""
    return _involution(_injection_basis(nu, 1), dimension(nu))


def eigenspace_injection(nu: Partition, eps) -> np.ndarray:
    """Isometry whose columns are the eigenbasis w_T = (v_T + eps i^m sgn(g_T) v_{T'})/sqrt(2).

    Columns are indexed by Tab_*(nu); the matrix maps the eps-eigenspace
    coordinates into the ambient Tab(nu) basis.
    """
    return _dense(_injection_basis(nu, eps), dimension(nu))


def an_generator_matrix(nu: Partition, eps, k: int) -> np.ndarray:
    """Matrix of the eps-eigenspace representation at s_1 s_k, on the Tab_* basis.

    For k >= 3 this is the Tab_* x Tab_* sub-block of pi_nu(s_k).  For k = 2
    the diagonal holds 1/D_T(3,2) and the only off-diagonal entries sit at
    (s_2 T', T) with value eps i^m sgn(g_T) sqrt(1 - 1/D_T(3,2)^2).
    """
    if not is_symmetric(nu):
        raise NotSymmetricError(f"{nu!r} is not symmetric")
    if nu.n < 5:
        raise TooSmallError("eigenspace generator matrices require n >= 5")
    if not 2 <= k <= nu.n - 1:
        raise IndexOutOfRangeError(f"k = {k} outside 2..{nu.n - 1}")
    return an_rep_matrix(nu, eps, Permutation.adjacent(nu.n, 1) * Permutation.adjacent(nu.n, k))


def an_rep_matrix(nu: Partition, eps, g: Permutation) -> np.ndarray:
    """Eigenspace representation at an even permutation g: J* pi_nu(g) J.

    sqrt(2) J, the Tab_* columns of 1 + U_eps, holds exactly 1 and the phase;
    pi_nu(g) acts on it by sparse generator steps and its rows are gathered as
    in :func:`gather`, so one halving remains and g = 1 gives the identity.
    """
    basis = index, partner, phase = _injection_basis(nu, eps)
    if g.degree != nu.n:
        raise SizeMismatchError(f"permutation degree {g.degree} != |nu| = {nu.n}")
    if not g.is_even:
        raise OddPermutationError("an_rep_matrix requires an even permutation")
    d = dimension(nu)
    image = rep_apply(nu, g, (np.eye(d) + _involution(basis, d))[:, index])
    return (image[index] + np.conj(phase)[:, None] * image[partner]) * 0.5


def pair_associator_unitary(mu: Partition) -> np.ndarray:
    """Block-permuting involution on the direct sum over all shapes covering mu.

    Maps v_T (T of shape lam) to i^m sgn(g_T) v_{T'} (shape lam'); commutes
    with the even part of the direct-sum representation.
    """
    _check_family_mu(mu)
    layers = tuple(lam for lam, _ in up_set(mu))
    return _involution(_layer_basis(mu, layers, 1), sum(map(dimension, layers)))


def pair_branching_isometry(lam: Partition, mu: Partition, eps) -> np.ndarray:
    """Isometry from the mu eigenspace into the {lam, lam'} eigenspace, w-bases.

    Rows are indexed by Tab(lam) (the eigenbasis of the pair space), columns by
    Tab_*(mu).  Column R carries 1/sqrt(2) at R^lam and
    eps i^m sgn(g_R)/sqrt(2) at (R')^lam.
    """
    _check_family_mu(mu)
    if lam == transpose(lam):
        raise SymmetricLambdaError("pair branching needs a non-symmetric shape")
    offset = down_offset(lam, mu)  # R^lam is row offset + (index of R in Tab(mu))
    index, partner, phase = _injection_basis(mu, eps)
    return _dense((offset + index, offset + partner, phase), dimension(lam))


def symmetric_branching_isometry(nu: Partition, mu: Partition, eps) -> np.ndarray:
    """Isometry from the mu eigenspace into the nu eigenspace, Tab_* bases.

    nu must be symmetric with an odd number of distinct parts and mu its
    symmetric predecessor (nu minus the diagonal corner).  Embedding preserves
    membership in Tab_*, so the matrix is a 0/1 column selector.
    """
    _eps_sign(eps)
    if not is_symmetric(nu):
        raise NotSymmetricError(f"{nu!r} is not symmetric")
    _check_family_mu(mu)
    offset = down_offset(nu, mu)
    m = half_offdiagonal_count(mu)
    nu_stars = _stars(nu)
    mu_stars = _stars(mu)
    Psi = np.zeros((len(nu_stars), len(mu_stars)), dtype=complex if m % 2 else float)
    Psi[np.searchsorted(nu_stars, offset + mu_stars), np.arange(len(mu_stars))] = 1.0
    return Psi


def layer_eigenbasis(mu: Partition, layers: tuple[Partition, ...], eps) -> np.ndarray:
    """Orthonormal basis of the eps-eigenspace of a transpose-closed layer sum.

    Returns the (sum of layer dimensions) x (half that) matrix whose columns
    express the w-basis in the concatenated Tab(lam) coordinates, lam running
    over ``layers`` in their given order.  The symmetric layer (if present)
    contributes Tab_* columns; each transpose pair contributes Tab(lam)
    columns for its first-listed member.
    """
    _check_family_mu(mu)
    return _dense(_layer_basis(mu, layers, eps), sum(map(dimension, layers)))


def projection(e: FusionEnsemble, j: int) -> np.ndarray:
    """Orthogonal projection Phi_j Phi_j* onto the j-th subspace (1-based)."""
    b = e._block(j)
    return b @ _ct(b)


def automorphism_witness(
    e: FusionEnsemble,
    U: np.ndarray,
    sigma: Permutation,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True iff U Phi_j Phi_j* U* equals the projection of subspace sigma(j) for all j."""
    tol = _check_tolerance(tol)
    U = np.asarray(U)
    if U.shape != (e.d, e.d) or _max_abs(_ct(U) @ U - np.eye(e.d)) > max(tol, 1e-8):
        raise NotUnitaryError("U must be a d x d unitary")
    if sigma.degree != e.n:
        raise IndexOutOfRangeError(f"sigma must permute [{e.n}]")
    for j in range(1, e.n + 1):
        A = U @ e._block(j)
        if _max_abs(A @ _ct(A) - projection(e, sigma(j))) > tol:
            return False
    return True
