"""Representations of A_n on the eigenspaces of the transpose associator.

For a symmetric shape nu, the unitary U sending v_T to i^m sgn(g_T) v_{T'}
(m = number of boxes above the main diagonal) squares to the identity and
commutes with the even part of the representation; its +/- eigenspaces carry
irreducible A_n representations.  The same recipe, run over all shapes that
cover a symmetric mu, yields a block-permuting associator whose eigenspaces
split multi-layer constructions in half.

On the word arrays of :mod:`tableaux` the associator is three arrays over
Tab(lam): the index T, the partner T' (an entry's row in T' is its column in
T) and the phase i^m sgn(g_T) (an inversion parity of reading words).  Every
eigenbasis builder scatters from them; tableau objects are built only where
a function returns one.

Reference tableaux: the base point is the row superstandard tableau of the
"small" symmetric shape (even number of distinct parts); shapes covering it
use its embedding.  The scalars i^m are real exactly when m is even, which is
what the field selection rule encodes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegenerateShapeError,
    IndexOutOfRangeError,
    NotSymmetricError,
    OddDistinctPartsError,
    OddPermutationError,
    ShapeMismatchError,
    SymmetricLambdaError,
    TooSmallError,
)
from .permutations import Permutation, permutation_word
from .symrep import _generator_action, adjacent_transposition_matrix
from .tableaux import (
    Box,
    Partition,
    StandardTableau,
    added_row,
    diagonal_count,
    dimension,
    down_offset,
    enumerate_standard_tableaux,
    is_symmetric,
    remove_box,
    tableau_contents,
    tableau_from_word,
    tableau_words,
    transpose,
    up_set,
)

Field = str  # "R" | "C"
_EPS = {"+": 1, "-": -1, 1: 1, -1: -1}


def _eps_sign(eps) -> int:
    """+1 or -1 for exactly '+', '-', 1 or -1 (not True, 1.0 or np.int64(1))."""
    if type(eps) in (str, int) and eps in _EPS:
        return _EPS[eps]
    raise ConstraintViolationError(f"epsilon must be '+', '-', 1 or -1, got {eps!r}")


def half_offdiagonal_count(kappa: Partition) -> int:
    """Number of boxes strictly above the main diagonal of a symmetric shape."""
    if not is_symmetric(kappa):
        raise NotSymmetricError(f"{kappa!r} is not symmetric")
    return (kappa.n - diagonal_count(kappa)) // 2


def field_for(kappa: Partition) -> Field:
    """'R' when the count of boxes above the diagonal is even, else 'C'."""
    return "R" if half_offdiagonal_count(kappa) % 2 == 0 else "C"


def i_power(m: int):
    """i**m as a Python scalar: +-1 when m is even, +-1j when odd."""
    return (1, 1j, -1, -1j)[m % 4]


def _reference_word(lam: Partition, mu: Partition | None) -> np.ndarray:
    """Row word of the reference tableau of lam (of the family over mu if given):
    the row superstandard word of the base shape, then the row of the box lam
    adds to it.  Without mu the base is lam itself or, for an odd number of
    distinct parts, lam minus its diagonal corner."""
    if mu is None:
        if not is_symmetric(lam):
            raise NotSymmetricError(f"{lam!r} is not symmetric")
        if len(set(lam.parts)) % 2 == 0:
            return np.repeat(np.arange(len(lam)), lam.parts)
        p = diagonal_count(lam)
        mu = remove_box(lam, Box(p, p))
    return np.append(np.repeat(np.arange(len(mu)), mu.parts), added_row(mu, lam))


def reference_tableau(kappa: Partition) -> StandardTableau:
    """The distinguished tableau of a symmetric shape.

    Shapes with an even number of distinct parts ("small") use the row
    superstandard filling; shapes with an odd count ("big") embed the row
    superstandard filling of the shape with the diagonal corner removed.
    """
    return tableau_from_word(_reference_word(kappa, None).tolist())


def family_reference_tableau(mu: Partition, lam: Partition) -> StandardTableau:
    """Reference tableau of lam in the family over symmetric mu: embed T_mu."""
    return tableau_from_word(_reference_word(lam, mu).tolist())


def reference_permutation(T: StandardTableau, reference: StandardTableau) -> Permutation:
    """The unique g with g * reference = T (entrywise relabeling)."""
    if T.shape != reference.shape:
        raise ShapeMismatchError("tableaux must share a shape")
    images = [0] * T.n
    for ref_row, t_row in zip(reference.rows, T.rows):
        for src, dst in zip(ref_row, t_row):
            images[src - 1] = dst
    return Permutation(images)


def reference_permutation_sign(T: StandardTableau, reference: StandardTableau) -> int:
    return reference_permutation(T, reference).sign


@lru_cache(maxsize=256)
def _sign_vector(lam: Partition, mu: Partition | None) -> np.ndarray:
    """sgn(g_T) over Tab(lam) in canonical order, with the family reference if mu given.

    On reading words (entries in box order: a stable argsort of the row word)
    g_T = w_T w_R^-1 for the reference R, so its sign is that of inv(w_T) + inv(w_R).
    """
    words = np.vstack([tableau_words(lam), _reference_word(lam, mu)])
    reading = np.argsort(words, axis=1, kind="stable")
    inversions = np.zeros(len(words), dtype=np.int64)
    for i in range(lam.n - 1):
        inversions += np.count_nonzero(reading[:, i, None] > reading[:, i + 1 :], axis=1)
    signs = 1 - 2 * ((inversions[:-1] + inversions[-1]) % 2)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=256)
def _transpose_index(lam: Partition) -> np.ndarray:
    """index of T' in Tab(lam') for each T in Tab(lam), both in canonical order.

    The word of T' is the column word (content + row) of T; lexsort, last key
    primary, ranks those words in the canonical order of Tab(lam').
    """
    columns = tableau_contents(lam) + tableau_words(lam)
    out = np.empty(len(columns), dtype=np.int64)
    out[np.lexsort(columns.T)] = np.arange(len(columns))
    out.setflags(write=False)
    return out


def _stars(nu: Partition) -> np.ndarray:
    """Canonical indices of tab_star(nu): the words with entry 2 in row 0."""
    if not is_symmetric(nu):
        raise NotSymmetricError(f"{nu!r} is not symmetric")
    if nu.n < 2:
        raise DegenerateShapeError("tab_star needs at least two boxes")
    return np.flatnonzero(tableau_words(nu)[:, 1] == 0)


def tab_star(nu: Partition) -> tuple[StandardTableau, ...]:
    """Standard tableaux of symmetric shape nu with the entry 2 in box (1, 2).

    Contains exactly one tableau from each transpose pair, so its size is
    dimension(nu) / 2.
    """
    stars = _stars(nu)
    tableaux = enumerate_standard_tableaux(nu)
    return tuple(tableaux[i] for i in stars)


def _w_basis(rows: int, index: np.ndarray, partner: np.ndarray, phase: np.ndarray, m: int) -> np.ndarray:
    """Column c is (e_index[c] + phase[c] e_partner[c]) / sqrt(2); complex when m is odd."""
    J = np.zeros((rows, len(index)), dtype=complex if m % 2 else float)
    cols = np.arange(len(index))
    inv = 1.0 / np.sqrt(2.0)
    J[index, cols] += inv
    J[partner, cols] += phase * inv
    return J


def associator_unitary(nu: Partition) -> np.ndarray:
    """The self-adjoint involution sending v_T to i^m sgn(g_T) v_{T'} on Tab(nu)."""
    m = half_offdiagonal_count(nu)
    factor = i_power(m)
    signs = _sign_vector(nu, None)
    tr = _transpose_index(nu)  # nu symmetric: Tab(nu') = Tab(nu)
    d = dimension(nu)
    U = np.zeros((d, d), dtype=complex if m % 2 else float)
    U[tr, np.arange(d)] = factor * signs
    return U


def eigenspace_injection(nu: Partition, eps) -> np.ndarray:
    """Isometry whose columns are the eigenbasis w_T = (v_T + eps i^m sgn(g_T) v_{T'})/sqrt(2).

    Columns are indexed by tab_star(nu); the matrix maps the eps-eigenspace
    coordinates into the ambient Tab(nu) basis.
    """
    sign = _eps_sign(eps)
    m = half_offdiagonal_count(nu)
    phase = sign * i_power(m) * _sign_vector(nu, None)
    stars = _stars(nu)
    return _w_basis(dimension(nu), stars, _transpose_index(nu)[stars], phase[stars], m)


def an_generator_matrix(nu: Partition, eps, k: int) -> np.ndarray:
    """Matrix of the eps-eigenspace representation at s_1 s_k, on the tab_star basis.

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
    sign = _eps_sign(eps)
    m = half_offdiagonal_count(nu)
    stars = _stars(nu)
    if k >= 3:
        M = adjacent_transposition_matrix(nu, k)[np.ix_(stars, stars)]
        return M if m % 2 == 0 else M.astype(complex)
    diag, off, partner = _generator_action(nu, 2)
    phase = sign * i_power(m) * _sign_vector(nu, None)
    # s_2 T' is standard exactly when |D_T(3,2)| >= 2, i.e. off > 0, and lies in tab_star
    moves = off[stars] > 0
    targets = np.searchsorted(stars, partner[_transpose_index(nu)[stars[moves]]])
    cols = np.arange(len(stars))
    M = np.zeros((len(stars), len(stars)), dtype=complex if m % 2 else float)
    M[cols, cols] = diag[stars]
    M[targets, cols[moves]] = (phase[stars] * off[stars])[moves]
    return M


def an_rep_matrix(nu: Partition, eps, g: Permutation) -> np.ndarray:
    """Eigenspace representation at an even permutation g.

    The adjacent word of g is paired into factors s_a s_b = (s_1 s_a)^-1 (s_1 s_b),
    each evaluated through :func:`an_generator_matrix`.
    """
    _eps_sign(eps)
    if g.degree != nu.n:
        raise ShapeMismatchError(f"permutation degree {g.degree} != |nu| = {nu.n}")
    word = permutation_word(g)
    if len(word) % 2:
        raise OddPermutationError("an_rep_matrix requires an even permutation")
    m = half_offdiagonal_count(nu)
    ds = len(_stars(nu))
    out = np.eye(ds, dtype=complex if m % 2 else float)
    for a, b in zip(word[0::2], word[1::2]):
        if a == b:
            continue
        piece = np.eye(ds, dtype=out.dtype)
        if a != 1:
            piece = an_generator_matrix(nu, eps, a).conj().T
        if b != 1:
            piece = piece @ an_generator_matrix(nu, eps, b)
        out = out @ piece
    return out


def _check_family_mu(mu: Partition) -> None:
    if not is_symmetric(mu):
        raise NotSymmetricError(f"{mu!r} is not symmetric")
    if len(set(mu.parts)) % 2:
        raise OddDistinctPartsError(f"{mu!r} must have an even number of distinct parts")


def pair_associator_unitary(mu: Partition) -> np.ndarray:
    """Block-permuting involution on the direct sum over all shapes covering mu.

    Maps v_T (T of shape lam) to i^m sgn(g_T) v_{T'} (shape lam'); commutes
    with the even part of the direct-sum representation.
    """
    _check_family_mu(mu)
    m = half_offdiagonal_count(mu)
    factor = i_power(m)
    layers = [lam for lam, _ in up_set(mu)]
    starts = list(accumulate(map(dimension, layers), initial=0))
    offsets = dict(zip(layers, starts))
    U = np.zeros((starts[-1], starts[-1]), dtype=complex if m % 2 else float)
    for lam in layers:
        src = offsets[lam] + np.arange(dimension(lam))
        U[offsets[transpose(lam)] + _transpose_index(lam), src] = factor * _sign_vector(lam, mu)
    return U


def pair_branching_isometry(lam: Partition, mu: Partition, eps) -> np.ndarray:
    """Isometry from the mu eigenspace into the {lam, lam'} eigenspace, w-bases.

    Rows are indexed by Tab(lam) (the eigenbasis of the pair space), columns by
    tab_star(mu).  Column R carries 1/sqrt(2) at R^lam and
    eps i^m sgn(g_R)/sqrt(2) at (R')^lam.
    """
    _check_family_mu(mu)
    if lam == transpose(lam):
        raise SymmetricLambdaError("pair branching needs a non-symmetric shape")
    offset = down_offset(lam, mu)  # R^lam is row offset + (index of R in Tab(mu))
    sign = _eps_sign(eps)
    m = half_offdiagonal_count(mu)
    phase = sign * i_power(m) * _sign_vector(mu, None)
    stars = _stars(mu)
    return _w_basis(dimension(lam), offset + stars, offset + _transpose_index(mu)[stars], phase[stars], m)


def symmetric_branching_isometry(nu: Partition, mu: Partition, eps) -> np.ndarray:
    """Isometry from the mu eigenspace into the nu eigenspace, tab_star bases.

    nu must be symmetric with an odd number of distinct parts and mu its
    symmetric predecessor (nu minus the diagonal corner).  Embedding preserves
    membership in tab_star, so the matrix is a 0/1 column selector.
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
    contributes tab_star columns; each transpose pair contributes Tab(lam)
    columns for its first-listed member.
    """
    _check_family_mu(mu)
    sign = _eps_sign(eps)
    m = half_offdiagonal_count(mu)
    factor = sign * i_power(m)
    starts = list(accumulate(map(dimension, layers), initial=0))
    offsets = dict(zip(layers, starts))
    empty = np.zeros(0, dtype=np.int64)
    columns = [(empty, empty, empty)]  # (rows of v_T, rows of v_{T'}, phases)
    for lam in layers:
        lam_t = transpose(lam)
        if lam_t not in offsets:
            raise ShapeMismatchError("layers must be closed under transpose")
        if lam == lam_t:
            t = _stars(lam)
        elif offsets[lam] < offsets[lam_t]:  # first member of the pair
            t = np.arange(dimension(lam))
        else:
            continue
        phase = factor * _sign_vector(lam, mu)
        columns.append((offsets[lam] + t, offsets[lam_t] + _transpose_index(lam)[t], phase[t]))
    index, partner, phase = (np.concatenate(part) for part in zip(*columns))
    return _w_basis(starts[-1], index, partner, phase, m)
