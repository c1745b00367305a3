"""Representations of A_n on the eigenspaces of the transpose associator.

For a symmetric shape nu, the unitary U sending v_T to i^m sgn(g_T) v_{T'}
(m = number of boxes above the main diagonal) squares to the identity and
commutes with the even part of the representation; its +/- eigenspaces carry
irreducible A_n representations.  The same recipe, run over all shapes that
cover a symmetric mu, yields a block-permuting associator whose eigenspaces
split multi-layer constructions in half.

On the word arrays of :mod:`tableaux` the associator is three arrays over
Tab(lam): the index T, the partner T' (an entry's row in T' is its column in
T) and the phase i^m sgn(g_T) (an inversion parity of reading words).  A
w-basis J is applied only as the signed gather of :func:`gather`, J* M =
(M[index] + conj(phase) M[partner]) / sqrt(2); no dense J, U or
rho_eps(g) = J* pi(g) J is formed here (tests/oracles.py builds them from these
arrays).  Tab_*(nu), the half of Tab(nu) that indexes an eigenspace basis, is
the set of words with the entry 2 in row 0.

Reference tableaux: the base point is the row superstandard tableau of the
"small" symmetric shape (even number of distinct parts); shapes covering it
use its embedding.  Both are kept as row words.  The scalars i^m are real
exactly when m is even, which is what the field selection rule encodes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegenerateShapeError,
    NotSymmetricError,
    OddDistinctPartsError,
)
from .tableaux import (
    Box,
    Partition,
    added_row,
    diagonal_count,
    dimension,
    is_symmetric,
    remove_box,
    tableau_contents,
    tableau_words,
    transpose,
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
    """Row word of the reference tableau of lam, in the family over mu if given.

    A family member is the row superstandard word of mu, then the row of the
    box lam adds to it.  Without mu, a symmetric lam with an even number of
    distinct parts ("small") takes its own row superstandard word, and one with
    an odd count ("big") is the family member over lam minus its diagonal corner.
    """
    if mu is None:
        if not is_symmetric(lam):
            raise NotSymmetricError(f"{lam!r} is not symmetric")
        if len(set(lam.parts)) % 2 == 0:
            return np.repeat(np.arange(len(lam)), lam.parts)
        p = diagonal_count(lam)
        mu = remove_box(lam, Box(p, p))
    return np.append(np.repeat(np.arange(len(mu)), mu.parts), added_row(mu, lam))


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
    """Canonical indices of Tab_*(nu): the words with entry 2 in row 0.

    Tab_*(nu) holds exactly one tableau of each transpose pair, so its size is
    dimension(nu) / 2.
    """
    if not is_symmetric(nu):
        raise NotSymmetricError(f"{nu!r} is not symmetric")
    if nu.n < 2:
        raise DegenerateShapeError("Tab_* needs at least two boxes")
    return np.flatnonzero(tableau_words(nu)[:, 1] == 0)


def gather(basis: tuple[np.ndarray, np.ndarray, np.ndarray], M: np.ndarray) -> np.ndarray:
    """J* M for the w-basis J = (index, partner, phase), whose column c is
    (e_index[c] + phase[c] e_partner[c]) / sqrt(2): row c of the result is
    (M[index[c]] + conj(phase[c]) M[partner[c]]) / sqrt(2)."""
    index, partner, phase = basis
    return (M[index] + np.conj(phase)[:, None] * M[partner]) * (1.0 / np.sqrt(2.0))


def _injection_basis(nu: Partition, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, partner, phase) of the eps-eigenbasis w_T = (v_T + eps i^m sgn(g_T) v_{T'})/sqrt(2)
    of the associator on Tab(nu), T running over Tab_*(nu)."""
    sign = _eps_sign(eps)
    stars = _stars(nu)
    phase = sign * i_power(half_offdiagonal_count(nu)) * _sign_vector(nu, None)
    return stars, _transpose_index(nu)[stars], phase[stars]


def _check_family_mu(mu: Partition) -> None:
    if not is_symmetric(mu):
        raise NotSymmetricError(f"{mu!r} is not symmetric")
    if len(set(mu.parts)) % 2:
        raise OddDistinctPartsError(f"{mu!r} must have an even number of distinct parts")


def _layer_basis(mu: Partition, layers: tuple[Partition, ...], eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, partner, phase) of the eps-eigenbasis of a transpose-closed layer sum, in the
    concatenated Tab(lam) coordinates of ``layers`` in their given order.  The symmetric
    layer (if present) contributes Tab_* columns; each transpose pair contributes Tab(lam)
    columns for its first-listed member.  The caller checks mu and the layers."""
    factor = _eps_sign(eps) * i_power(half_offdiagonal_count(mu))
    starts = list(accumulate(map(dimension, layers), initial=0))
    offsets = dict(zip(layers, starts))
    empty = np.zeros(0, dtype=np.int64)
    columns = [(empty, empty, empty)]  # (rows of v_T, rows of v_{T'}, phases)
    for lam in layers:
        lam_t = transpose(lam)
        if lam == lam_t:
            t = _stars(lam)
        elif offsets[lam] < offsets[lam_t]:  # first member of the pair
            t = np.arange(dimension(lam))
        else:
            continue
        phase = factor * _sign_vector(lam, mu)
        columns.append((offsets[lam] + t, offsets[lam_t] + _transpose_index(lam)[t], phase[t]))
    return tuple(np.concatenate(part) for part in zip(*columns))
