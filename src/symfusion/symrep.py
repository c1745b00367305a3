"""Irreducible representations of S_n in Young's orthogonal form.

For the adjacent transposition s_k = (k k+1) and a standard tableau T, the
representation acts on the basis vector v_T by

    pi(s_k) v_T = (1/D) v_T + sqrt(1 - 1/D^2) v_{s_k T},      D = D_T(k+1, k),

where the second term vanishes exactly when s_k T is not standard.  Every
generator therefore has at most two nonzeros per column, which we exploit:
products are evaluated by sparse column updates, never by dense
matrix-matrix multiplication with the generators.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRangeError, NotInDownSetError, SizeMismatchError
from .permutations import Permutation, permutation_word
from .tableaux import (
    Partition,
    apply_adjacent_transposition,
    axial_distance,
    dimension,
    down_set,
    enumerate_standard_tableaux,
    tableau_index,
)

DEFAULT_TOL = 1e-9


@lru_cache(maxsize=1024)
def _generator_action(lam: Partition, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse description (diag, off, partner) of pi_lam(s_k) in the canonical basis.

    Column T has 1/D_T(k+1,k) on the diagonal and, when s_k T is standard,
    sqrt(1 - 1/D^2) in row s_k T; partner[t] = t marks the missing second entry.
    """
    if not 1 <= k <= lam.n - 1:
        raise IndexOutOfRangeError(f"k = {k} outside 1..{lam.n - 1}")
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
    for arr in (diag, off, partner):
        arr.setflags(write=False)
    return diag, off, partner


def adjacent_transposition_matrix(lam: Partition, k: int) -> np.ndarray:
    """Dense matrix of pi_lam(s_k): symmetric, orthogonal, an involution."""
    diag, off, partner = _generator_action(lam, k)
    d = len(diag)
    M = np.zeros((d, d))
    idx = np.arange(d)
    M[idx, idx] = diag
    M[partner, idx] += off
    return M


def apply_generator(lam: Partition, k: int, M: np.ndarray) -> np.ndarray:
    """Left-multiply M by pi_lam(s_k) in O(d * cols) using the sparse structure."""
    diag, off, partner = _generator_action(lam, k)
    return diag[:, None] * M + off[:, None] * M[partner]


def apply_word(lam: Partition, word: list[int], M: np.ndarray) -> np.ndarray:
    """Left-multiply M by pi_lam(s_k1) ... pi_lam(s_km) for word = [k1, ..., km]."""
    for k in reversed(word):
        M = apply_generator(lam, k, M)
    return M


def rep_apply(lam: Partition, g: Permutation, M: np.ndarray) -> np.ndarray:
    """pi_lam(g) @ M without materializing pi_lam(g)."""
    if g.degree != lam.n:
        raise SizeMismatchError(f"permutation degree {g.degree} != |lam| = {lam.n}")
    return apply_word(lam, permutation_word(g), M)


def rep_matrix(lam: Partition, g: Permutation) -> np.ndarray:
    """Orthogonal matrix of pi_lam(g) in the canonical tableau basis."""
    return rep_apply(lam, g, np.eye(dimension(lam)))


def branching_isometry(lam: Partition, mu: Partition) -> np.ndarray:
    """The 0/1 isometry V_mu -> V_lam sending v_R to v_{R embedded in lam}.

    Requires mu in the down set of lam.  Its image is the pi_mu-isotypic
    component of the restriction of pi_lam to S_{n-1}: the span of basis
    vectors v_T with n in the removed box.  In the canonical order those rows
    are contiguous and follow the blocks of the earlier down-set members, so
    the matrix is a vertical [0; I; 0] block at that offset.
    """
    offset = 0
    for nu, _box in down_set(lam):
        if nu == mu:
            d_mu = dimension(mu)
            Psi = np.zeros((dimension(lam), d_mu))
            Psi[offset : offset + d_mu] = np.eye(d_mu)
            return Psi
        offset += dimension(nu)
    raise NotInDownSetError(f"{mu!r} is not obtained from {lam!r} by removing a box")
