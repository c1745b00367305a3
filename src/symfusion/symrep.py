"""Irreducible representations of S_n in Young's orthogonal form.

For the adjacent transposition s_k = (k k+1) and a standard tableau T, the
representation acts on the basis vector v_T by

    pi(s_k) v_T = (1/D) v_T + sqrt(1 - 1/D^2) v_{s_k T},      D = D_T(k+1, k),

where the second term vanishes exactly when s_k T is not standard.  Every
generator therefore has at most two nonzeros per column, which we exploit:
products are evaluated by sparse column updates, never by dense
matrix-matrix multiplication with the generators.

The tables behind those updates come from the array picture of Tab(lam)
(Okounkov-Vershik, Selecta Math. 1996): D is a difference of two columns of
:func:`tableaux.tableau_contents`, and s_k T is a row-index word of
:func:`tableaux.tableau_words` with two entries swapped, located by one
lexicographic sort.  No tableau object is built.  The same table read on
columns gives the right action M pi(s_k), which the orbit builder in
:mod:`constructions` uses for its conjugation recursion.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRangeError, SizeMismatchError
from .permutations import Permutation, permutation_word
from .tableaux import Partition, dimension, down_offset, tableau_contents, tableau_words

DEFAULT_TOL = 1e-9


@lru_cache(maxsize=1024)
def _generator_action(lam: Partition, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse description (diag, off, partner) of pi_lam(s_k) in the canonical basis.

    Column T has 1/D_T(k+1,k) on the diagonal and, when s_k T is standard,
    sqrt(1 - 1/D^2) in row s_k T; partner[t] = t marks the missing second entry.
    D is a difference of two content columns, and s_k T swaps two word
    entries; the swapped words of the tableaux with |D| >= 2 are those same
    words again, so one lexicographic sort of them finds every partner.
    """
    if not 1 <= k <= lam.n - 1:
        raise IndexOutOfRangeError(f"k = {k} outside 1..{lam.n - 1}")
    contents = tableau_contents(lam)
    dist = (contents[:, k] - contents[:, k - 1]).astype(float)
    diag = 1.0 / dist
    off = np.sqrt(1.0 - 1.0 / (dist * dist))  # 0 exactly where |D| = 1
    movable = np.flatnonzero(np.abs(dist) >= 2)
    swapped = tableau_words(lam)[movable]
    swapped[:, [k - 1, k]] = swapped[:, [k, k - 1]]
    # canonical order is lexicographic in the reversed word; lexsort's last key is primary
    partner = np.arange(len(diag))
    partner[movable[np.lexsort(swapped.T)]] = movable
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


def right_apply_generator(lam: Partition, k: int, M: np.ndarray) -> np.ndarray:
    """Right-multiply M by pi_lam(s_k), reading the same sparse table on columns.

    pi_lam(s_k) is symmetric, so column t of the product is
    diag[t] M[:, t] + off[t] M[:, partner[t]].
    """
    diag, off, partner = _generator_action(lam, k)
    # np.take gathers columns faster than M[:, partner]
    return M * diag + np.take(M, partner, axis=1) * off


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
    vectors v_T with n in the removed box, contiguous rows at
    :func:`tableaux.down_offset`, so the matrix is a vertical [0; I; 0] block.
    """
    offset = down_offset(lam, mu)
    d_mu = dimension(mu)
    Psi = np.zeros((dimension(lam), d_mu))
    Psi[offset : offset + d_mu] = np.eye(d_mu)
    return Psi
