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
lexicographic sort.  The same table read on columns gives the right action
M pi(s_k), which the orbit builder in :mod:`constructions` uses for its
conjugation recursion.

Each product takes an optional ``out`` and returns it (a new array when None),
with every entry computed as in the out-of-place formula, bit for bit.  A left
step gathers rows, so ``out`` must not overlap M, and ``rep_apply`` overwrites
M as its second buffer; ``right_apply_generator`` may run in place (``out=M``).
Besides ``out`` a step holds only a temporary of _CHUNK_ROWS rows.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRangeError, SizeMismatchError
from .permutations import Permutation, permutation_word
from .tableaux import Partition, dimension, tableau_contents, tableau_words

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


_CHUNK_ROWS = 64  # the most rows one generator step's temporary spans


def apply_generator(lam: Partition, k: int, M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Left-multiply M by pi_lam(s_k) in O(d * cols) using the sparse structure:
    row t of the product is diag[t] M[t] + off[t] M[partner[t]]."""
    diag, off, partner = _generator_action(lam, k)
    out = np.empty(M.shape, np.result_type(M, diag)) if out is None else out
    np.take(M, partner, axis=0, out=out, mode="clip")  # mode="raise" would buffer a copy of out
    out *= off[:, None]
    for s in range(0, len(M), _CHUNK_ROWS):
        out[s : s + _CHUNK_ROWS] += diag[s : s + _CHUNK_ROWS, None] * M[s : s + _CHUNK_ROWS]
    return out


def right_apply_generator(lam: Partition, k: int, M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Right-multiply M by pi_lam(s_k), reading the same sparse table on columns.

    pi_lam(s_k) is symmetric, so column t of the product is
    diag[t] M[:, t] + off[t] M[:, partner[t]].
    """
    diag, off, partner = _generator_action(lam, k)
    out = np.empty(M.shape, np.result_type(M, diag)) if out is None else out
    buffer = np.empty((min(len(M), _CHUNK_ROWS), len(diag)), out.dtype)
    for s in range(0, len(M), _CHUNK_ROWS):
        src, dst = M[s : s + _CHUNK_ROWS], out[s : s + _CHUNK_ROWS]
        # np.take gathers columns faster than M[:, partner]
        gathered = np.take(src, partner, axis=1, out=buffer[: len(src)], mode="clip")
        np.multiply(src, diag, out=dst)
        dst += np.multiply(gathered, off, out=gathered)
    return out


def rep_apply(lam: Partition, g: Permutation, M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """pi_lam(g) @ M without materializing pi_lam(g): for the word [k1, ..., km]
    of g, left-multiply by pi_lam(s_km) first and pi_lam(s_k1) last, the
    letters alternating between ``out`` and M."""
    if g.degree != lam.n:
        raise SizeMismatchError(f"permutation degree {g.degree} != |lam| = {lam.n}")
    word = permutation_word(g)
    if out is None:  # a new out, and a copy of M for the second buffer
        out = np.empty(M.shape, np.result_type(M, np.float64))
        M = M.astype(out.dtype) if len(word) > 1 else M
    src = M
    for k in reversed(word):
        src = apply_generator(lam, k, src, out=M if src is out else out)
    if src is not out:  # an even word ends in M
        np.copyto(out, src)
    return out


def rep_matrix(lam: Partition, g: Permutation) -> np.ndarray:
    """Orthogonal matrix of pi_lam(g) in the canonical tableau basis, built on one pair of d x d buffers."""
    eye = np.eye(dimension(lam))
    return rep_apply(lam, g, eye, out=np.empty_like(eye))

