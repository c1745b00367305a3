"""Standard tableaux as objects: the tests' reference for the word arrays.

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
Last, it keeps the ensemble file as nested lists for ``json.dumps`` and the synthesis
CSV through ``csv.writer``: the bytes that the package's float text must reproduce.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from symfusion import altrep
from symfusion.constructions import ExactIsoclinicCertificate, _parity, _scaled_sums
from symfusion.fusion import FusionEnsemble, _fields_json
from symfusion.permutations import Permutation, permutation_word
from symfusion.symrep import _generator_action, branching_isometry
from symfusion.tableaux import Box, Partition, added_row, dimension, tableau_words, transpose, up_set


class NotStandardError(ValueError):
    """Tableau filling is not standard."""


class BoxOutsideDiagramError(ValueError):
    """Referenced box does not lie in the Young diagram."""


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
    return tuple(tableaux[i] for i in altrep._stars(nu))


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
