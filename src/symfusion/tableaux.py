"""Partitions, Young diagrams, and standard tableaux with exact integer arithmetic.

Boxes are indexed like matrix entries, 1-based, rows top to bottom and columns
left to right.  All values here are immutable and hashable, so they can be
shared freely across threads and used as cache keys by the representation
layer.  The representation layer reads Tab(lam) as read-only arrays: one
row-index word per tableau (:func:`tableau_words`) and its contents
(:func:`tableau_contents`); :class:`StandardTableau` objects are built from
those words only on request.  Dimensions are exact Python integers (they
overflow fixed-width types quickly: ``dimension(Partition((7, 7, 4, 3, 3)))``
is 11,660,320,672).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from operator import lt
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    BoxOutsideDiagramError,
    EntryOutOfRangeError,
    NonPositivePartError,
    NotInDownSetError,
    NotInUpSetError,
    NotNonincreasingError,
    NotStandardError,
    ParseError,
)


class Box(NamedTuple):
    """1-based (row, col) position in a Young diagram."""

    row: int
    col: int

    @property
    def superdiagonal(self) -> int:
        """Signed diagonal index col - row; 0 on the main diagonal."""
        return self.col - self.row


def box_axial_distance(a: Box | tuple[int, int], b: Box | tuple[int, int]) -> int:
    """Axial distance from box ``a`` to box ``b``: difference of superdiagonals."""
    return (a[1] - a[0]) - (b[1] - b[0])


class Partition:
    """A nonincreasing sequence of positive integers summing to n."""

    __slots__ = ("parts", "n")

    def __init__(self, parts: Iterable[int]):
        pts = tuple(map(int, parts))
        if not pts:
            raise NonPositivePartError("a partition needs at least one part")
        if min(pts) < 1:
            raise NonPositivePartError(f"parts must be positive integers: {pts}")
        if any(map(lt, pts, pts[1:])):
            raise NotNonincreasingError(f"parts must be nonincreasing: {pts}")
        self.parts = pts
        self.n = sum(pts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition({', '.join(map(str, self.parts))})"

    def __str__(self) -> str:
        # the serialization format used on the CLI and in JSON metadata
        return ",".join(map(str, self.parts))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse a comma-separated part list such as ``"4,2,2"``."""
        try:
            parts = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
        except ValueError as exc:
            raise ParseError(f"cannot parse partition {text!r}: {exc}") from exc
        return cls(parts)


def contains(lam: Partition, box: Box | tuple[int, int]) -> bool:
    row, col = box
    return 1 <= row <= len(lam) and 1 <= col <= lam[row - 1]


def boxes(lam: Partition) -> Iterator[Box]:
    for i, part in enumerate(lam, start=1):
        for j in range(1, part + 1):
            yield Box(i, j)


def transpose(lam: Partition) -> Partition:
    """Reflect the diagram across its main diagonal."""
    return Partition(
        sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1)
    )


def is_symmetric(lam: Partition) -> bool:
    return transpose(lam) == lam


def diagonal_count(lam: Partition) -> int:
    """Number of boxes on the main diagonal, max{i : lam_i >= i}."""
    return sum(1 for i, p in enumerate(lam, start=1) if p >= i)


def hook_length(lam: Partition, box: Box | tuple[int, int]) -> int:
    """Boxes at-or-right of ``box`` in its row plus strictly below in its column."""
    if not contains(lam, box):
        raise BoxOutsideDiagramError(f"box {tuple(box)} outside diagram of {lam!r}")
    row, col = box
    arm = lam[row - 1] - col
    leg = sum(1 for p in lam.parts[row:] if p >= col)
    return arm + leg + 1


def hook_product(lam: Partition) -> int:
    """Product of all hook lengths, from the first-column hooks alone.

    With l_i = lam_i + len(lam) - i, the product is
    prod_i l_i! / prod_{i<j} (l_i - l_j): O(len(lam)^2) instead of O(n len(lam)).
    """
    ell = len(lam)
    firsts = [part + ell - i for i, part in enumerate(lam.parts, start=1)]
    den = 1
    for li, lj in combinations(firsts, 2):
        den *= li - lj
    return prod(map(factorial, firsts)) // den


def dimension(lam: Partition) -> int:
    """Number of standard tableaux of shape ``lam``, by the hook length formula."""
    return factorial(lam.n) // hook_product(lam)


def remove_box(lam: Partition, box: Box | tuple[int, int]) -> Partition:
    row, col = box
    new = list(lam.parts)
    new[row - 1] -= 1
    return Partition(p for p in new if p > 0)


def removable_boxes(lam: Partition) -> tuple[Box, ...]:
    """Boxes whose removal leaves a Young diagram, by descending superdiagonal.

    Their count equals the number of distinct parts of ``lam``.
    """
    out = []
    h = len(lam)
    for i, part in enumerate(lam, start=1):
        below = lam[i] if i < h else 0
        if part > below:
            out.append(Box(i, part))
    return tuple(out)


def down_set(lam: Partition) -> tuple[tuple[Partition, Box], ...]:
    """All (mu, removed box) with mu obtained by removing one box from ``lam``.

    Ordered by descending superdiagonal of the removed box; the count equals
    the number of distinct parts of ``lam``.  The one-box shape has no valid
    children (the empty partition is rejected), so its down set is empty.
    """
    if lam.n == 1:
        return ()
    return tuple((remove_box(lam, box), box) for box in removable_boxes(lam))


def up_set(mu: Partition) -> tuple[tuple[Partition, Box], ...]:
    """All (lam, added box) with lam obtained by adding one box to ``mu``.

    Ordered by descending superdiagonal of the added box; the count is one
    more than the number of distinct parts of ``mu``.
    """
    parts = mu.parts
    out = []
    for i, part in enumerate(parts):
        if i == 0 or parts[i - 1] > part:
            grown = parts[:i] + (part + 1,) + parts[i + 1 :]
            out.append((Partition(grown), Box(i + 1, part + 1)))
    out.append((Partition(parts + (1,)), Box(len(parts) + 1, 1)))
    return tuple(out)


def partitions_of(n: int) -> Iterator[Partition]:
    """Every partition of n exactly once, in descending lexicographic order."""
    if n < 1:
        raise NonPositivePartError("partitions are defined for n >= 1")

    def gen(remaining: int, max_part: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        for p in range(min(max_part, remaining), 0, -1):
            yield from gen(remaining - p, p, prefix + (p,))

    yield from gen(n, n, ())


class StandardTableau:
    """A bijective filling of a Young diagram, increasing along rows and columns.

    Entries are stored both as a row grid and as an inverse map entry -> box,
    so axial distances are O(1) lookups.
    """

    __slots__ = ("rows", "shape", "_box_of", "_content")

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
        self._box_of = tuple(positions)  # type: ignore[arg-type]
        self._content: tuple[int, ...] | None = None

    @property
    def n(self) -> int:
        return self.shape.n

    def box_of(self, entry: int) -> Box:
        if not 1 <= entry <= self.n:
            raise EntryOutOfRangeError(f"entry {entry} outside 1..{self.n}")
        return self._box_of[entry - 1]

    def entry(self, box: Box | tuple[int, int]) -> int:
        if not contains(self.shape, box):
            raise BoxOutsideDiagramError(f"box {tuple(box)} outside {self.shape!r}")
        row, col = box
        return self.rows[row - 1][col - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "\n".join("|" + "|".join(map(str, row)) + "|" for row in self.rows)

    def to_lists(self) -> list[list[int]]:
        """Row-major nested lists, the JSON serialization of a tableau."""
        return [list(row) for row in self.rows]


def content(T: StandardTableau) -> tuple[int, ...]:
    """Superdiagonal positions of the entries 1..n, in entry order."""
    if T._content is None:
        T._content = tuple(b.superdiagonal for b in T._box_of)
    return T._content


def axial_distance(T: StandardTableau, i: int, j: int) -> int:
    """Content difference between entries ``i`` and ``j`` of ``T``."""
    c = content(T)
    if not (1 <= i <= T.n and 1 <= j <= T.n):
        raise EntryOutOfRangeError(f"entries {i}, {j} must lie in 1..{T.n}")
    return c[i - 1] - c[j - 1]


def apply_adjacent_transposition(T: StandardTableau, k: int) -> StandardTableau | None:
    """Swap entries k and k+1 of ``T`` if the result is standard, else None.

    The result is standard exactly when |axial_distance(T, k+1, k)| >= 2,
    i.e. when the two entries are neither row- nor column-adjacent.
    """
    if not 1 <= k <= T.n - 1:
        raise EntryOutOfRangeError(f"k = {k} outside 1..{T.n - 1}")
    if abs(axial_distance(T, k + 1, k)) < 2:
        return None
    a = T.box_of(k)
    b = T.box_of(k + 1)
    grid = [list(row) for row in T.rows]
    grid[a.row - 1][a.col - 1] = k + 1
    grid[b.row - 1][b.col - 1] = k
    return StandardTableau(grid)


def embed(R: StandardTableau, lam: Partition) -> StandardTableau:
    """Add the box lam - shape(R) to ``R`` and fill it with n = |lam|."""
    return tableau_from_word([box.row - 1 for box in R._box_of] + [added_row(R.shape, lam)])


def transpose_tableau(T: StandardTableau) -> StandardTableau:
    cols = transpose(T.shape)
    grid = [[T.rows[i][j] for i in range(cols[j])] for j in range(len(cols))]
    return StandardTableau(grid)


def row_superstandard(lam: Partition) -> StandardTableau:
    """The tableau whose rows list 1, 2, 3, ... left to right, top to bottom."""
    return tableau_from_word([row for row, part in enumerate(lam) for _ in range(part)])


def canonical_key(T: StandardTableau) -> tuple[int, ...]:
    """Sort key for the canonical basis order: (row of n, row of n-1, ..., row of 1)."""
    return tuple(T._box_of[e].row for e in range(T.n - 1, -1, -1))


@lru_cache(maxsize=None)
def tableau_words(lam: Partition) -> np.ndarray:
    """Read-only (d, n) array: row t lists the 0-based rows of entries 1..n in
    the t-th standard tableau of ``lam``, in canonical order.

    The canonical order sorts by (row of n, row of n-1, ..., row of 1)
    ascending-lexicographically.  :func:`down_set` lists the removable boxes
    by ascending row, so stacking ``[tableau_words(mu) | row of the box]``
    over it is already that order: tableaux sharing the box of n are
    contiguous, which makes every branching isometry a contiguous 0/1 column
    selector.
    """
    if lam.n == 1:
        words = np.zeros((1, 1), dtype=np.int16)
    else:
        blocks = [(tableau_words(mu), box.row - 1) for mu, box in down_set(lam)]
        words = np.vstack([
            np.column_stack([sub, np.full(len(sub), row, dtype=np.int16)]) for sub, row in blocks
        ])
    words.setflags(write=False)
    return words


@lru_cache(maxsize=None)
def tableau_contents(lam: Partition) -> np.ndarray:
    """Read-only (d, n) array of contents col - row, aligned with :func:`tableau_words`.

    The column of an entry is the count of entries up to it in its row, so it
    is a cumulative sum of the one-hot row indicators.
    """
    words = tableau_words(lam)
    counts = np.cumsum(words[:, :, None] == np.arange(len(lam), dtype=np.int16), axis=1, dtype=np.int16)
    cols = np.take_along_axis(counts, words[:, :, None].astype(np.intp), axis=2)[:, :, 0]
    contents = cols - 1 - words
    contents.setflags(write=False)
    return contents


def added_row(mu: Partition, lam: Partition) -> int:
    """0-based row of the box lam - mu, for lam in the up set of ``mu``."""
    rows = [box.row - 1 for target, box in up_set(mu) if target == lam]
    if not rows:
        raise NotInUpSetError(f"{lam!r} is not {mu!r} plus one box")
    return rows[0]


def down_offset(lam: Partition, mu: Partition) -> int:
    """Index in Tab(lam) of the first embedding of Tab(mu); they are contiguous, in order."""
    children = [nu for nu, _box in down_set(lam)]
    if mu not in children:
        raise NotInDownSetError(f"{mu!r} is not obtained from {lam!r} by removing a box")
    return sum(map(dimension, children[: children.index(mu)]))


def tableau_from_word(word: list[int]) -> StandardTableau:
    """The tableau whose entry e sits in the 0-based row ``word[e - 1]``."""
    grid: list[list[int]] = [[] for _ in range(max(word) + 1)]
    for entry, row in enumerate(word, start=1):
        grid[row].append(entry)
    return StandardTableau(grid)


@lru_cache(maxsize=None)
def enumerate_standard_tableaux(lam: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of shape ``lam``, in the order of :func:`tableau_words`."""
    return tuple(map(tableau_from_word, tableau_words(lam).tolist()))


@lru_cache(maxsize=None)
def tableau_index(lam: Partition) -> dict[StandardTableau, int]:
    """Position of every standard tableau of shape ``lam`` in the canonical order."""
    return {T: i for i, T in enumerate(enumerate_standard_tableaux(lam))}
