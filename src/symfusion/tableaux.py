"""Partitions, Young diagrams, and standard tableaux with exact integer arithmetic.

Boxes are indexed like matrix entries, 1-based, rows top to bottom and columns
left to right.  All values here are immutable and hashable, so they can be
shared freely across threads and used as cache keys by the representation
layer.  Tab(lam) has one encoding, as read-only arrays: one row-index word
per tableau (:func:`tableau_words`) and its contents (:func:`tableau_contents`).
Dimensions are exact Python integers (they overflow fixed-width types
quickly: ``dimension(Partition((7, 7, 4, 3, 3)))`` is 11,660,320,672).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import factorial, prod
from operator import index, lt
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    NonPositivePartError,
    NotInDownSetError,
    NotInUpSetError,
    NotNonincreasingError,
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


def _integer_entries(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The entries as ints, read through ``operator.index``: ints and numpy integers
    pass, while a bool (which ``index`` would read as 0 or 1), a float or a string
    is a ParseError rather than truncated."""
    entries = tuple(values)
    if not any(isinstance(v, bool) for v in entries):
        try:
            return tuple(map(index, entries))
        except TypeError:
            pass
    raise ParseError(f"{what} entries must be integers, got {entries!r}")


class Partition:
    """A nonincreasing sequence of positive integers summing to n."""

    __slots__ = ("parts", "n")

    def __init__(self, parts: Iterable[int]):
        pts = _integer_entries(parts, "partition")
        if not pts:
            raise NonPositivePartError("a partition needs at least one part")
        if min(pts) < 1:
            raise NonPositivePartError(f"parts must be positive integers: {pts}")
        if any(map(lt, pts, pts[1:])):
            raise NotNonincreasingError(f"parts must be nonincreasing: {pts}")
        self.parts = pts
        self.n = sum(pts)

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...], n: int) -> "Partition":
        """The partition with ``parts``, already a nonincreasing tuple of positive ints summing to n."""
        lam = object.__new__(cls)
        lam.parts, lam.n = parts, n
        return lam

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


def hook_product(lam: Partition) -> int:
    """Product of all hook lengths, from the first-column hooks alone.

    With l_i = lam_i + len(lam) - i, the product is
    prod_i l_i! / prod_{i<j} (l_i - l_j): O(len(lam)^2) instead of O(n len(lam)).
    """
    ell = len(lam)
    firsts = [part + ell - i for i, part in enumerate(lam.parts, start=1)]
    return prod(map(factorial, firsts)) // prod([li - lj for li, lj in combinations(firsts, 2)])


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
    below = lam.parts[1:] + (0,)
    return tuple(Box(i, part) for i, (part, low) in enumerate(zip(lam, below), start=1) if part > low)


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
    parts = mu.parts + (0,)  # the 0 is the new row below, dropped from every cover
    return tuple(
        (Partition._unchecked(parts[:i] + (part + 1,) + parts[i + 1 : -1], mu.n + 1), Box(i + 1, part + 1))
        for i, part in enumerate(parts) if i == 0 or parts[i - 1] > part
    )


def partition_corners(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every partition of n once, in :func:`partitions_of` order, as its corner contents (x in
    :func:`up_set` order, y in :func:`removable_boxes` order), with no part tuple.  The walk
    picks each distinct part p, then its multiplicity m, larger first; a block that starts at
    0-based row i gives x = p - i and y = p - i - m, and the last x is -len."""
    if n < 1:
        raise NonPositivePartError("partitions are defined for n >= 1")

    def walk(remaining, below, row, xs, ys):
        for p in range(min(below, remaining), 1, -1):
            x = p - row
            for m in range(remaining // p, 0, -1):
                if remaining > p * m:
                    yield from walk(remaining - p * m, p - 1, row + m, xs + (x,), ys + (x - m,))
                else:
                    yield xs + (x, -row - m), ys + (x - m,)
        # what is left is a column of ones
        yield xs + (1 - row, -row - remaining), ys + (1 - row - remaining,)

    return walk(n, n, 0, (), ())


def corner_parts(xs: tuple[int, ...], ys: tuple[int, ...]) -> tuple[int, ...]:
    """The parts with corner contents (xs, ys): x - y parts x + i for a block from row i."""
    rows = accumulate([x - y for x, y in zip(xs, ys)], initial=0)
    return tuple(x + i for x, y, i in zip(xs, ys, rows) for _ in range(x - y))


def partitions_of(n: int) -> Iterator[Partition]:
    """Every partition of n exactly once, in descending lexicographic order."""
    return (Partition(corner_parts(xs, ys)) for xs, ys in partition_corners(n))


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
