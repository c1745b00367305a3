"""Permutations of [n] under the right-factor-acts-first convention.

Composition follows (fg)(x) = f(g(x)), so in a product the rightmost factor
acts first and ``(1 2)(2 3) = (1 2 3)``.  (GAP composes the other way round;
data imported from such tools must be inverted by the importer.)
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import BadTransversalError, IndexOutOfRangeError, ParseError, SizeMismatchError, TooSmallError
from .tableaux import _integer_entries


class Permutation:
    """Bijection of [n], stored as the image sequence g(1), ..., g(n)."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = _integer_entries(images, "permutation")
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise SizeMismatchError(f"not a bijection of [{len(imgs)}]: {imgs}")
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise SizeMismatchError("cannot compose permutations of different degrees")
        return Permutation(self.images[other.images[x] - 1] for x in range(self.degree))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Permutation(inv)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation.parse({self.cycle_string()!r}, n={self.degree})"

    @property
    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    @property
    def sign(self) -> int:
        """(-1)^(number of transpositions): a cycle of length k is k - 1 of them."""
        return -1 if sum(len(c) - 1 for c in self.to_cycles()) % 2 else 1

    @property
    def is_even(self) -> bool:
        return self.sign == 1

    def extend(self, m: int) -> "Permutation":
        """The same permutation viewed in S_m, fixing the new points."""
        if m < self.degree:
            raise SizeMismatchError("cannot extend to a smaller degree")
        return Permutation(self.images + tuple(range(self.degree + 1, m + 1)))

    def to_cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        cycles = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                cycles.append(tuple(cyc))
        return cycles

    def cycle_string(self) -> str:
        cycles = self.to_cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n):
            raise IndexOutOfRangeError(f"transposition ({a} {b}) has a point outside 1..{n}")
        imgs = list(range(1, n + 1))
        imgs[a - 1], imgs[b - 1] = imgs[b - 1], imgs[a - 1]
        return cls(imgs)

    @classmethod
    def adjacent(cls, n: int, k: int) -> "Permutation":
        """The adjacent transposition s_k = (k k+1) in S_n."""
        return cls.transposition(n, k, k + 1)

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Compose the given cycles; the rightmost cycle acts first."""
        result = cls.identity(n)
        for cyc in cycles:
            if len(set(cyc)) < len(cyc):
                raise ParseError(f"cycle {tuple(cyc)} repeats a point")
            if not all(1 <= x <= n for x in cyc):
                raise IndexOutOfRangeError(f"cycle {tuple(cyc)} has a point outside 1..{n}")
            imgs = list(range(1, n + 1))
            for i, x in enumerate(cyc):
                imgs[x - 1] = cyc[(i + 1) % len(cyc)]
            result = result * cls(imgs)
        return result

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Permutation":
        """Parse cycle notation like ``"(1 2)(3 4 5)"`` or one-line ``"2,1,3"``.

        ``n`` defaults to the largest point mentioned; it must be given
        explicitly for the identity ``"()"``.
        """
        text = text.strip()
        if text.startswith("("):
            if not re.fullmatch(r"(\([^()]*\)\s*)+", text):
                raise ParseError(f"cannot parse permutation {text!r}: text outside its cycles")
            cycles = []
            for group in re.findall(r"\(([^()]*)\)", text):
                pts = _parse_ints(group, text)
                if min(pts, default=1) < 1 or len(set(pts)) < len(pts):
                    raise ParseError(f"cycle ({group.strip()}) in {text!r} needs distinct positive points")
                if pts:
                    cycles.append(pts)
            top = max((max(c) for c in cycles), default=0)
            if n is None:
                n = top
            if n < top or n < 1:
                raise SizeMismatchError(f"cycles mention points beyond n={n}")
            return cls.from_cycles(n, cycles)
        imgs = _parse_ints(text, text)
        perm = cls(imgs)
        if n is not None and n != perm.degree:
            raise SizeMismatchError(f"one-line form has degree {perm.degree}, expected {n}")
        return perm


def _parse_ints(part: str, text: str) -> list[int]:
    """The integers of ``part`` between commas or runs of spaces (none if blank); an empty field is an error."""
    try:
        return [int(tok) for tok in re.split(r"\s*,\s*|\s+", part.strip())] if part.strip() else []
    except ValueError as exc:
        raise ParseError(f"cannot parse permutation {text!r}: {exc}") from exc


def permutation_word(g: Permutation) -> list[int]:
    """Factor g as a product of adjacent transpositions, g = s_k1 s_k2 ... s_km.

    Exchange (bubble) sort of the one-line form: right-multiplying by s_k swaps
    positions k and k+1, so sorting collects a word with m = #inversions,
    hence m <= n(n-1)/2 and the parity of m is the parity of g.
    """
    images = list(g.images)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for k in range(len(images) - 1):
            if images[k] > images[k + 1]:
                images[k], images[k + 1] = images[k + 1], images[k]
                swaps.append(k + 1)
                changed = True
    swaps.reverse()
    return swaps


def transversal_sn(n: int) -> list[Permutation]:
    """Permutations t_1, ..., t_n in S_n with t_k(n) = k; here t_k = (k n)."""
    if n < 1:
        raise TooSmallError("n must be >= 1")
    out = [Permutation.transposition(n, k, n) for k in range(1, n)]
    out.append(Permutation.identity(n))
    return out


def transversal_an(n: int) -> list[Permutation]:
    """Even permutations t_1, ..., t_n with t_k(n) = k.

    t_k = (n-1 n)(k n) for k <= n-2, t_{n-1} = (n-2 n)(n-1 n), t_n = identity.
    """
    if n < 4:
        raise TooSmallError("an even transversal needs n >= 4")
    out = [
        Permutation.from_cycles(n, [(n - 1, n), (k, n)]) for k in range(1, n - 1)
    ]
    out.append(Permutation.from_cycles(n, [(n - 2, n), (n - 1, n)]))
    out.append(Permutation.identity(n))
    return out


def validate_transversal(ts: Sequence[Permutation], n: int, even: bool = False) -> list[Permutation]:
    """Check t_k(n) = k for k in [n] (and evenness when requested)."""
    if len(ts) != n:
        raise BadTransversalError(f"need exactly {n} transversal elements, got {len(ts)}")
    for k, t in enumerate(ts, start=1):
        if t.degree != n:
            raise BadTransversalError(f"t_{k} has degree {t.degree}, expected {n}")
        if t(n) != k:
            raise BadTransversalError(f"t_{k}({n}) = {t(n)}, expected {k}")
        if even and not t.is_even:
            raise BadTransversalError(f"t_{k} is odd; an even transversal is required")
    return list(ts)
