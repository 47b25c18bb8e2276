"""Permutations of {0, .., degree-1}.

Composition is left-to-right: ``(p * q)(x) == q(p(x))``, i.e. apply ``p``
first.  Conjugation follows the same convention, ``p.conjugate(g)`` is
``g^-1 * p * g``.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator

from .errors import SpecParseError

_CYCLE_RE = re.compile(r"\(\s*(\d+(?:[\s,]+\d+)*)?\s*\)")


class Permutation:
    """An immutable permutation stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen[v] = True
        object.__setattr__(self, "images", images)

    # -- construction ----------------------------------------------------

    @classmethod
    def _unsafe(cls, images: tuple[int, ...]) -> "Permutation":
        # internal: skip bijection validation for images built from valid perms
        out = object.__new__(cls)
        object.__setattr__(out, "images", images)
        return out

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from disjoint cycles; unmentioned points are fixed.  A point
        named twice, in one cycle or in two, is refused."""
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            for a in cycle:
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} outside 0..{degree - 1}")
                if a in seen:
                    raise ValueError(f"point {a} appears twice in the cycles")
                seen.add(a)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    @classmethod
    def parse(cls, degree: int, text: str) -> "Permutation":
        """Parse disjoint-cycle notation like ``(0 1 2)(3 4)``; ``()`` is the identity."""
        stripped = text.strip()
        if not stripped:
            raise SpecParseError("empty permutation")
        cycles = []
        pos = 0
        for m in _CYCLE_RE.finditer(stripped):
            if stripped[pos:m.start()].strip():
                raise SpecParseError(f"bad permutation syntax: {text!r}")
            pos = m.end()
            if m.group(1):
                cycles.append([int(tok) for tok in re.split(r"[\s,]+", m.group(1))])
        if stripped[pos:].strip():
            raise SpecParseError(f"bad permutation syntax: {text!r}")
        try:
            return cls.from_cycles(degree, cycles)
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def cycles(self, include_fixed: bool = False) -> list[list[int]]:
        """Disjoint cycles, each starting at its least point, sorted by start."""
        out = []
        seen = [False] * len(self.images)
        for start, image in enumerate(self.images):
            if seen[start] or (image == start and not include_fixed):
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            cur = image
            while cur != start:
                cyc.append(cur)
                seen[cur] = True
                cur = self.images[cur]
            out.append(cyc)
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()), 1)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        q = other.images
        return Permutation._unsafe(tuple(q[v] for v in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._unsafe(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(len(self.images))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, g: "Permutation") -> "Permutation":
        """Return ``g^-1 * self * g``."""
        return g.inverse() * self * g

    def commutator(self, other: "Permutation") -> "Permutation":
        """Return ``self^-1 * other^-1 * self * other``."""
        return self.inverse() * other.inverse() * self * other

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
