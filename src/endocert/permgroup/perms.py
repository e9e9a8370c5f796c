"""Permutations of {0, ..., n-1} with disjoint-cycle text I/O.

The product convention is function composition: ``(p * q)(i) == p(q(i))``,
i.e. the right factor acts first.  This matches the matrix convention used
by the representation code, so group homomorphisms into matrix groups
satisfy ``act(p * q) == act(p) @ act(q)``.

Text notation is 1-based disjoint cycles, e.g. ``"(1 2 3)(4 5)"``.  The
degree is always explicit, never inferred from the largest moved point.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence

from ..errors import ParseError

_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Raw composition of image tuples, q applied first."""
    return tuple([p[i] for i in q])


def _invert(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _cycle_type(p: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of an image tuple, fixed points included, descending."""
    n = len(p)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if not seen[start]:
            j, length = start, 0
            while not seen[j]:
                seen[j] = True
                j, length = p[j], length + 1
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class Perm:
    """A permutation, stored as the tuple of images of 0..n-1; immutable."""

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        seen = [False] * n
        for i in images:
            if not isinstance(i, int) or not 0 <= i < n or seen[i]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen[i] = True
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Perm is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.images == other.images if other.__class__ is Perm else NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        """Build a permutation on 0..degree-1 from 0-based disjoint cycles."""
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                if not 0 <= a < degree:
                    raise ValueError(f"cycle point {a} out of range for degree {degree}")
                images[a] = b
            if cycle:
                if not 0 <= cycle[-1] < degree:
                    raise ValueError(
                        f"cycle point {cycle[-1]} out of range for degree {degree}"
                    )
                images[cycle[-1]] = cycle[0]
        return cls(tuple(images))

    @classmethod
    def parse(cls, text: str, degree: int) -> "Perm":
        """Parse 1-based disjoint-cycle notation, e.g. "(1 2 3)(4 5)".

        "()" and the empty string denote the identity.  Points run from 1 to
        ``degree``; the degree is required and never inferred.
        """
        stripped = text.strip()
        if stripped in ("", "()"):
            return cls.identity(degree)
        cycles = []
        for m in _CYCLE_RE.finditer(stripped):
            body = m.group(1).strip()
            if not body:
                continue
            points = [int(tok) for tok in re.split(r"[\s,]+", body)]
            if any(p < 1 or p > degree for p in points):
                raise ParseError(
                    f"cycle point out of range 1..{degree} in {text!r}"
                )
            if len(set(points)) != len(points):
                raise ParseError(f"repeated point within a cycle in {text!r}")
            cycles.append([p - 1 for p in points])
        leftover = _CYCLE_RE.sub("", stripped).strip()
        if leftover:
            raise ParseError(f"unparsed text {leftover!r} in permutation {text!r}")
        moved = [p for cycle in cycles for p in cycle]
        if len(set(moved)) != len(moved):
            raise ParseError(f"cycles are not disjoint in {text!r}")
        return cls.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch in permutation product")
        return Perm(_compose(self.images, other.images))

    def inverse(self) -> "Perm":
        return Perm(_invert(self.images))

    def __pow__(self, k: int) -> "Perm":
        n = self.degree
        if k < 0:
            return self.inverse() ** (-k)
        result = tuple(range(n))
        base = self.images
        while k:
            if k & 1:
                result = _compose(base, result)
            base = _compose(base, base)
            k >>= 1
        return Perm(result)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[list[int]]:
        """Nontrivial cycles, each starting at its least point, sorted by it."""
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.images[j]
            out.append(cycle)
        return out

    def order(self) -> int:
        return math.lcm(1, *(len(c) for c in self.cycles()))

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycle_string(self) -> str:
        """1-based disjoint-cycle rendering; identity renders as "()"."""
        cs = self.cycles()
        if not cs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cs)

    def __str__(self) -> str:
        return self.cycle_string()


def parse_generators(text: str, degree: int) -> list[Perm]:
    """Parse a newline-separated list of cycle-notation permutations."""
    perms = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        perms.append(Perm.parse(line, degree))
    return perms
