"""Deterministic Schreier-Sims stabilizer chains.

Internally permutations are raw image tuples; the public ``PermGroup`` API
wraps them in :class:`~endocert.permgroup.perms.Perm`.  The chain carries
one level per point in ``base_order`` (default 0, 1, 2, ...), so every
strong generator homed at level i fixes the first i base points, the i-th
basic orbit is the orbit of base point i under the i-th stabilizer, and
k-transitivity is read directly off the leading orbit sizes.  Levels whose
orbit stays a singleton contribute factor 1 to the order and are skipped
during enumeration.

Construction is incremental: transversals are append-only and each
(orbit point, generator) Schreier pair is sifted exactly once, which keeps
the build cheap at the degrees this engine targets (<= 24 plus small
regular actions).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

from .perms import _compose, _invert


def _is_id(t: Sequence[int]) -> bool:
    return all(i == j for i, j in enumerate(t))


class _Level:
    __slots__ = ("point", "gens", "transversal", "orbit", "done_pairs")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[tuple[int, ...]] = []  # strong gens first homed here
        ident = tuple(range(degree))
        self.transversal: dict[int, tuple[int, ...]] = {point: ident}
        self.orbit: list[int] = [point]
        # (orbit position, global gen id) Schreier pairs already sifted
        self.done_pairs: set[tuple[int, int]] = set()


class StabilizerChain:
    """Stabilizer chain with strong generating set for a permutation group."""

    def __init__(self, degree: int, base_order: Optional[Sequence[int]] = None):
        self.degree = degree
        self.base_order = (
            tuple(base_order) if base_order is not None else tuple(range(degree))
        )
        if sorted(self.base_order) != list(range(degree)):
            raise ValueError("base_order must be a permutation of the points")
        self.levels = [_Level(p, degree) for p in self.base_order]
        # global registry of strong generators: (perm, home level index)
        self._strong: list[tuple[tuple[int, ...], int]] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        degree: int,
        generators: Iterable[Sequence[int]],
        base_order: Optional[Sequence[int]] = None,
    ) -> "StabilizerChain":
        chain = cls(degree, base_order)
        for g in generators:
            chain.add_generator(tuple(g))
        return chain

    def add_generator(self, g: tuple[int, ...]) -> bool:
        """Sift g into the chain; returns True if the group grew."""
        if len(g) != self.degree:
            raise ValueError("degree mismatch among generators")
        residue, idx = self._sift(tuple(g), 0)
        if _is_id(residue):
            return False
        self._install(residue, idx)
        self._process_pending()
        return True

    def _install(self, residue: tuple[int, ...], idx: int) -> None:
        self.levels[idx].gens.append(residue)
        self._strong.append((residue, idx))

    def _sift(self, g: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        """Divide g by transversal reps; return (residue, stop level index)."""
        for idx in range(start, len(self.levels)):
            level = self.levels[idx]
            im = g[level.point]
            if im == level.point:
                continue
            rep = level.transversal.get(im)
            if rep is None:
                return g, idx
            g = _compose(_invert(rep), g)
        return g, len(self.levels)

    def _level_gen_ids(self, idx: int) -> list[int]:
        return [k for k, (_, home) in enumerate(self._strong) if home >= idx]

    def _extend_orbit(self, idx: int) -> None:
        """Grow level idx's orbit/transversal under the current generator set."""
        level = self.levels[idx]
        gens = [self._strong[k][0] for k in self._level_gen_ids(idx)]
        if not gens:
            return
        frontier = 0
        while frontier < len(level.orbit):
            delta = level.orbit[frontier]
            rep = level.transversal[delta]
            for g in gens:
                gamma = g[delta]
                if gamma not in level.transversal:
                    level.transversal[gamma] = _compose(g, rep)
                    level.orbit.append(gamma)
            frontier += 1

    def _process_pending(self) -> None:
        """Sift every unprocessed Schreier pair until the chain is stable.

        Deepest dirty level first; pairs that once sifted to the identity
        stay valid because transversal entries are never replaced.
        """
        while True:
            dirty = None
            for idx in range(len(self.levels) - 1, -1, -1):
                self._extend_orbit(idx)
                level = self.levels[idx]
                gen_ids = self._level_gen_ids(idx)
                pending = [
                    (pos, k)
                    for pos in range(len(level.orbit))
                    for k in gen_ids
                    if (pos, k) not in level.done_pairs
                ]
                if pending:
                    dirty = (idx, pending)
                    break
            if dirty is None:
                return
            idx, pending = dirty
            level = self.levels[idx]
            for pos, k in pending:
                delta = level.orbit[pos]
                g = self._strong[k][0]
                rep = level.transversal[delta]
                rep_im = level.transversal.get(g[delta])
                if rep_im is None:
                    # orbit grew since `pending` was computed; retry next sweep
                    continue
                schreier = _compose(_invert(rep_im), _compose(g, rep))
                level.done_pairs.add((pos, k))
                if _is_id(schreier):
                    continue
                residue, stop = self._sift(schreier, idx + 1)
                if not _is_id(residue):
                    self._install(residue, stop)
                    break  # deeper levels dirty now; rescan

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        return math.prod(len(level.transversal) for level in self.levels)

    def basic_orbit_size(self, idx: int) -> int:
        if idx >= len(self.levels):
            return 1
        return len(self.levels[idx].orbit)

    def contains(self, g: Sequence[int]) -> bool:
        if len(g) != self.degree:
            return False
        residue, _ = self._sift(tuple(g), 0)
        return _is_id(residue)

    def level_generators(self, idx: int) -> list[tuple[int, ...]]:
        """Strong generators of the idx-th group in the chain."""
        return [g for g, home in self._strong if home >= idx]

    def first_point_stabilizer(self) -> "StabilizerChain":
        """Chain of the stabilizer of the first base point, read-only.

        It shares this chain's levels from 1 on, and its first level is
        trivial, so it costs no sifting; neither chain may be extended
        afterwards.
        """
        sub = StabilizerChain(self.degree, self.base_order)
        sub.levels[1:] = self.levels[1:]
        sub._strong = [(g, home) for g, home in self._strong if home >= 1]
        return sub

    def elements(self, limit: Optional[int] = None) -> Iterator[tuple[int, ...]]:
        """Iterate all elements via the transversal product; optional cap."""
        if limit is not None and self.order() > limit:
            raise ValueError(f"group order {self.order()} exceeds limit {limit}")
        active = [lv for lv in self.levels if len(lv.orbit) > 1]

        def rec(i: int, suffix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if i < 0:
                yield suffix
                return
            for pt in active[i].orbit:
                yield from rec(i - 1, _compose(active[i].transversal[pt], suffix))

        yield from rec(len(active) - 1, tuple(range(self.degree)))


def closure_elements(
    degree: int,
    generators: Sequence[Sequence[int]],
    limit: Optional[int] = None,
) -> Optional[set[bytes]]:
    """Brute-force closure of a generating set, elements encoded as bytes.

    Returns None if the closure would exceed ``limit`` elements.  Fully
    independent of the stabilizer chain; serves as an order oracle and
    powers small subgroup searches.
    """
    ident = bytes(range(degree))
    gens = [tuple(g) for g in generators]
    seen = {ident}
    queue = [tuple(range(degree))]
    while queue:
        x = queue.pop()
        for g in gens:
            y = _compose(g, x)
            key = bytes(y)
            if key not in seen:
                if limit is not None and len(seen) >= limit:
                    return None
                seen.add(key)
                queue.append(y)
    return seen
