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
regular actions).  Each level stores u^-1 beside every transversal
representative u, inverted once when u is added, so a sift step and a
Schreier generator u_{g delta}^-1 g u_delta are one pass over an image
tuple (Seress, *Permutation Group Algorithms*, 4.2).  Each level also keeps
the ids of its group's strong generators, appended as they are installed,
and a closure mark: the number of those ids its orbit was last closed
under, so a level that got no new generator is neither re-walked nor
rescanned for Schreier pairs.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

from .perms import _compose, _invert


class _Level:
    __slots__ = ("point", "gen_ids", "closed", "transversal", "inverse", "orbit", "done", "paired")

    def __init__(self, point: int, ident: tuple[int, ...]):
        self.point = point
        # ids in _strong of the strong generators homed here or deeper
        self.gen_ids: list[int] = []
        self.closed = 0  # len(gen_ids) when the orbit was last closed
        self.transversal: dict[int, tuple[int, ...]] = {point: ident}
        self.inverse: dict[int, tuple[int, ...]] = {point: ident}
        self.orbit: list[int] = [point]
        # done[pos]: how many leading gen_ids have sifted their Schreier pair
        # at orbit position pos (pairs run in gen_ids order and ids are only
        # appended, so the done ids are a prefix); paired is the sum
        self.done: list[int] = []
        self.paired = 0


class StabilizerChain:
    """Stabilizer chain with strong generating set for a permutation group."""

    def __init__(self, degree: int, base_order: Optional[Sequence[int]] = None):
        self.degree = degree
        self.base_order = (
            tuple(base_order) if base_order is not None else tuple(range(degree))
        )
        if sorted(self.base_order) != list(range(degree)):
            raise ValueError("base_order must be a permutation of the points")
        self.identity = tuple(range(degree))
        self.levels = [_Level(p, self.identity) for p in self.base_order]
        # global registry of strong generators: (perm, home level index)
        self._strong: list[tuple[tuple[int, ...], int]] = []
        self._read_only = False

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
        if self._read_only:
            raise ValueError("a first-point-stabilizer chain cannot be extended")
        if len(g) != self.degree:
            raise ValueError("degree mismatch among generators")
        residue, idx = self._sift(tuple(g), 0)
        if residue == self.identity:
            return False
        self._install(residue, idx)
        self._process_pending()
        return True

    def _install(self, residue: tuple[int, ...], idx: int) -> None:
        k = len(self._strong)
        self._strong.append((residue, idx))
        for level in self.levels[: idx + 1]:
            level.gen_ids.append(k)

    def _sift(self, g: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
        """Divide g by transversal reps; return (residue, stop level index)."""
        for idx in range(start, len(self.levels)):
            level = self.levels[idx]
            im = g[level.point]
            if im == level.point:
                continue
            inv = level.inverse.get(im)
            if inv is None:
                return g, idx
            g = tuple([inv[x] for x in g])
        return g, len(self.levels)

    def _extend_orbit(self, idx: int) -> None:
        """Grow level idx's orbit/transversal under the current generator set."""
        level = self.levels[idx]
        if level.closed == len(level.gen_ids):
            return
        gens = [self._strong[k][0] for k in level.gen_ids]
        transversal = level.transversal
        frontier = 0
        while frontier < len(level.orbit):
            delta = level.orbit[frontier]
            rep = transversal[delta]
            for g in gens:
                gamma = g[delta]
                if gamma not in transversal:
                    transversal[gamma] = u = _compose(g, rep)
                    level.inverse[gamma] = _invert(u)
                    level.orbit.append(gamma)
            frontier += 1
        level.closed = len(gens)

    def _process_pending(self) -> None:
        """Sift every unprocessed Schreier pair until the chain is stable.

        Deepest dirty level first; pairs that once sifted to the identity
        stay valid because transversal entries are never replaced.
        """
        while True:
            for idx in range(len(self.levels) - 1, -1, -1):
                self._extend_orbit(idx)
                level = self.levels[idx]
                if level.paired < len(level.orbit) * len(level.gen_ids):
                    break
            else:
                return
            # the orbit is closed under every id in gen_ids, so each g[delta]
            # has a representative
            done = level.done
            done += [0] * (len(level.orbit) - len(done))
            pending = ((pos, k) for pos, start in enumerate(done) for k in level.gen_ids[start:])
            for pos, k in pending:
                delta = level.orbit[pos]
                g = self._strong[k][0]
                rep = level.transversal[delta]
                inv_im = level.inverse[g[delta]]
                schreier = tuple([inv_im[g[x]] for x in rep])
                done[pos] += 1
                level.paired += 1
                if schreier == self.identity:
                    continue
                residue, stop = self._sift(schreier, idx + 1)
                if residue != self.identity:
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
        return residue == self.identity

    def level_generators(self, idx: int) -> list[tuple[int, ...]]:
        """Strong generators of the idx-th group in the chain."""
        return [g for g, home in self._strong if home >= idx]

    def first_point_stabilizer(self) -> "StabilizerChain":
        """Chain of the stabilizer of the first base point, read-only.

        It shares this chain's levels from 1 on, and its first level is
        trivial, so it costs no sifting.  Neither chain may be extended
        afterwards: the shared levels' generator ids index this chain's
        ``_strong``, so the sub-chain's ``add_generator`` raises ValueError.
        """
        sub = StabilizerChain(self.degree, self.base_order)
        sub.levels[1:] = self.levels[1:]
        sub._strong = [(g, home) for g, home in self._strong if home >= 1]
        sub._read_only = True
        return sub

    def elements(self) -> Iterator[tuple[int, ...]]:
        """Iterate all elements via the transversal product."""
        active = [lv for lv in self.levels if len(lv.orbit) > 1]

        def rec(i: int, suffix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if i < 0:
                yield suffix
                return
            for pt in active[i].orbit:
                yield from rec(i - 1, _compose(active[i].transversal[pt], suffix))

        yield from rec(len(active) - 1, self.identity)


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
