"""Permutation groups backed by a lazily built stabilizer chain."""

from __future__ import annotations

import random
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .chain import StabilizerChain
from .perms import Perm

#: Exhaustive-method cutoff for element enumeration (conjugacy classes,
#: normal-subgroup lattices).  Beyond it the structure code falls back to
#: randomized checks and honest "unknown" answers.
EXHAUSTIVE_BOUND = 10**6

#: Cutoff for full subgroup-lattice searches.
SUBGROUP_LATTICE_BOUND = 10**4


class PermGroup:
    """A permutation group of fixed degree given by generators.

    Immutable after construction; the stabilizer chain, order and orbit
    data are computed on first use and cached, and ``_simple`` caches the
    answer of ``structure.is_simple`` (None until it is asked).  Instances
    are per call: the family constructors and the CLI build a new one each
    time, so these caches never outlive the analysis that filled them.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Perm],
        name: Optional[str] = None,
    ):
        gens = []
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(tuple(g))
            if g.degree != degree:
                raise ValueError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(gens)
        self.name = name
        self._simple = None

    @classmethod
    def from_cycle_strings(
        cls, degree: int, texts: Iterable[str], name: Optional[str] = None
    ) -> "PermGroup":
        return cls(degree, [Perm.parse(t, degree) for t in texts], name=name)

    def __repr__(self) -> str:
        label = self.name or f"degree-{self.degree} group"
        return f"<PermGroup {label} on {self.degree} points, {len(self.generators)} gens>"

    # -- chain-backed queries ------------------------------------------------

    @cached_property
    def chain(self) -> StabilizerChain:
        return StabilizerChain.build(self.degree, [g.images for g in self.generators])

    def order(self) -> int:
        return self.chain.order()

    def __contains__(self, g: Perm) -> bool:
        return g.degree == self.degree and self.chain.contains(g.images)

    def is_trivial(self) -> bool:
        return not self.generators

    def elements(self, limit: Optional[int] = EXHAUSTIVE_BOUND) -> Iterator[Perm]:
        for t in self.chain.elements(limit=limit):
            yield Perm(t)

    def random_element(self, rng: random.Random) -> Perm:
        return Perm(self.chain.random_element(rng))

    def orbits(self) -> list[list[int]]:
        """Orbit partition of the points, each orbit sorted, ordered by minimum."""
        seen: set[int] = set()
        out = []
        gens = [g.images for g in self.generators]
        for start in range(self.degree):
            if start in seen:
                continue
            orbit = [start]
            seen.add(start)
            frontier = [start]
            while frontier:
                p = frontier.pop()
                for g in gens:
                    q = g[p]
                    if q not in seen:
                        seen.add(q)
                        orbit.append(q)
                        frontier.append(q)
            out.append(sorted(orbit))
        return out

    def transitivity_degree(self) -> int:
        """Largest k such that the action is transitive on k-tuples.

        Read off the stabilizer chain: the group is k-transitive iff the
        first k basic orbits have sizes n, n-1, ..., n-k+1.  Returns 0 for
        an intransitive group.
        """
        n = self.degree
        k = 0
        for i in range(n):
            if self.chain.basic_orbit_size(i) == n - i:
                k += 1
            else:
                break
        return k

    # -- derived groups ------------------------------------------------------

    def point_stabilizer(self, point: int) -> "PermGroup":
        """Stabilizer of a point, as a group of the same degree."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range")
        order = [point] + [p for p in range(self.degree) if p != point]
        chain = StabilizerChain.build(
            self.degree, [g.images for g in self.generators], base_order=order
        )
        gens = [Perm(t) for t in chain.level_generators(1)]
        return PermGroup(self.degree, gens)

    def restriction(self, points: Sequence[int]) -> "PermGroup":
        """Restrict the action to an invariant point set, relabelled 0..k-1."""
        points = list(points)
        index = {p: i for i, p in enumerate(points)}
        gens = []
        for g in self.generators:
            images = [0] * len(points)
            for p in points:
                q = g(p)
                if q not in index:
                    raise ValueError(f"point set not invariant: {p} -> {q}")
                images[index[p]] = index[q]
            gens.append(Perm(tuple(images)))
        return PermGroup(len(points), gens, name=self.name)

    def conjugate(self, h: Perm) -> "PermGroup":
        """The conjugate group h G h^-1 (relabelling points by h)."""
        hinv = h.inverse()
        return PermGroup(
            self.degree, [h * g * hinv for g in self.generators], name=self.name
        )
