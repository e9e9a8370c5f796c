"""Permutation groups backed by a lazily built stabilizer chain."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Sequence

from .chain import StabilizerChain
from .perms import Perm

#: Exhaustive-method cutoff for element enumeration (conjugacy classes,
#: normal-subgroup lattices).  Beyond it the structure code answers an
#: honest "unknown".
EXHAUSTIVE_BOUND = 10**6

#: Cutoff for full subgroup-lattice searches.
SUBGROUP_LATTICE_BOUND = 10**4


class PermGroup:
    """A permutation group of fixed degree given by generators.

    Immutable after construction; the stabilizer chain and order are
    computed on first use and cached, and ``_simple`` caches the
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

    @cached_property
    def even_part(self) -> "PermGroup":
        """G ∩ A_n, the kernel of the sign map; the group itself when every
        generator is even.

        Generated by the Schreier generators of the transversal {1, t}, t
        the first odd generator: s and t s t^-1 for even s, s t^-1 and t s
        for odd s.
        """
        odd = [g for g in self.generators if not g.is_even()]
        if not odd:
            return self
        t = odd[0]
        tinv = t.inverse()
        gens: list[Perm] = []
        for s in self.generators:
            gens += [s, t * s * tinv] if s.is_even() else [s * tinv, t * s]
        return PermGroup(self.degree, gens)

    def point_stabilizer(self) -> "PermGroup":
        """Stabilizer of point 0, read off the group's own chain."""
        return PermGroup(self.degree, [Perm(t) for t in self.chain.level_generators(1)])

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
