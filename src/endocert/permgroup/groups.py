"""Permutation groups: S_n and A_n recognised by Jordan's theorem, every
other group answered by a lazily built stabilizer chain."""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Literal, Optional, Sequence

from ..arith import is_prime
from .chain import StabilizerChain
from .perms import Perm, _compose, _cycle_type

#: Exhaustive-method cutoff for element enumeration (conjugacy classes,
#: normal-subgroup lattices).  Beyond it the structure code answers an
#: honest "unknown".
EXHAUSTIVE_BOUND = 10**6

#: Cutoff for full subgroup-lattice searches.
SUBGROUP_LATTICE_BOUND = 10**4


def _is_transitive(degree: int, perms: Sequence[Sequence[int]]) -> bool:
    """Whether the orbit of point 0 under the image tuples is every point."""
    seen = {0}
    frontier = [0]
    while frontier:
        p = frontier.pop()
        for g in perms:
            q = g[p]
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen) == degree


def _has_jordan_witness(perms: Sequence[Sequence[int]], n: int) -> bool:
    """Whether a generator, or a product of two, has a p-cycle as a power
    with p = 2, 3 or a prime p <= n - 3.

    An element whose cycle type has exactly one cycle of prime length p,
    every other length prime to p, has a p-cycle as a power.  Products
    a*b and b*a are conjugate, so one order per pair is enough.
    """
    pairs = itertools.combinations(perms, 2)
    for g in itertools.chain(perms, (_compose(a, b) for a, b in pairs)):
        lengths = _cycle_type(g)
        for p in set(lengths):
            if (
                p <= max(3, n - 3)
                and is_prime(p)
                and lengths.count(p) == 1
                and all(k % p for k in lengths if k != p)
            ):
                return True
    return False


def _is_primitive(degree: int, perms: Sequence[Sequence[int]]) -> bool:
    """Atkinson's minimal-block test for a transitive group.

    For each b != 0, the union-find closure of {0, b} under the generators
    is the least block holding both; the group is primitive iff every such
    block is all the points.  Each merge of two classes is queued as a pair
    and its images merged in turn, so the final partition is invariant.
    """
    for b in range(1, degree):
        parent = list(range(degree))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        parent[b] = 0
        classes = degree - 1
        queue = [(0, b)]
        while queue:
            x, y = queue.pop()
            for g in perms:
                u, v = find(g[x]), find(g[y])
                if u != v:
                    parent[v] = u
                    classes -= 1
                    queue.append((u, v))
        if classes > 1:
            return False
    return True


class PermGroup:
    """A permutation group of fixed degree given by generators.

    Immutable after construction; the giant test, the stabilizer chain and
    the order are computed on first use and cached, and ``_simple`` caches
    the answer of ``structure.is_simple`` (None until it is asked).  The
    order and transitivity degree of S_n and A_n come from ``giant``
    without a chain; every other group reads them off its chain.  Instances
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

    # -- order and transitivity: the giant test, then the chain ---------------

    @cached_property
    def giant(self) -> Optional[Literal["symmetric", "alternating"]]:
        """"symmetric" or "alternating" when the group is S_n or A_n and
        Jordan's theorem shows it, else None.

        A primitive group containing a p-cycle contains A_n, for p = 2 or 3
        at any degree and for a prime p <= n - 3 (Jordan; Wielandt, Finite
        Permutation Groups, Thm 13.9; Dixon-Mortimer §3.3).  The cheap steps
        run first: transitivity, then a p-cycle power among the generators
        and their pairwise products, and only then primitivity.  The group
        is S_n iff a generator is odd.  A giant without such a witness in
        its generating set gets None, and the chain answers for it.
        """
        n = self.degree
        images = [g.images for g in self.generators]
        if n < 3 or not _is_transitive(n, images):
            return None
        if not _has_jordan_witness(images, n) or not _is_primitive(n, images):
            return None
        return "alternating" if all(g.is_even() for g in self.generators) else "symmetric"

    @cached_property
    def chain(self) -> StabilizerChain:
        return StabilizerChain.build(self.degree, [g.images for g in self.generators])

    def order(self) -> int:
        if self.giant is not None:
            full = math.factorial(self.degree)
            return full if self.giant == "symmetric" else full // 2
        return self.chain.order()

    def __contains__(self, g: Perm) -> bool:
        return g.degree == self.degree and self.chain.contains(g.images)

    def is_trivial(self) -> bool:
        return not self.generators

    def transitivity_degree(self) -> int:
        """Largest k such that the action is transitive on k-tuples.

        S_n is n-transitive and A_n is (n-2)-transitive.  Any other group
        reads it off the stabilizer chain: the group is k-transitive iff the
        first k basic orbits have sizes n, n-1, ..., n-k+1.  Returns 0 for
        an intransitive group.
        """
        n = self.degree
        if self.giant is not None:
            return n if self.giant == "symmetric" else n - 2
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
        """Stabilizer of point 0, read off the group's own chain, which it
        keeps from level 1 on as its ``chain``."""
        stabilizer = PermGroup(
            self.degree, [Perm(t) for t in self.chain.level_generators(1)]
        )
        stabilizer.chain = self.chain.first_point_stabilizer()
        return stabilizer

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
