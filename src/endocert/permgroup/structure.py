"""Structural invariants: derived series, simplicity, normal subgroups.

A group of order > 2 with an odd generator is refuted as simple by
parity alone: its even part is a proper nontrivial normal subgroup.
Otherwise exact paths run whenever the group order is at most
``EXHAUSTIVE_BOUND`` (conjugacy classes and the normal lattice are found
by element enumeration).  Above the bound the answer is the honest
tri-state "unknown" rather than a guess.
"""

from __future__ import annotations

from typing import Literal, Optional, Sequence

from .chain import StabilizerChain
from .groups import EXHAUSTIVE_BOUND, SUBGROUP_LATTICE_BOUND, PermGroup
from .perms import Perm, _compose, _invert

TriState = Literal[True, False, "unknown"]


def _conjugators(group: PermGroup) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each generator's images with those of its inverse, inverted once."""
    return [(g.images, _invert(g.images)) for g in group.generators]


def normal_closure(ambient: PermGroup, seeds: Sequence[Perm]) -> PermGroup:
    """Smallest normal subgroup of ``ambient`` containing ``seeds``."""
    degree = ambient.degree
    conjugators = _conjugators(ambient)
    chain = StabilizerChain(degree)
    closure_gens: list[tuple[int, ...]] = []
    queue: list[tuple[int, ...]] = []
    for s in seeds:
        if chain.add_generator(s.images):
            closure_gens.append(s.images)
            queue.append(s.images)
    while queue:
        x = queue.pop()
        for g, ginv in conjugators:
            y = _compose(ginv, _compose(x, g))
            if not chain.contains(y):
                chain.add_generator(y)
                closure_gens.append(y)
                queue.append(y)
    return PermGroup(degree, [Perm(t) for t in closure_gens])


def commutator_subgroup(group: PermGroup) -> PermGroup:
    """Derived subgroup: normal closure of the generator commutators."""
    gens = group.generators
    commutators = []
    for a in gens:
        ainv = a.inverse()
        for b in gens:
            c = ainv * b.inverse() * a * b
            if not c.is_identity():
                commutators.append(c)
    return normal_closure(group, commutators)


def derived_series(group: PermGroup) -> list[PermGroup]:
    """G >= [G,G] >= ... down to stabilization."""
    series = [group]
    while True:
        nxt = commutator_subgroup(series[-1])
        if nxt.order() == series[-1].order():
            break
        series.append(nxt)
        if nxt.is_trivial():
            break
    return series


def is_perfect(group: PermGroup) -> bool:
    return commutator_subgroup(group).order() == group.order()


def is_solvable(group: PermGroup) -> bool:
    return derived_series(group)[-1].order() == 1


def conjugacy_class_representatives(group: PermGroup) -> Optional[list[Perm]]:
    """One representative per conjugacy class, or None above the bound.

    Classes are found by BFS under generator conjugation over the full
    element list, so this is exact but requires |G| <= EXHAUSTIVE_BOUND.
    """
    if group.order() > EXHAUSTIVE_BOUND:
        return None
    conjugators = _conjugators(group)
    all_elems = sorted(bytes(t) for t in group.chain.elements(limit=EXHAUSTIVE_BOUND))
    classified: set[bytes] = set()
    reps = []
    for key in all_elems:
        if key in classified:
            continue
        rep = tuple(key)
        reps.append(Perm(rep))
        frontier = [rep]
        classified.add(key)
        while frontier:
            x = frontier.pop()
            for g, ginv in conjugators:
                y = _compose(ginv, _compose(x, g))
                yk = bytes(y)
                if yk not in classified:
                    classified.add(yk)
                    frontier.append(y)
    return reps


def is_simple(group: PermGroup) -> TriState:
    """Tri-state simplicity test.

    A group of order > 2 with an odd generator is not simple: its
    intersection with the alternating group has index 2.  Otherwise exact
    for |G| <= EXHAUSTIVE_BOUND: the normal closure of every nontrivial
    conjugacy-class representative must be the whole group.  Above the
    bound the answer is "unknown".  The result is cached on the group.
    """
    if group._simple is None:
        group._simple = _is_simple_uncached(group)
    return group._simple


def _is_simple_uncached(group: PermGroup) -> TriState:
    order = group.order()
    if order == 1:
        return False
    if order > 2 and group.even_part is not group:
        return False
    if order > EXHAUSTIVE_BOUND:
        return "unknown"
    return all(
        normal_closure(group, [rep]).order() == order
        for rep in conjugacy_class_representatives(group)
        if not rep.is_identity()
    )


def simplicity_is_cheap(group: PermGroup) -> bool:
    """Whether ``is_simple(group)`` answers without a costly enumeration.

    True for small groups, for groups whose answer is already cached, and
    for groups the parity test refutes.  The one policy for callers that
    consult simplicity only as a shortcut.
    """
    return (
        group.order() <= SUBGROUP_LATTICE_BOUND
        or group._simple is not None
        or group.even_part is not group
    )


def _normal_subgroup_orders(group: PermGroup) -> list[int]:
    """Orders of all proper nontrivial normal subgroups; |G| <= EXHAUSTIVE_BOUND.

    Every normal subgroup is a join of normal closures of class
    representatives, so closing that atom set under joins enumerates the
    normal lattice.
    """
    order = group.order()
    atoms: list[PermGroup] = []
    for rep in conjugacy_class_representatives(group):
        if rep.is_identity():
            continue
        closure = normal_closure(group, [rep])
        if closure.order() < order:
            atoms.append(closure)
    # close under pairwise joins
    subgroups: list[PermGroup] = []
    keys: set[frozenset[bytes]] = set()

    def key_of(h: PermGroup) -> frozenset[bytes]:
        return frozenset(bytes(t) for t in h.chain.elements(limit=EXHAUSTIVE_BOUND))

    work = list(atoms)
    while work:
        h = work.pop()
        k = key_of(h)
        if k in keys:
            continue
        keys.add(k)
        subgroups.append(h)
        for other in list(subgroups):
            join = PermGroup(
                group.degree, list(h.generators) + list(other.generators)
            )
            if join.order() < order:
                jk = key_of(join)
                if jk not in keys:
                    work.append(join)
    return sorted(h.order() for h in subgroups)


def has_normal_subgroup_of_index_dividing(group: PermGroup, g: int) -> TriState:
    """Tri-state: does a proper normal subgroup of index dividing g exist?

    Index 1 (the group itself) never counts.  Simplicity shortcuts apply
    first; the exact path enumerates the normal-subgroup lattice, and
    above ``EXHAUSTIVE_BOUND`` the answer is "unknown".
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    order = group.order()
    if order == 1 or g == 1:
        return False
    if order > EXHAUSTIVE_BOUND:
        return "unknown"
    if is_simple(group) is True:
        # only proper normal subgroup is trivial, of index |G|
        return order <= g and g % order == 0
    return any(
        g % (order // h_order) == 0 for h_order in _normal_subgroup_orders(group)
    )
