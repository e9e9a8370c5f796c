"""Structural invariants: derived series, simplicity, normal subgroups.

A group of order > 2 with an odd generator is refuted as simple by
parity alone: its even part is a proper nontrivial normal subgroup.
Otherwise exact paths run whenever the group order is below
``EXHAUSTIVE_BOUND`` (conjugacy classes and the normal lattice are found
by element enumeration).  Above the bound, randomized checks with a fixed
seed can still refute simplicity; anything they cannot settle is reported
as the honest tri-state "unknown" rather than guessed.
"""

from __future__ import annotations

import random
from typing import Literal, Optional, Sequence

from .chain import StabilizerChain
from .groups import EXHAUSTIVE_BOUND, SUBGROUP_LATTICE_BOUND, PermGroup
from .perms import Perm, _compose, _invert

TriState = Literal[True, False, "unknown"]

RANDOM_TRIALS = 64
_RANDOM_SEED = 0x5EED


def normal_closure(ambient: PermGroup, seeds: Sequence[Perm]) -> PermGroup:
    """Smallest normal subgroup of ``ambient`` containing ``seeds``."""
    degree = ambient.degree
    gens = [g.images for g in ambient.generators]
    chain = StabilizerChain(degree)
    closure_gens: list[tuple[int, ...]] = []
    queue: list[tuple[int, ...]] = []
    for s in seeds:
        if chain.add_generator(s.images):
            closure_gens.append(s.images)
            queue.append(s.images)
    while queue:
        x = queue.pop()
        for g in gens:
            y = _compose(_invert(g), _compose(x, g))
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


def conjugacy_class_representatives(
    group: PermGroup, bound: int = EXHAUSTIVE_BOUND
) -> Optional[list[Perm]]:
    """One representative per conjugacy class, or None above the bound.

    Classes are found by BFS under generator conjugation over the full
    element list, so this is exact but requires |G| <= bound.
    """
    if group.order() > bound:
        return None
    degree = group.degree
    gens = [g.images for g in group.generators]
    all_elems = sorted(bytes(t) for t in group.chain.elements(limit=bound))
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
            for g in gens:
                y = _compose(_invert(g), _compose(x, g))
                yk = bytes(y)
                if yk not in classified:
                    classified.add(yk)
                    frontier.append(y)
    return reps


def is_simple(
    group: PermGroup,
    bound: int = EXHAUSTIVE_BOUND,
    trials: int = RANDOM_TRIALS,
) -> TriState:
    """Tri-state simplicity test.

    A group of order > 2 with an odd generator is not simple: its
    intersection with the alternating group has index 2.  Otherwise exact
    for |G| <= bound: the normal closure of every nontrivial
    conjugacy-class representative must be the whole group.  Above the
    bound, ``trials`` random elements (fixed seed) can refute simplicity
    via a proper closure; if none does, the honest answer is "unknown".
    The result is cached on the group for the default bound.
    """
    if group._simple is not None and bound == EXHAUSTIVE_BOUND:
        return group._simple
    result = _is_simple_uncached(group, bound, trials)
    if bound == EXHAUSTIVE_BOUND:
        group._simple = result
    return result


def _is_simple_uncached(group: PermGroup, bound: int, trials: int) -> TriState:
    order = group.order()
    if order == 1:
        return False
    if order > 2 and group.even_part is not group:
        return False
    if order <= bound:
        reps = conjugacy_class_representatives(group, bound)
        assert reps is not None
        for rep in reps:
            if rep.is_identity():
                continue
            closure = normal_closure(group, [rep])
            if closure.order() != order:
                return False
        return True
    rng = random.Random(_RANDOM_SEED)
    for _ in range(trials):
        x = group.random_element(rng)
        if x.is_identity():
            continue
        closure = normal_closure(group, [x])
        if closure.order() != order:
            return False
    return "unknown"


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


def _normal_subgroup_orders(group: PermGroup, bound: int) -> Optional[list[int]]:
    """Orders of all proper nontrivial normal subgroups, or None above bound.

    Every normal subgroup is a join of normal closures of class
    representatives, so closing that atom set under joins enumerates the
    normal lattice.
    """
    reps = conjugacy_class_representatives(group, bound)
    if reps is None:
        return None
    order = group.order()
    atoms: list[PermGroup] = []
    for rep in reps:
        if rep.is_identity():
            continue
        closure = normal_closure(group, [rep])
        if closure.order() < order:
            atoms.append(closure)
    # close under pairwise joins
    subgroups: list[PermGroup] = []
    keys: set[frozenset[bytes]] = set()

    def key_of(h: PermGroup) -> frozenset[bytes]:
        return frozenset(bytes(t) for t in h.chain.elements(limit=bound))

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


def has_normal_subgroup_of_index_dividing(
    group: PermGroup, g: int, bound: int = EXHAUSTIVE_BOUND
) -> TriState:
    """Tri-state: does a proper normal subgroup of index dividing g exist?

    Index 1 (the group itself) never counts.  Simplicity shortcuts apply
    first; the exact path enumerates the normal-subgroup lattice.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    order = group.order()
    if order == 1 or g == 1:
        return False
    if order > bound:
        # neither the exact lattice nor an affirmative simplicity answer is
        # reachable up there
        return "unknown"
    simple = is_simple(group, bound)
    if simple is True:
        # only proper normal subgroup is trivial, of index |G|
        return order <= g and g % order == 0
    orders = _normal_subgroup_orders(group, bound)
    if orders is not None:
        for h_order in orders:
            index = order // h_order
            if index > 1 and g % index == 0:
                return True
        return False
    # the lattice is out of reach
    return "unknown"
