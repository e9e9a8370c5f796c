"""Structural invariants: normal closures, derived series, simplicity.

Simplicity is decided in this order.  A group of order > 2 with an odd
generator is refuted by parity alone: its even part is a proper
nontrivial normal subgroup.  A_n (n >= 5) recognised by Jordan's theorem is
simple with no further work.  Above ``EXHAUSTIVE_BOUND`` the answer is the
honest tri-state "unknown" rather than a guess.  A 2-transitive group
without a possible regular socle is decided from the conjugacy classes of
its point stabilizer (Burnside's theorem).  Every other group is refuted by
a generator whose normal closure is proper, and failing that decided by the
conjugacy classes of the whole group.
"""

from __future__ import annotations

import math
from typing import Literal, Optional, Sequence

from ..arith import is_prime, prime_power
from .chain import StabilizerChain
from .groups import EXHAUSTIVE_BOUND, PermGroup
from .perms import Perm, _invert

TriState = Literal[True, False, "unknown"]


def _conjugators(group: PermGroup) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each generator's images with those of its inverse, inverted once."""
    return [(g.images, _invert(g.images)) for g in group.generators]


def normal_closure(ambient: PermGroup, seeds: Sequence[Perm]) -> PermGroup:
    """Smallest normal subgroup of ``ambient`` containing ``seeds``.

    The chain grown here is handed to the result as its ``chain``: it is
    the one ``PermGroup.chain`` would build, with the same generators added
    in the same order on the default base, so no caller builds it again.
    """
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
            y = tuple([ginv[x[j]] for j in g])
            if not chain.contains(y):
                chain.add_generator(y)
                closure_gens.append(y)
                queue.append(y)
    closure = PermGroup(degree, [Perm(t) for t in closure_gens])
    closure.chain = chain
    return closure


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
    all_elems = sorted(bytes(t) for t in group.chain.elements())
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
                y = tuple([ginv[x[j]] for j in g])
                yk = bytes(y)
                if yk not in classified:
                    classified.add(yk)
                    frontier.append(y)
    return reps


def is_simple(group: PermGroup) -> TriState:
    """Tri-state simplicity test, cached on the group.

    The checks run in this order:

    1. Parity: a group of order > 2 with an odd generator is not simple,
       since its intersection with the alternating group has index 2.
    2. Giants: A_n with n >= 5, recognised by ``PermGroup.giant``, is
       simple, at any degree and with no chain built.
    3. The bound: above ``EXHAUSTIVE_BOUND`` the answer is "unknown".
    4. The stabilizer rule, for a 2-transitive G that cannot have a
       regular socle (``_may_have_regular_socle``).  By Burnside's theorem
       (Dixon-Mortimer §4.1) a minimal normal subgroup M of G is then
       transitive and not regular, so M meets the stabilizer G_0 in a
       nontrivial normal subgroup of G_0.  That holds a class
       representative of G_0 of prime order, whose normal closure lies in
       M.  So G is simple exactly when each such representative has the
       whole of G as its normal closure.
    5. Generator closures, for every other group: a nontrivial generator
       whose normal closure is smaller than G refutes simplicity.
    6. Class enumeration, when no generator refutes: every
       conjugacy-class representative of G of prime order must have the
       whole group as its normal closure, since every nontrivial normal
       subgroup holds one.
    """
    if group._simple is None:
        group._simple = _is_simple_uncached(group)
    return group._simple


def _may_have_regular_socle(group: PermGroup) -> bool:
    """Whether a 2-transitive group may have a regular normal subgroup.

    Such a subgroup is elementary abelian of order n = p^d, and G then lies
    in AGL(d, p), so |G| divides p^d |GL(d, p)|.
    """
    pd = prime_power(group.degree)
    if pd is None:
        return False
    p, d = pd
    agl_order = p**d * math.prod(p**d - p**i for i in range(d))
    return agl_order % group.order() == 0


def _is_simple_uncached(group: PermGroup) -> TriState:
    order = group.order()
    if order == 1:
        return False
    if order > 2 and group.even_part is not group:
        return False
    if group.giant == "alternating" and group.degree >= 5:
        return True
    if order > EXHAUSTIVE_BOUND:
        return "unknown"
    if group.transitivity_degree() >= 2 and not _may_have_regular_socle(group):
        classes_of = group.point_stabilizer()
    elif any(normal_closure(group, [g]).order() < order
             for g in group.generators if not g.is_identity()):
        return False
    else:
        classes_of = group
    return all(
        normal_closure(group, [rep]).order() == order
        for rep in conjugacy_class_representatives(classes_of)
        if is_prime(rep.order())
    )
