"""Bounded search for proper subgroups of small index.

A subgroup of index r exists iff there is a homomorphism onto a transitive
subgroup of Sym(r).  Candidate homomorphisms are enumerated by assigning
images to the generators; an assignment extends to a homomorphism iff the
diagonal subgroup of G x Sym(r) it generates has order |G|, which the
product-action stabilizer chain checks without needing a presentation.

Strategy ladder per index r:
  1. Lagrange: r must divide |G|.
  2. Normal-subgroup descent.  N = G ∩ A_n is normal in G with |G/N| <= 2
     (N = G when every generator is even).  If N is simple and |N| does
     not divide r!, N has no proper subgroup of index <= r, so an index-r
     subgroup H contains N (H ∩ N has index <= r in N) and exists iff
     r = |G/N|; for r = 2 its certificate is N's generators.  N = A_n is
     read off the order |G| = n! (n >= 5); any other N is asked of
     ``is_simple``, the one simplicity policy (exact up to EXHAUSTIVE_BOUND,
     "unknown" above it).
  3. Backtracking over generator images in Sym(r), the first image taken
     up to conjugacy (one representative per cycle type).  At most
     BACKTRACK_MAX_ASSIGNMENTS assignments are tried per index; past that
     budget the index is "unknown" (a resource bound, like EXHAUSTIVE_BOUND).
  4. Exhaustive subgroup lattice for |G| <= SUBGROUP_LATTICE_BOUND.
Anything the ladder cannot settle is reported with method "unknown".
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Literal, Optional, Union

from ..arith import partitions, prime_power, symmetric_class_size
from .chain import StabilizerChain, closure_elements
from .groups import SUBGROUP_LATTICE_BOUND, PermGroup, _is_transitive
from .perms import Perm
from .structure import TriState, is_simple

#: r above this is out of reach for the backtrack (Sym(r)^k blow-up).
BACKTRACK_MAX_INDEX = 8

#: Generator-image assignments the backtrack may try per index; each that
#: passes the transitivity filter costs a chain build on n + r points.
#: Past it the index is answered "unknown".
BACKTRACK_MAX_ASSIGNMENTS = 1000

SearchMethod = Literal["lagrange-shortcut", "action-backtrack", "exhaustive", "unknown"]


@lru_cache(maxsize=256)
def _perms_of_order_dividing(r: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The permutations of range(r) whose order divides d, in lexicographic
    order.  Each is built cycle by cycle, of lengths dividing d, the next
    cycle through the least point not yet placed, so each appears once."""
    lengths = [k for k in range(1, r + 1) if d % k == 0]
    images, out = list(range(r)), []

    def place(free: list[int]) -> None:
        if not free:
            out.append(tuple(images))
            return
        for k in lengths:
            for rest in itertools.permutations(free[1:], k - 1):
                cycle = (free[0], *rest)
                for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                    images[x] = y
                place([x for x in free[1:] if x not in rest])

    place(list(range(r)))
    return tuple(sorted(out))


def _count_of_order_dividing(r: int, d: int) -> int:
    """Number of permutations of Sym(r) whose order divides d."""
    return sum(symmetric_class_size(t) for t in partitions(r) if d % math.lcm(*t) == 0)


def _cycle_type_representatives(r: int, d: int) -> list[tuple[int, ...]]:
    """One permutation per cycle type of Sym(r) whose order divides d."""
    reps = []
    for partition in partitions(r):
        if d % math.lcm(*partition) != 0:
            continue
        images = list(range(r))
        start = 0
        for length in partition:
            for i in range(length):
                images[start + i] = start + (i + 1) % length
            start += length
        reps.append(tuple(images))
    return reps


def _homomorphism_search(
    group: PermGroup, r: int
) -> Union[tuple[Perm, ...], None, Literal["unknown"]]:
    """Find a transitive homomorphism image in Sym(r); return subgroup gens.

    Returns generators of the index-r preimage subgroup, None when no
    homomorphism with transitive image exists, or "unknown" once
    BACKTRACK_MAX_ASSIGNMENTS assignments have been tried without a hit.
    """
    n = group.degree
    order = group.order()
    gens = [g.images for g in group.generators]
    if not gens:
        return None
    gen_orders = [Perm(g).order() for g in gens]
    # conjugacy reduction is available for exactly one generator image;
    # spend it on the one with the largest raw choice set, counted by class sizes
    pivot = max(range(len(gens)), key=lambda i: _count_of_order_dividing(r, gen_orders[i]))
    choice_lists = [
        _cycle_type_representatives(r, d) if i == pivot else _perms_of_order_dividing(r, d)
        for i, d in enumerate(gen_orders)
    ]

    for tried, assignment in enumerate(itertools.product(*choice_lists)):
        if tried == BACKTRACK_MAX_ASSIGNMENTS:
            return "unknown"
        if all(Perm(h).is_identity() for h in assignment):
            continue
        if not _is_transitive(r, assignment):
            continue
        # product action on n + r points: candidate map extends to a
        # homomorphism iff the diagonal group projects bijectively onto G
        product_gens = [
            g + tuple(n + i for i in h) for g, h in zip(gens, assignment)
        ]
        chain = StabilizerChain.build(
            n + r, product_gens, base_order=[n] + [p for p in range(n + r) if p != n]
        )
        if chain.order() != order:
            continue
        # stabilizer of action-point 0 (= point n in the product), projected
        sub_gens = []
        for t in chain.level_generators(1):
            sub_gens.append(Perm(t[:n]))
        return tuple(sub_gens)
    return None


def _lattice_has_index(group: PermGroup, r: int) -> Optional[tuple[Perm, ...]]:
    """Exhaustive subgroup-lattice search for an index-r subgroup.

    Builds all subgroups bottom-up from cyclic ones by single-element
    extensions.  Only viable for small groups.
    """
    order = group.order()
    target = order // r
    degree = group.degree
    elements = sorted(
        closure_elements(degree, [g.images for g in group.generators])
    )
    perms = [tuple(b) for b in elements]
    seen: set[frozenset[bytes]] = set()

    def consider(gens: tuple[tuple[int, ...], ...]) -> Optional[frozenset[bytes]]:
        elems = closure_elements(degree, gens, limit=target + 1)
        if elems is None or len(elems) > target:
            return None
        key = frozenset(elems)
        if key in seen:
            return None
        seen.add(key)
        return key

    work: list[tuple[frozenset[bytes], tuple[tuple[int, ...], ...]]] = []
    for p in perms:
        key = consider((p,))
        if key is not None:
            work.append((key, (p,)))
    while work:
        key, gens = work.pop()
        if len(key) == target:
            return tuple(Perm(g) for g in gens)
        if target % len(key) != 0:
            continue
        for p in perms:
            if bytes(p) in key:
                continue
            new_gens = gens + (p,)
            new_key = consider(new_gens)
            if new_key is not None:
                work.append((new_key, new_gens))
    return None


def _descent_applies(group: PermGroup, r: int) -> bool:
    """Whether N = G ∩ A_n is simple with |N| not dividing r!.

    A simple N acts faithfully on the cosets of any proper subgroup of
    index m <= r, so |N| would divide m! and hence r!.  Neither |N| nor the
    simplicity of N = A_n needs a chain of N.
    """
    order = group.order()
    even = group.even_part
    if math.factorial(r) % (order if even is group else order // 2) == 0:
        return False
    if even is not group and group.degree >= 5 and order == math.factorial(group.degree):
        return True  # N = A_n
    return is_simple(even) is True


def has_proper_subgroup_of_index(
    group: PermGroup, r: int
) -> tuple[TriState, Optional[tuple[Perm, ...]], SearchMethod]:
    """Decide existence of a proper subgroup of index exactly r."""
    if r < 2:
        raise ValueError("index must be >= 2")
    order = group.order()
    if order % r != 0:
        return False, None, "lagrange-shortcut"
    if _descent_applies(group, r):
        # every index-r subgroup contains N, so r = |G/N| = 2 or none exists
        if r == 2 and group.even_part is not group:
            return True, group.even_part.generators, "lagrange-shortcut"
        return False, None, "lagrange-shortcut"
    if r <= BACKTRACK_MAX_INDEX:
        cert = _homomorphism_search(group, r)
        if cert == "unknown":
            return "unknown", None, "unknown"
        return cert is not None, cert, "action-backtrack"
    if order <= SUBGROUP_LATTICE_BOUND:
        cert = _lattice_has_index(group, r)
        return cert is not None, cert, "exhaustive"
    return "unknown", None, "unknown"


def psl2_subgroup_criterion(q: int) -> bool:
    """No proper subgroup of PSL(2, q) has index dividing (q - 1) / 2.

    Verifies the arithmetic behind that statement for odd prime powers
    q >= 5: for q < 11 a simple nonabelian group of order (q+1)q(q-1)/2
    cannot act faithfully on (q-1)/2 < 5 points; for q >= 11 the subgroup
    order catalogue (Suzuki's classification of PSL(2,q) subgroups) leaves
    only two cases, (q+1)q | 60 or (q+1)^2 q <= (q-1)^2, both impossible.
    """
    if q < 5:
        raise ValueError("q must be >= 5")
    if q % 2 == 0:
        raise ValueError("q must be odd")
    if prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    order = (q + 1) * q * (q - 1) // 2
    half = (q - 1) // 2
    if q < 11:
        # faithful action on r <= half <= 4 points needs |G| | r!
        return all(math.factorial(r) % order != 0 for r in range(2, half + 1))
    case1 = 60 % ((q + 1) * q) == 0
    case2 = (q + 1) * (q + 1) * q <= (q - 1) * (q - 1)
    return not case1 and not case2

