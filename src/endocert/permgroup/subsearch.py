"""Bounded search for proper subgroups of small index.

A subgroup of index r exists iff there is a homomorphism onto a transitive
subgroup of Sym(r).  Candidate homomorphisms are enumerated by assigning
images to the generators; an assignment extends to a homomorphism iff the
diagonal subgroup of G x Sym(r) it generates has order |G|, which the
product-action stabilizer chain checks without needing a presentation.

Strategy ladder per index r (smallest r wins):
  1. Lagrange: r must divide |G|.
  2. Normal-subgroup descent.  N = G ∩ A_n is normal in G with |G/N| <= 2
     (N = G when every generator is even).  If N is simple and |N| does
     not divide r!, N has no proper subgroup of index <= r, so an index-r
     subgroup H contains N (H ∩ N has index <= r in N) and exists iff
     r = |G/N|; for r = 2 its certificate is N's generators.  N = A_n is
     read off the order |G| = n! (n >= 5); any other N is asked only when
     its simplicity is cheap, and N = G also when it is exact and the
     backtrack below would scan more than 5000 generator-image assignments.
  3. Backtracking over generator images in Sym(r), the first image taken
     up to conjugacy (one representative per cycle type).
  4. Exhaustive subgroup lattice for |G| <= SUBGROUP_LATTICE_BOUND.
Anything the ladder cannot settle is reported with method "unknown".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, Optional, Sequence

from ..arith import partitions, prime_power
from .chain import StabilizerChain, closure_elements
from .groups import EXHAUSTIVE_BOUND, SUBGROUP_LATTICE_BOUND, PermGroup
from .perms import Perm
from .structure import TriState, is_simple, simplicity_is_cheap

#: r above this is out of reach for the backtrack (Sym(r)^k blow-up).
BACKTRACK_MAX_INDEX = 8

SearchMethod = Literal["lagrange-shortcut", "action-backtrack", "exhaustive", "unknown"]


@dataclass
class SubgroupSearchReport:
    """Outcome of a bounded least-index subgroup search."""

    bound: int
    found_index: Optional[int] = None
    method: SearchMethod = "unknown"
    certificate: Optional[tuple[Perm, ...]] = None
    decided: bool = True
    notes: list[str] = field(default_factory=list)


@lru_cache(maxsize=256)
def _perms_of_order_dividing(r: int, d: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for p in itertools.permutations(range(r)):
        q = Perm(p)
        if d % q.order() == 0:
            out.append(p)
    return tuple(out)


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


def _is_transitive_on(r: int, perms: Sequence[tuple[int, ...]]) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        p = frontier.pop()
        for g in perms:
            q = g[p]
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen) == r


def _backtrack_is_cheap(group: PermGroup, r: int) -> bool:
    """Whether the backtrack scans at most 5000 generator-image assignments."""
    if r > BACKTRACK_MAX_INDEX or not group.generators:
        return False
    sizes = [
        len(_perms_of_order_dividing(r, g.order())) for g in group.generators
    ]
    pivot = max(range(len(sizes)), key=lambda i: sizes[i])
    sizes[pivot] = len(_cycle_type_representatives(r, group.generators[pivot].order()))
    return math.prod(sizes) <= 5000


def _homomorphism_search(group: PermGroup, r: int) -> Optional[tuple[Perm, ...]]:
    """Find a transitive homomorphism image in Sym(r); return subgroup gens.

    Returns generators of the index-r preimage subgroup, or None when no
    homomorphism with transitive image exists.
    """
    n = group.degree
    order = group.order()
    gens = [g.images for g in group.generators]
    if not gens:
        return None
    gen_orders = [Perm(g).order() for g in gens]
    # conjugacy reduction is available for exactly one generator image;
    # spend it on the one with the largest raw choice set
    full_choices = [_perms_of_order_dividing(r, d) for d in gen_orders]
    pivot = max(range(len(gens)), key=lambda i: len(full_choices[i]))
    choice_lists = list(full_choices)
    choice_lists[pivot] = _cycle_type_representatives(r, gen_orders[pivot])

    for assignment in itertools.product(*choice_lists):
        if all(Perm(h).is_identity() for h in assignment):
            continue
        if not _is_transitive_on(r, assignment):
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
    """Whether N = G ∩ A_n is known simple with |N| not dividing r!.

    Neither |N| nor the simplicity of N = A_n needs a chain of N.
    """
    order = group.order()
    even = group.even_part
    if math.factorial(r) % (order if even is group else order // 2) == 0:
        return False
    if even is not group:
        if group.degree >= 5 and order == math.factorial(group.degree):
            return True  # N = A_n
        return simplicity_is_cheap(even) and is_simple(even) is True
    # when simplicity is not cheap, a cheap backtrack beats an exact
    # simplicity check; above the exhaustive bound is_simple answers
    # "unknown", so the shortcut cannot apply there
    return (
        simplicity_is_cheap(group)
        or (order <= EXHAUSTIVE_BOUND and not _backtrack_is_cheap(group, r))
    ) and is_simple(group) is True


def has_proper_subgroup_of_index(
    group: PermGroup, r: int, shortcut: bool = True
) -> tuple[TriState, Optional[tuple[Perm, ...]], SearchMethod]:
    """Decide existence of a proper subgroup of index exactly r.

    ``shortcut=False`` skips the descent rule (step 2) so the
    backtrack can serve as an independent oracle for it.
    """
    if r < 2:
        raise ValueError("index must be >= 2")
    order = group.order()
    if order % r != 0:
        return False, None, "lagrange-shortcut"
    if shortcut and _descent_applies(group, r):
        # every index-r subgroup contains N, so r = |G/N| = 2 or none exists
        if r == 2 and group.even_part is not group:
            return True, group.even_part.generators, "lagrange-shortcut"
        return False, None, "lagrange-shortcut"
    if r <= BACKTRACK_MAX_INDEX:
        cert = _homomorphism_search(group, r)
        return cert is not None, cert, "action-backtrack"
    if order <= SUBGROUP_LATTICE_BOUND:
        cert = _lattice_has_index(group, r)
        return cert is not None, cert, "exhaustive"
    return "unknown", None, "unknown"


def min_proper_subgroup_index(group: PermGroup, bound: int) -> SubgroupSearchReport:
    """Least index r with 1 < r <= bound of a proper subgroup, if any.

    Scans r ascending, so the smallest index wins regardless of which
    method decides each r; results are deterministic.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    report = SubgroupSearchReport(bound=bound)
    best_method: SearchMethod = "lagrange-shortcut"
    for r in range(2, bound + 1):
        answer, cert, method = has_proper_subgroup_of_index(group, r)
        if method == "action-backtrack" and best_method == "lagrange-shortcut":
            best_method = "action-backtrack"
        elif method == "exhaustive":
            best_method = "exhaustive"
        if answer is True:
            report.found_index = r
            report.method = method
            report.certificate = cert
            return report
        if answer == "unknown":
            report.decided = False
            report.method = "unknown"
            report.notes.append(f"index {r} undecided: resource bound exceeded")
            return report
    report.method = best_method
    return report


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

