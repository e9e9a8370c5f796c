"""Constructors for the standard group families the engine works with.

Degrees follow the 0-based point convention.  The Mathieu generator sets
are the classical published ones; their orders and transitivity degrees
are pinned by tests against the sharp k-transitivity order identities
(e.g. |M12| = 12*11*10*9*8), so a transcription error cannot pass.
Every call builds a new group, so nothing one caller computes on it (its
chain, its simplicity answer) reaches another.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from ..arith import is_prime
from .chain import closure_elements
from .groups import PermGroup
from .perms import Perm

# Irreducible polynomials over F_p for the small prime-power fields the
# engine needs, coefficients ascending (constant first), monic.
_IRREDUCIBLE: dict[int, tuple[int, tuple[int, ...]]] = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (1, 0, 1)),
    16: (2, (1, 1, 0, 0, 1)),
    25: (5, (2, 0, 1)),
    27: (3, (1, 2, 0, 1)),
    49: (7, (1, 0, 1)),
}


class SmallField:
    """Arithmetic in GF(q) for prime q or the tabulated prime powers.

    Elements are integers 0..q-1; for extensions they encode polynomial
    coefficient vectors in base p.
    """

    def __init__(self, q: int):
        if q in _IRREDUCIBLE:
            self.p, poly = _IRREDUCIBLE[q]
            self.k = len(poly) - 1
            self._poly = poly
        elif is_prime(q):
            self.p, self.k, self._poly = q, 1, None
        else:
            raise ValueError(f"no field table entry for q = {q}")
        self.q = q

    def _to_vec(self, a: int) -> list[int]:
        vec = []
        for _ in range(self.k):
            vec.append(a % self.p)
            a //= self.p
        return vec

    def _from_vec(self, vec: Sequence[int]) -> int:
        a = 0
        for c in reversed(vec):
            a = a * self.p + (c % self.p)
        return a

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        va, vb = self._to_vec(a), self._to_vec(b)
        return self._from_vec([(x + y) % self.p for x, y in zip(va, vb)])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self._from_vec([(-x) % self.p for x in self._to_vec(a)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        va, vb = self._to_vec(a), self._to_vec(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(va):
            if x:
                for j, y in enumerate(vb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce modulo the defining polynomial
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (prod[i - self.k + j] - c * self._poly[j]) % self.p
        return self._from_vec(prod[: self.k])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        # q is tiny here; brute force keeps this table-free
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise ArithmeticError(f"no inverse for {a} in GF({self.q})")

    def elements(self) -> range:
        return range(self.q)

    def multiplicative_generator(self) -> int:
        target = self.q - 1
        for g in range(2, self.q):
            x, n = g, 1
            while x != 1:
                x = self.mul(x, g)
                n += 1
            if n == target:
                return g
        raise ArithmeticError("no primitive element found")


# -- classical families ------------------------------------------------------


def cyclic_group(n: int) -> PermGroup:
    return PermGroup(n, [Perm.from_cycles(n, [list(range(n))])], name=f"C{n}")


def dihedral_group(n: int) -> PermGroup:
    """Dihedral group of order 2n on n points."""
    rot = Perm.from_cycles(n, [list(range(n))])
    refl = Perm(tuple((-i) % n for i in range(n)))
    return PermGroup(n, [rot, refl], name=f"D{n}")


def symmetric_group(n: int) -> PermGroup:
    if n < 2:
        return PermGroup(max(n, 1), [], name=f"S{n}")
    gens = [Perm.from_cycles(n, [[0, 1]])]
    if n > 2:
        gens.append(Perm.from_cycles(n, [list(range(n))]))
    return PermGroup(n, gens, name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        return PermGroup(max(n, 1), [], name=f"A{n}")
    three_cycle = Perm.from_cycles(n, [[0, 1, 2]])
    if n % 2 == 1:
        big = Perm.from_cycles(n, [list(range(n))])
    else:
        big = Perm.from_cycles(n, [list(range(1, n))])
    return PermGroup(n, [three_cycle, big], name=f"A{n}")


def affine_group_of_prime(p: int, multiplier: int) -> PermGroup:
    """Subgroup of AGL(1, p): x -> x + 1 together with x -> m*x."""
    translate = Perm.from_cycles(p, [list(range(p))])
    scale = Perm(tuple((multiplier * i) % p for i in range(p)))
    return PermGroup(p, [translate, scale], name=f"AGL1({p}) subgroup")


def frobenius_group_20() -> PermGroup:
    g = affine_group_of_prime(5, 2)
    g.name = "F20"
    return g


def frobenius_group_21() -> PermGroup:
    g = affine_group_of_prime(7, 2)
    g.name = "F21"
    return g


def frobenius_group_42() -> PermGroup:
    g = affine_group_of_prime(7, 3)
    g.name = "F42"
    return g


def psl2(q: int) -> PermGroup:
    """PSL(2, q) acting on the projective line, infinity as point q.

    Generators: x -> x + 1 and x -> -1/x; for non-prime q these alone only
    reach the prime-field copy, so the square-scaling x -> g^2 x is added.
    """
    field = SmallField(q)
    n = q + 1
    inf = q
    translate = [0] * n
    for x in field.elements():
        translate[x] = field.add(x, 1)
    translate[inf] = inf
    w = [0] * n
    w[0] = inf
    w[inf] = 0
    for x in range(1, q):
        w[x] = field.neg(field.inv(x))
    gens = [Perm(tuple(translate)), Perm(tuple(w))]
    if field.k > 1:
        g2 = field.mul(field.multiplicative_generator(), field.multiplicative_generator())
        scale = [0] * n
        for x in field.elements():
            scale[x] = field.mul(g2, x)
        scale[inf] = inf
        gens.append(Perm(tuple(scale)))
    return PermGroup(n, gens, name=f"PSL(2,{q})")


# -- Mathieu groups (classical generator sets) -------------------------------


def mathieu_group(n: int) -> PermGroup:
    if n == 11:
        texts = [
            "(1 2 3 4 5 6 7 8 9 10 11)",
            "(3 7 11 8)(4 10 5 6)",
        ]
    elif n == 12:
        texts = [
            "(1 2 3 4 5 6 7 8 9 10 11)",
            "(3 7 11 8)(4 10 5 6)",
            "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)",
        ]
    elif n == 22:
        texts = [
            "(1 2 3 4 5 6 7 8 9 10 11)(12 13 14 15 16 17 18 19 20 21 22)",
            "(1 4 5 9 3)(2 8 10 7 6)(12 15 16 20 14)(13 19 21 18 17)",
            "(1 21)(2 10 8 6)(3 13 4 17)(5 19 9 18)(11 22)(12 14 16 20)",
        ]
    elif n == 23:
        texts = [
            "(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23)",
            "(3 17 10 7 9)(5 4 13 14 19)(11 12 23 8 18)(21 16 15 20 22)",
        ]
    elif n == 24:
        texts = [
            "(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23)",
            "(3 17 10 7 9)(5 4 13 14 19)(11 12 23 8 18)(21 16 15 20 22)",
            "(1 24)(2 23)(3 12)(4 16)(5 18)(6 10)(7 20)(8 14)(9 21)(11 17)(13 22)(15 19)",
        ]
    else:
        raise ValueError(f"no Mathieu group of degree {n}")
    return PermGroup.from_cycle_strings(n, texts, name=f"M{n}")


MATHIEU_ORDERS = {
    11: 7920,
    12: 95040,
    22: 443520,
    23: 10200960,
    24: 244823040,
}


# -- coset-action constructions ----------------------------------------------


def _find_subgroup_of_order(
    group: PermGroup,
    target: int,
    first_order: int,
    second_order: int,
) -> Optional[list[tuple[int, ...]]]:
    """First 2-generated subgroup of the target order, deterministic scan.

    Scans pairs (x, y) with the given element orders in sorted element
    order; closure enumeration is cut off just above the target.
    """
    degree = group.degree
    elements = sorted(bytes(t) for t in group.chain.elements())
    perms = [tuple(b) for b in elements]
    firsts = [p for p in perms if Perm(p).order() == first_order]
    seconds = [p for p in perms if Perm(p).order() == second_order]
    for x in firsts:
        for y in seconds:
            elems = closure_elements(degree, [x, y], limit=target + 1)
            if elems is not None and len(elems) == target:
                return [x, y]
    return None


def coset_action(group: PermGroup, subgroup_gens: Sequence[Perm]) -> PermGroup:
    """Action of the group on the left cosets of the given subgroup.

    Cosets are labelled 0..r-1 in order of their minimal element (bytes
    order), so the construction is deterministic.
    """
    degree = group.degree
    sub = closure_elements(degree, [g.images for g in subgroup_gens])
    assert sub is not None
    all_elems = closure_elements(degree, [g.images for g in group.generators])
    assert all_elems is not None
    sub_tuples = [tuple(b) for b in sub]

    coset_of: dict[bytes, int] = {}
    coset_reps: list[tuple[int, ...]] = []
    for key in sorted(all_elems):
        if key in coset_of:
            continue
        g = tuple(key)
        idx = len(coset_reps)
        coset_reps.append(g)
        for h in sub_tuples:
            gh = tuple(g[i] for i in h)  # g o h
            coset_of[bytes(gh)] = idx
    r = len(coset_reps)
    action_gens = []
    for gen in group.generators:
        images = [0] * r
        for idx, rep in enumerate(coset_reps):
            moved = tuple(gen.images[i] for i in rep)  # gen o rep
            images[idx] = coset_of[bytes(moved)]
        action_gens.append(Perm(tuple(images)))
    return PermGroup(r, action_gens, name=group.name)


def psl2_11_on_11_points() -> PermGroup:
    """The exceptional 2-transitive degree-11 action of PSL(2, 11).

    Built as the coset action on an index-11 subgroup of order 60 of the
    natural degree-12 copy.
    """
    natural = psl2(11)
    gens = _find_subgroup_of_order(natural, 60, 2, 5)
    if gens is None:
        raise RuntimeError("no subgroup of order 60 found in PSL(2,11)")
    action = coset_action(natural, [Perm(g) for g in gens])
    action.name = "PSL(2,11) deg 11"
    return action


def a7_on_15_points() -> PermGroup:
    """The 2-transitive degree-15 action of A7.

    Coset action on an index-15 subgroup of order 168.
    """
    natural = alternating_group(7)
    gens = _find_subgroup_of_order(natural, 168, 7, 2)
    if gens is None:
        raise RuntimeError("no subgroup of order 168 found in A7")
    action = coset_action(natural, [Perm(g) for g in gens])
    action.name = "A7 deg 15"
    return action


def psl2_7_on_7_points() -> PermGroup:
    """The 2-transitive degree-7 action of PSL(2, 7) ~ PSL(3, 2).

    Coset action on an index-7 subgroup of order 24.
    """
    natural = psl2(7)
    gens = _find_subgroup_of_order(natural, 24, 4, 3)
    if gens is None:
        raise RuntimeError("no subgroup of order 24 found in PSL(2,7)")
    action = coset_action(natural, [Perm(g) for g in gens])
    action.name = "PSL(2,7) deg 7"
    return action


# -- regular actions of matrix groups ----------------------------------------


def gl2_regular(q: int) -> PermGroup:
    """GL(2, q) as a regular permutation group on its own elements."""
    field = SmallField(q)
    mats = []
    for a, b, c, d in itertools.product(field.elements(), repeat=4):
        det = field.add(field.mul(a, d), field.neg(field.mul(b, c)))
        if det != 0:
            mats.append((a, b, c, d))
    mats.sort()
    index = {m: i for i, m in enumerate(mats)}

    def mul(m1, m2):
        a, b, c, d = m1
        e, f_, g, h = m2
        return (
            field.add(field.mul(a, e), field.mul(b, g)),
            field.add(field.mul(a, f_), field.mul(b, h)),
            field.add(field.mul(c, e), field.mul(d, g)),
            field.add(field.mul(c, f_), field.mul(d, h)),
        )

    # left-regular action by a small generating set
    gens_m = _gl2_generators(field, mats, mul)
    perms = []
    for g in gens_m:
        perms.append(Perm(tuple(index[mul(g, m)] for m in mats)))
    return PermGroup(len(mats), perms, name=f"GL(2,{q}) regular")


def _gl2_generators(field: SmallField, mats, mul) -> list[tuple[int, int, int, int]]:
    """A generating pair for GL(2, q): greedy search over sorted elements."""
    target = len(mats)
    for x in mats:
        for y in mats:
            seen = {x, y}
            frontier = [x, y]
            while frontier:
                m = frontier.pop()
                for g in (x, y):
                    nm = mul(g, m)
                    if nm not in seen:
                        seen.add(nm)
                        frontier.append(nm)
                if len(seen) == target:
                    break
            if len(seen) == target:
                return [x, y]
    raise RuntimeError("GL(2,q) is not 2-generated over the searched range")
