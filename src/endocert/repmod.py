"""The mod-2 Galois module attached to a degree-n root set.

The permutation module F_2^n contains the zero-sum hyperplane; for even n
that hyperplane contains the all-ones vector.  The "heart" is the
hyperplane itself for odd n and the quotient by the all-ones vector for
even n; either way it has dimension 2g with g = floor((n-1)/2), matching
the dimension of the jacobian of a hyperelliptic curve with n finite
branch points.

Basis convention (fixed so fixture matrices are stable): with points
0..n-1, take v_i = e_i + e_{n-1} for i < n-1.  For odd n these are a basis
of the hyperplane.  For even n they satisfy sum v_i = all-ones, and the
last coordinate is eliminated: the class of v_{n-2} equals the sum of the
earlier classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InternalInconsistencyError
from .fflin import FSubalgebra, MatF, centralizer_basis
from .permgroup import Perm, PermGroup


@dataclass(frozen=True)
class HeartModule:
    """The 2g-dimensional F_2 module for n points, with its matrix action."""

    n: int
    genus: int
    dim: int

    def act(self, s: Perm) -> MatF:
        """Matrix of the permutation on the chosen basis (a homomorphism)."""
        return act(self, s)


def build_heart(n: int) -> HeartModule:
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    genus = (n - 1) // 2
    return HeartModule(n=n, genus=genus, dim=2 * genus)


def _basis_column(heart: HeartModule, point: int) -> int:
    """Bitmask of the class of v_point in the reduced basis; 0 for v_{n-1}."""
    n, dim = heart.n, heart.dim
    if point == n - 1:
        return 0
    if n % 2 == 1 or point < n - 2:
        return 1 << point
    # even n: v_{n-2} = sum of all earlier basis classes
    return (1 << dim) - 1


def act(heart: HeartModule, s: Perm) -> MatF:
    """The action matrix: s sends v_i to v_{s(i)} + v_{s(n-1)}."""
    n = heart.n
    if s.degree != n:
        raise ValueError(f"permutation degree {s.degree} does not match n = {n}")
    last_image = _basis_column(heart, s(n - 1))
    cols = [(_basis_column(heart, s(i)) ^ last_image) for i in range(heart.dim)]
    rows = []
    for i in range(heart.dim):
        row = 0
        for j, col in enumerate(cols):
            if (col >> i) & 1:
                row |= 1 << j
        rows.append(row)
    return MatF(heart.dim, heart.dim, tuple(rows))


class CentralizerClass(str, Enum):
    SCALARS = "scalars"
    FIELD = "field"
    NON_FIELD = "non-field"


@dataclass
class CentralizerReport:
    """Classification of the commuting algebra of a group's heart action."""

    algebra: FSubalgebra
    classification: CentralizerClass
    field_size: Optional[int]
    klemm_hypothesis: bool

    @property
    def dim(self) -> int:
        return self.algebra.dim


def required_transitivity(n: int) -> int:
    """Klemm's transitivity degree for n roots: 2 for odd n, 3 for even n."""
    return 2 if n % 2 == 1 else 3


def klemm_hypothesis_holds(n: int, transitivity: int) -> bool:
    return transitivity >= required_transitivity(n)


def heart_centralizer(group: PermGroup) -> CentralizerReport:
    """Centralizer of the group's heart action, classified.

    When the transitivity hypothesis guaranteeing a scalar centralizer
    holds (Klemm's criterion: 2-transitive for odd n, 3-transitive for
    even n), a non-scalar result is impossible and reported as an internal
    inconsistency rather than returned.
    """
    heart = build_heart(group.degree)
    mats = [act(heart, g) for g in group.generators]
    if not mats:
        mats = [MatF.identity(heart.dim)]
    algebra = centralizer_basis(mats)
    is_field, size = algebra.field_test()
    if algebra.dim == 1:
        cls = CentralizerClass.SCALARS
        size = 2
    elif is_field:
        cls = CentralizerClass.FIELD
    else:
        cls = CentralizerClass.NON_FIELD
        size = None
    transitivity = group.transitivity_degree()
    hypothesis = klemm_hypothesis_holds(group.degree, transitivity)
    if hypothesis and cls is not CentralizerClass.SCALARS:
        raise InternalInconsistencyError(
            f"{group.degree}-point action is {transitivity}-transitive but the "
            f"heart centralizer has dimension {algebra.dim}; the scalar "
            "classification is forced by Klemm's criterion, so the action "
            "matrices must be wrong"
        )
    return CentralizerReport(
        algebra=algebra,
        classification=cls,
        field_size=size,
        klemm_hypothesis=hypothesis,
    )

