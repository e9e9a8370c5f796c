"""Exact permutation-group engine.

S_n and A_n recognised by Jordan's theorem; orders and membership of every
other group via deterministic Schreier-Sims chains; transitivity degree,
derived series, normal closures and simplicity; a bounded search for a
proper subgroup of a given index; and constructors for the standard
families.
"""

from .chain import StabilizerChain, closure_elements
from .groups import EXHAUSTIVE_BOUND, SUBGROUP_LATTICE_BOUND, PermGroup
from .perms import Perm, parse_generators
from .structure import (
    conjugacy_class_representatives,
    commutator_subgroup,
    derived_series,
    is_simple,
    is_solvable,
    normal_closure,
)
from .subsearch import (
    has_proper_subgroup_of_index,
    psl2_subgroup_criterion,
)

__all__ = [
    "EXHAUSTIVE_BOUND",
    "SUBGROUP_LATTICE_BOUND",
    "Perm",
    "PermGroup",
    "StabilizerChain",
    "closure_elements",
    "commutator_subgroup",
    "conjugacy_class_representatives",
    "derived_series",
    "has_proper_subgroup_of_index",
    "is_simple",
    "is_solvable",
    "normal_closure",
    "parse_generators",
    "psl2_subgroup_criterion",
]
