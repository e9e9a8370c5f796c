"""Certification engine for endomorphism algebras of hyperelliptic jacobians.

Given a squarefree polynomial (or its Galois group directly, as a
permutation group on the roots), the engine checks the finitely
verifiable group-theoretic and linear-algebra hypotheses behind a family
of endomorphism-algebra theorems and emits a structured verdict with a
hypothesis-by-hypothesis audit trail.
"""

from .fflin import (
    FSubalgebra,
    MatF,
    algebra_closure,
    centralizer_basis,
    double_centralizer_check,
    kernel,
    rank,
    rref,
)
from .permgroup import (
    Perm,
    PermGroup,
    derived_series,
    has_normal_subgroup_of_index_dividing,
    is_perfect,
    is_simple,
    is_solvable,
    min_proper_subgroup_index,
    psl2_subgroup_criterion,
)
from .polygal import CycleTypeCensus, GroupHypothesis, IntPoly, census, identify, is_squarefree
from .repmod import CentralizerReport, HeartModule, act, build_heart, heart_centralizer
from .verdict import (
    CaseInput,
    Outcome,
    Verdict,
    analyze_center,
    analyze_jacobian,
    case_from_group,
    case_from_polynomial,
    gl_has_element_of_order,
    hom_pair_analysis,
    multiplication_bound,
)

__version__ = "0.1.0"

__all__ = [
    "CaseInput",
    "CentralizerReport",
    "CycleTypeCensus",
    "FSubalgebra",
    "GroupHypothesis",
    "HeartModule",
    "IntPoly",
    "MatF",
    "Outcome",
    "Perm",
    "PermGroup",
    "Verdict",
    "act",
    "algebra_closure",
    "analyze_center",
    "analyze_jacobian",
    "build_heart",
    "case_from_group",
    "case_from_polynomial",
    "census",
    "centralizer_basis",
    "derived_series",
    "double_centralizer_check",
    "gl_has_element_of_order",
    "has_normal_subgroup_of_index_dividing",
    "heart_centralizer",
    "hom_pair_analysis",
    "identify",
    "is_perfect",
    "is_simple",
    "is_solvable",
    "is_squarefree",
    "kernel",
    "min_proper_subgroup_index",
    "multiplication_bound",
    "psl2_subgroup_criterion",
    "rank",
    "rref",
]
