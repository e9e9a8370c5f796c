"""Theorem engine: hypothesis checking, cited facts, and verdict emission."""

from .engine import (
    CaseInput,
    CenterAnalysis,
    ChecklistEntry,
    Outcome,
    SCHEMA_VERSION,
    Verdict,
    analyze_center,
    analyze_jacobian,
    case_from_group,
    case_from_polynomial,
    hom_pair_analysis,
    multiplication_bound,
    recognize,
    unidentified_verdict,
)
from .facts import FACTS, FactRecord, fact
from .glz import OrderWitness, gl_has_element_of_order, matrix_order_is

__all__ = [
    "FACTS",
    "CaseInput",
    "CenterAnalysis",
    "ChecklistEntry",
    "FactRecord",
    "Outcome",
    "OrderWitness",
    "SCHEMA_VERSION",
    "Verdict",
    "analyze_center",
    "analyze_jacobian",
    "case_from_group",
    "case_from_polynomial",
    "fact",
    "gl_has_element_of_order",
    "hom_pair_analysis",
    "matrix_order_is",
    "multiplication_bound",
    "recognize",
    "unidentified_verdict",
]
