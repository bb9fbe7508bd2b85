"""Exact symbolic verification of additive-group bundle extensions."""

from .derivation import (NOT_HOMOGENEOUS, UNBOUNDED, Derivation, Grading,
                         homogeneity_degree)
from .filtered import (FilteredSubalgebra, IdealSequence, Member,
                       NotFoundWithinBounds, TruncationParams, compute_m_nu,
                       generated_in_degree_one, subalgebra_contains,
                       truncated_span, truncated_spans,
                       verify_sequence_axioms)
from .groebner import (INDETERMINATE, Ideal, InputError, PresentedRing,
                       buchberger, is_primary_at_origin,
                       weighted_monomial_ideal)
from .poly import (BIDEG_BOTTOM, MonomialOrder, Polynomial, StructuralError,
                   bidegree, default_order, parse, ring)
from .report import Check, Report

__all__ = [
    "BIDEG_BOTTOM", "Check", "Derivation", "FilteredSubalgebra", "Grading",
    "INDETERMINATE", "Ideal", "IdealSequence", "InputError", "Member",
    "MonomialOrder", "NOT_HOMOGENEOUS", "NotFoundWithinBounds",
    "Polynomial", "PresentedRing", "Report", "StructuralError",
    "TruncationParams", "UNBOUNDED", "bidegree", "buchberger",
    "compute_m_nu", "default_order", "generated_in_degree_one",
    "homogeneity_degree", "is_primary_at_origin", "parse", "ring",
    "subalgebra_contains", "truncated_span", "truncated_spans",
    "verify_sequence_axioms",
    "weighted_monomial_ideal",
]
