"""Exact symbolic verification of additive-group bundle extensions."""

from .derivation import Derivation, Grading, homogeneity_degree
from .filtered import (FilteredSubalgebra, IdealSequence, TruncationParams,
                       compute_m_nu, generated_in_degree_one,
                       subalgebra_contains, truncated_span, truncated_spans,
                       verify_sequence_axioms)
from .groebner import (Ideal, InputError, PresentedRing, buchberger,
                       is_primary_at_origin, weighted_monomial_ideal)
from .poly import BIDEG_BOTTOM, Polynomial, StructuralError, bidegree, parse, ring
from .report import Check, Member, NotMember, Report, Undecided

__all__ = [
    "BIDEG_BOTTOM", "Check", "Derivation", "FilteredSubalgebra", "Grading",
    "Ideal", "IdealSequence", "InputError", "Member",
    "NotMember", "Polynomial", "PresentedRing", "Report",
    "StructuralError", "TruncationParams", "Undecided", "bidegree", "buchberger",
    "compute_m_nu", "generated_in_degree_one",
    "homogeneity_degree", "is_primary_at_origin", "parse", "ring",
    "subalgebra_contains", "truncated_span", "truncated_spans",
    "verify_sequence_axioms",
    "weighted_monomial_ideal",
]
