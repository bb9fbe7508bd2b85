"""Sparse linear algebra over Q with dependency tracking.

Vectors are polynomials; the echelon structure keys each pivot row by its
leading monomial under ``poly.monomial_key``.  Pivot rows are kept as
inserted, not scaled to leading coefficient 1.  Every inserted row carries a
combination dict mapping original tags to rational coefficients, so a linear
dependence comes back as an explicit kernel combination and a successful
reduction to zero comes back as a membership witness.  Reduction works on a
copy of the vector's term dict: each step subtracts a multiple of one pivot
row with ``add_terms``, which cancels the leading term exactly, and the same
call updates the tag combination.
"""

from __future__ import annotations

from typing import Optional

from .poly import Polynomial, StructuralError, add_terms, divide, monomial_key


class Echelon:
    """Row-echelon accumulator with combination tracking.

    Rows are stored as inserted (reduced, not normalised) and indexed by
    leading exponent.  Reduction only ever rewrites the current leading
    term, which strictly decreases under the monomial order, so every
    reduction terminates.
    """

    def __init__(self, variables):
        self.variables = tuple(variables)
        self.rows: dict = {}      # lead exponent -> reduced Polynomial
        self.combos: dict = {}    # lead exponent -> {tag: coefficient} giving that row

    def __len__(self):
        return len(self.rows)

    def _reduce(self, vec: Polynomial, combo: dict):
        work = dict(vec.terms)
        while work:
            lead = max(work, key=monomial_key)
            row = self.rows.get(lead)
            if row is None:
                break
            factor = divide(-work[lead], row.terms[lead])
            add_terms(work, row.terms, factor)  # cancels the term at lead
            add_terms(combo, self.combos[lead], factor)
        else:
            lead = None
        return Polynomial._of(self.variables, work), combo, lead

    def insert(self, vec: Polynomial, tag) -> Optional[dict]:
        """Add a row; return a kernel combination if it was dependent.

        The returned dict {tag: coefficient} satisfies
        sum(coefficient * original_row[tag]) == 0 and includes the new tag.
        """
        if vec.variables != self.variables:
            raise StructuralError("row outside the echelon's variable tuple")
        residual, combo, lead = self._reduce(vec, {tag: 1})
        if lead is None:
            return combo
        self.rows[lead] = residual
        self.combos[lead] = combo
        return None

    def reduce(self, vec: Polynomial):
        """Return (residual, combo) with vec - sum(combo[tag]*row[tag]) = residual."""
        if vec.variables != self.variables:
            raise StructuralError("vector outside the echelon's variable tuple")
        residual, combo, _ = self._reduce(vec, {})
        return residual, {t: -c for t, c in combo.items()}
