"""Exact linear integer arithmetic: terms, formulas, decision procedures.

This package is the reproduction's stand-in for the Omega/Z3 back ends used
by the original HipTNT+ artifact.  Everything is computed exactly, in
integers and, where a coefficient is not integral, ``fractions.Fraction``:

* :mod:`repro.arith.terms` -- linear expressions over named variables.
* :mod:`repro.arith.formula` -- quantifier-free boolean structure plus
  existential quantifiers, with NNF/DNF conversions.
* :mod:`repro.arith.fm` -- Fourier-Motzkin variable elimination over
  conjunctions of linear constraints.
* :mod:`repro.arith.context` -- solver contexts: satisfiability,
  validity, entailment, projection (quantifier elimination) and
  simplification behind LRU-bounded caches with statistics and push/pop
  assumption stacks.  Callers create a context and pass it explicitly.
* :mod:`repro.arith.solver` -- the process-wide DNF and FM memos:
  ``clear_caches``, ``cache_telemetry`` and ``dnf_disjuncts``.
* :mod:`repro.arith.farkas` -- Farkas'-lemma encodings used by ranking
  function synthesis and abductive inference (LP solved by scipy's bundled
  HiGHS, results rationalised and re-verified exactly).
"""

from repro.arith.terms import LinExpr, var, const
from repro.arith.formula import (
    Atom,
    DNFLimit,
    Rel,
    Formula,
    TRUE,
    FALSE,
    conj,
    disj,
    neg,
    exists,
    atom_le,
    atom_lt,
    atom_eq,
    atom_ge,
    atom_gt,
    atom_ne,
)
from repro.arith.context import SolverContext, SolverStats
from repro.arith.solver import clear_caches, dnf_disjuncts

__all__ = [
    "SolverContext",
    "SolverStats",
    "clear_caches",
    "LinExpr",
    "var",
    "const",
    "Atom",
    "DNFLimit",
    "Rel",
    "Formula",
    "TRUE",
    "FALSE",
    "conj",
    "disj",
    "neg",
    "exists",
    "atom_le",
    "atom_lt",
    "atom_eq",
    "atom_ge",
    "atom_gt",
    "atom_ne",
    "dnf_disjuncts",
]
