"""Exact linear integer arithmetic: terms, formulas, decision procedures.

This package is the reproduction's stand-in for the Omega/Z3 back ends used
by the original HipTNT+ artifact.  Everything is computed with exact
``fractions.Fraction`` arithmetic:

* :mod:`repro.arith.terms` -- linear expressions over named variables.
* :mod:`repro.arith.formula` -- quantifier-free boolean structure plus
  existential quantifiers, with NNF/DNF conversions.
* :mod:`repro.arith.fm` -- Fourier-Motzkin variable elimination over
  conjunctions of linear constraints.
* :mod:`repro.arith.context` -- incremental solver contexts: LRU-bounded
  caches with statistics and push/pop assumption stacks.
* :mod:`repro.arith.solver` -- satisfiability, validity, entailment,
  projection (quantifier elimination) and simplification (a thin facade
  over a default context).
* :mod:`repro.arith.farkas` -- Farkas'-lemma encodings used by ranking
  function synthesis and abductive inference (LP solved by scipy's bundled
  HiGHS, results rationalised and re-verified exactly).
"""

from repro.arith.terms import LinExpr, var, const
from repro.arith.formula import (
    Atom,
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
from repro.arith.context import SolverContext, SolverStats, default_context
from repro.arith.solver import (
    clear_caches,
    is_sat,
    is_unsat,
    is_valid,
    entails,
    equivalent,
    project,
    simplify,
    dnf_disjuncts,
)

__all__ = [
    "SolverContext",
    "SolverStats",
    "default_context",
    "clear_caches",
    "LinExpr",
    "var",
    "const",
    "Atom",
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
    "is_sat",
    "is_unsat",
    "is_valid",
    "entails",
    "equivalent",
    "project",
    "simplify",
    "dnf_disjuncts",
]
