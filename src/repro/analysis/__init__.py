"""Dataflow pre-analysis and program lint layer.

Everything here runs *before* the TNT pipeline proper and serves three
purposes (see ``docs/analysis.md``):

* :mod:`~repro.analysis.validate` -- an AST well-formedness validator
  producing structured, position-carrying :class:`Diagnostic` records
  (undefined variables, unknown callees, arity mismatches, duplicate
  declarations, unreachable statements) instead of internal errors deep
  in the core.
* :mod:`~repro.analysis.absint` /
  :mod:`~repro.analysis.intervals` /
  :mod:`~repro.analysis.loopinfo` -- an intraprocedural abstract
  interpreter over a constant/interval domain (widening at loop heads)
  plus per-loop modification and liveness facts.
* :mod:`~repro.analysis.prefacts` / :mod:`~repro.analysis.quick` --
  the :class:`PreFacts` object that
  :func:`repro.core.pipeline.prepare_program` builds for every source
  program: interval facts seed loop-method contracts, modification sets
  narrow the Farkas ranking search, and quick verdicts short-circuit
  SCC analysis entirely.
"""

from repro.analysis.diagnostics import (  # noqa: F401
    Diagnostic,
    ProgramInvalid,
    Severity,
)
from repro.analysis.intervals import Interval, TOP  # noqa: F401
from repro.analysis.absint import MethodFacts, analyze_method  # noqa: F401
from repro.analysis.loopinfo import LoopFacts, loop_facts  # noqa: F401
from repro.analysis.validate import (  # noqa: F401
    validate_program,
    validate_source,
)
from repro.analysis.prefacts import PreFacts  # noqa: F401
