"""Pre-analysis phases: prune, then seed, hint and certify.

Every source program goes through
:func:`repro.core.pipeline.prepare_program`, which runs these phases
around validation and desugaring and packages the result in one
:class:`PreFacts` value:

1. **validate** -- the lint layer; errors raise
   :class:`~repro.analysis.diagnostics.ProgramInvalid`.
2. **analyze** -- interval abstract interpretation per heap-free method
   (:func:`prune_program`).
3. **prune** -- drop loops whose guard is definitely false and branches
   that can never run (guards are side-effect-free by construction:
   call-containing guards never evaluate definitely).  Pruned methods
   are re-analyzed so node-identity keys stay accurate.
4. **desugar** -- with :class:`~repro.lang.desugar.LoopOrigin` capture.

Steps 5-7 are :func:`annotate`:

5. **seed** -- conjoin each loop method's ``requires`` with the finite
   interval bounds its head invariant established for carried
   variables.  The invariant holds at every head visit, and the loop
   method is only ever called from its extraction site and itself, so
   the strengthened contract is sound -- and it is exactly what the
   quick ``term`` certificates rely on.
6. **hint** -- ``rank_hints = carried & (modified | guard vars)``: the
   only variables a linear termination measure can involve.  Advisory;
   see :class:`repro.core.ranking.RankSynthesizer`.
7. **certify** -- attach quick verdicts (:mod:`repro.analysis.quick`)
   for loops the pipeline can skip outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.analysis.absint import MethodFacts, analyze_method
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.loopinfo import loop_facts
from repro.analysis.quick import QuickVerdict, stuck_certificate, term_certificate
from repro.arith.formula import Formula, atom_ge, atom_le, conj
from repro.arith.terms import var
from repro.lang.ast import (
    BOOL,
    Expr,
    FieldRead,
    FieldWrite,
    If,
    INT,
    Method,
    NewExpr,
    Program,
    Seq,
    Skip,
    Stmt,
    VOID,
    While,
    seq,
)
from repro.lang.desugar import LoopOrigin


@dataclass
class PreFacts:
    """Everything the pre-analysis hands to the pipeline."""

    #: Validated, dead-code-pruned source program.
    source: Program
    #: Desugared program with seeded contracts and ranking hints -- what
    #: the pipeline actually analyzes.
    desugared: Program
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Loop-method name -> extraction record.
    origins: Dict[str, LoopOrigin] = field(default_factory=dict)
    #: Loop-method name -> quick verdict (term / stuck certificate).
    quick: Dict[str, QuickVerdict] = field(default_factory=dict)
    #: Loop methods whose ``requires`` gained interval facts.
    seeded: List[str] = field(default_factory=list)
    #: Loop-method name -> ranking hint tuple (also set on the Method).
    hints: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Source methods where dead code was removed.
    pruned: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Eligibility + pruning
# ---------------------------------------------------------------------------


def _expr_has_heap(e: Expr) -> bool:
    if isinstance(e, (FieldRead, NewExpr)):
        return True
    for attr in ("arg", "left", "right"):
        sub = getattr(e, attr, None)
        if isinstance(sub, Expr) and _expr_has_heap(sub):
            return True
    for a in getattr(e, "args", ()) or ():
        if isinstance(a, Expr) and _expr_has_heap(a):
            return True
    return False


def _stmt_has_heap(s: Stmt) -> bool:
    if isinstance(s, FieldWrite):
        return True
    if isinstance(s, Seq):
        return any(_stmt_has_heap(t) for t in s.stmts)
    if isinstance(s, If):
        return (
            _expr_has_heap(s.cond)
            or _stmt_has_heap(s.then)
            or _stmt_has_heap(s.els)
        )
    if isinstance(s, While):
        return _expr_has_heap(s.cond) or _stmt_has_heap(s.body)
    for attr in ("init", "value", "cond"):
        sub = getattr(s, attr, None)
        if sub is not None and isinstance(sub, Expr) and _expr_has_heap(sub):
            return True
    for a in getattr(s, "args", ()) or ():
        if isinstance(a, Expr) and _expr_has_heap(a):
            return True
    return False


def _eligible(m: Method) -> bool:
    """Whether interval facts apply: purely numeric, body present, not
    rewritten later by the heap abstraction."""
    if m.body is None or m.is_primitive or m.heap_specs:
        return False
    if m.ret_type not in (INT, BOOL, VOID):
        return False
    if any(p.type not in (INT, BOOL) for p in m.params):
        return False
    return not _stmt_has_heap(m.body)


class _Pruner:
    def __init__(self, facts: MethodFacts, method: str, diags: List[Diagnostic]):
        self.facts = facts
        self.method = method
        self.diags = diags

    def _warn(self, code: str, message: str, node) -> None:
        self.diags.append(
            Diagnostic(
                Severity.WARNING,
                code,
                message,
                method=self.method,
                pos=getattr(node, "pos", None),
            )
        )

    def prune(self, s: Stmt) -> Stmt:
        if isinstance(s, While):
            if id(s) in self.facts.dead_whiles:
                self._warn(
                    "dead-loop", "loop guard is always false here; loop removed", s
                )
                return Skip()
            body = self.prune(s.body)
            return s if body is s.body else While(s.cond, body, pos=s.pos)
        if isinstance(s, If):
            if id(s) in self.facts.dead_then:
                self._warn("dead-branch", "then-branch can never run; pruned", s)
                return self.prune(s.els)
            if id(s) in self.facts.dead_else:
                self._warn("dead-branch", "else-branch can never run; pruned", s)
                return self.prune(s.then)
            then, els = self.prune(s.then), self.prune(s.els)
            if then is s.then and els is s.els:
                return s
            return If(s.cond, then, els, pos=s.pos)
        if isinstance(s, Seq):
            parts = [self.prune(t) for t in s.stmts]
            if all(p is t for p, t in zip(parts, s.stmts)):
                return s
            return seq(*parts)
        return s


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


def _interval_facts(origin: LoopOrigin, facts: MethodFacts) -> Formula:
    """Finite head-invariant bounds over carried variables, as a formula
    (``None``-free: returns ``None`` when there is nothing to seed)."""
    inv = facts.head_invariants.get(id(origin.while_node), {})
    atoms = []
    for name in origin.carried:
        bound = inv.get(name)
        if bound is None:
            continue
        if bound.lo is not None:
            atoms.append(atom_ge(var(name), bound.lo))
        if bound.hi is not None:
            atoms.append(atom_le(var(name), bound.hi))
    if not atoms:
        return None
    out = atoms[0]
    for a in atoms[1:]:
        out = conj(out, a)
    return out


# ---------------------------------------------------------------------------
# Phases (driven by repro.core.pipeline.prepare_program)
# ---------------------------------------------------------------------------


def prune_program(
    program: Program, diags: List[Diagnostic]
) -> Tuple[Program, Dict[str, MethodFacts], List[str]]:
    """Interval-analyze every eligible method of a *source* program and
    prune its dead code.

    Returns the pruned program, the per-method facts (keyed by node
    identity in the pruned program) and the names of pruned methods;
    dead-code warnings are appended to *diags*."""
    method_facts: Dict[str, MethodFacts] = {}
    methods2: Dict[str, Method] = {}
    pruned: List[str] = []
    for name, m in program.methods.items():
        if not _eligible(m):
            methods2[name] = m
            continue
        facts = analyze_method(m, program)
        for dead in facts.dead_stmts:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "dead-code",
                    "statement can never execute",
                    method=name,
                    pos=getattr(dead, "pos", None),
                )
            )
        body2 = _Pruner(facts, name, diags).prune(m.body)
        if body2 is not m.body:
            m = replace(m, body=body2)
            facts = analyze_method(m, program)  # re-key node identities
            pruned.append(name)
        methods2[name] = m
        method_facts[name] = facts
    program2 = Program(data_decls=program.data_decls, methods=methods2)
    return program2, method_facts, pruned


def annotate(pre: PreFacts, method_facts: Dict[str, MethodFacts]) -> None:
    """Seed, hint and certify the loop methods of ``pre.desugared`` in
    place, recording what was done in *pre*.  *method_facts* are the
    :func:`prune_program` facts of ``pre.source``."""
    loop_info = {
        name: loop_facts(m, pre.source)
        for name, m in pre.source.methods.items()
        if name in method_facts
    }

    for loop_name, origin in pre.origins.items():
        loop_method = pre.desugared.methods[loop_name]
        facts = method_facts.get(origin.method_name)
        if facts is None:
            continue  # enclosing method was ineligible: no facts to use
        node = origin.while_node

        # 5. seed the contract with head-invariant interval bounds
        extra = _interval_facts(origin, facts)
        if extra is not None:
            loop_method.requires = (
                extra
                if loop_method.requires is None
                else conj(loop_method.requires, extra)
            )
            pre.seeded.append(loop_name)

        # 6. ranking hints: measure support is carried & (modified | guard)
        lf = loop_info.get(origin.method_name, {}).get(id(node))
        if lf is not None:
            hint = set(origin.carried) & (set(origin.modified) | lf.cond_vars)
            if hint and hint < set(origin.carried):
                loop_method.rank_hints = tuple(sorted(hint))
                pre.hints[loop_name] = loop_method.rank_hints

        # 7. quick verdicts
        inv = facts.head_invariants.get(id(node), {})
        measure = term_certificate(node.cond, node.body, inv, list(origin.carried))
        if measure is not None:
            pre.quick[loop_name] = QuickVerdict("term", measure=measure)
        else:
            cond = stuck_certificate(node.cond, node.body)
            if cond is not None:
                pre.quick[loop_name] = QuickVerdict("stuck", cond=cond)
