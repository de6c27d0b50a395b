"""Separation-logic substrate tests: heaps, entailment, abstraction."""

import pytest

from repro.arith.formula import TRUE, atom_ge
from repro.arith.terms import const, var
from repro.core import infer_program
from repro.core.pipeline import Verdict
from repro.lang import parse_program
from repro.seplog.abstraction import abstract_program, AbstractionError
from repro.seplog.entail import match_instance
from repro.seplog.heap import (
    NULL,
    HeapSpec,
    PointsTo,
    PredInst,
    SymHeap,
    unfold,
)

SRC = """
data node { node next; }
void append(node x, node y)
{
  if (x.next == null) { x.next = y; return; }
  else { append(x.next, y); return; }
}
"""


def lseg_heap(size="n"):
    return SymHeap(
        chunks=(PredInst("lseg", ("x", "null"), var(size)),),
        pure=atom_ge(var(size), 1),
    )


class TestUnfold:
    def test_lseg_two_cases(self, ctx):
        heap = SymHeap(chunks=(PredInst("lseg", ("x", "q"), var("n")),))
        cases = unfold(heap, heap.chunks[0], {}, ctx)
        assert len(cases) == 2

    def test_lseg_empty_case_aliases_root(self, ctx):
        heap = SymHeap(chunks=(PredInst("lseg", ("x", "q"), var("n")),))
        (empty, aliases), _ = unfold(heap, heap.chunks[0], {}, ctx)
        assert aliases["x"] == "q"
        assert ctx.entails(empty.pure, atom_ge(-var("n"), 0))

    def test_cll_has_no_empty_case(self, ctx):
        heap = SymHeap(chunks=(PredInst("cll", ("x",), var("n")),))
        cases = unfold(heap, heap.chunks[0], {}, ctx)
        assert len(cases) == 1
        nonempty, _aliases = cases[0]
        assert any(isinstance(c, PointsTo) for c in nonempty.chunks)

    def test_nonempty_case_constrains_size(self, ctx):
        heap = SymHeap(chunks=(PredInst("ll", ("x",), var("n")),))
        cases = unfold(heap, heap.chunks[0], {}, ctx)
        nonempty = [h for h, _a in cases if h.chunks][0]
        assert ctx.entails(nonempty.pure, atom_ge(var("n"), 1))

    def test_inconsistent_case_dropped(self, ctx):
        heap = SymHeap(
            chunks=(PredInst("ll", ("x",), var("n")),),
            pure=atom_ge(var("n"), 1),
        )
        cases = unfold(heap, heap.chunks[0], {}, ctx)
        # n >= 1 kills the empty case
        assert len(cases) == 1


class TestMatch:
    def test_direct_match(self):
        heap = lseg_heap()
        r = match_instance(heap, "lseg", ("x", "null"), {})
        assert r is not None
        assert r.size == var("n")
        assert not r.frame.chunks

    def test_empty_segment(self):
        r = match_instance(SymHeap(), "lseg", ("a", "a"), {})
        assert r is not None and r.size == const(0)

    def test_ll_null(self):
        r = match_instance(SymHeap(), "ll", (NULL,), {})
        assert r is not None and r.size == const(0)

    def test_cons_lemma(self):
        heap = SymHeap(chunks=(
            PointsTo("x", "node", (("next", "p"),)),
            PredInst("lseg", ("p", "null"), var("m")),
        ))
        r = match_instance(heap, "lseg", ("x", "null"), {})
        assert r is not None and r.size == var("m") + 1

    def test_concatenation_lemma(self):
        heap = SymHeap(chunks=(
            PredInst("lseg", ("a", "b"), var("m1")),
            PredInst("lseg", ("b", "c"), var("m2")),
        ))
        r = match_instance(heap, "lseg", ("a", "c"), {})
        assert r is not None and r.size == var("m1") + var("m2")

    def test_circular_fold(self):
        # p |-> node(c) * lseg(c, p; m)  |-  cll(p; m+1)
        heap = SymHeap(chunks=(
            PointsTo("p", "node", (("next", "c"),)),
            PredInst("lseg", ("c", "p"), var("m")),
        ))
        r = match_instance(heap, "cll", ("p",), {})
        assert r is not None and r.size == var("m") + 1

    def test_rotation_via_concatenation(self):
        # entering the cycle one cell later:
        # p |-> node(c) * lseg(c, x; m) * x |-> node(p)  |-  cll(p; m+2)
        heap = SymHeap(chunks=(
            PointsTo("p", "node", (("next", "c"),)),
            PredInst("lseg", ("c", "x"), var("m")),
            PointsTo("x", "node", (("next", "p"),)),
        ))
        r = match_instance(heap, "cll", ("p",), {})
        assert r is not None and r.size == var("m") + 2

    def test_self_loop_cell_is_cll(self):
        heap = SymHeap(chunks=(PointsTo("x", "node", (("next", "x"),)),))
        r = match_instance(heap, "cll", ("x",), {})
        assert r is not None and r.size == const(1)

    def test_no_match(self):
        heap = SymHeap(chunks=(PredInst("ll", ("y",), var("n")),))
        assert match_instance(heap, "ll", ("x",), {}) is None


class TestAbstraction:
    def _spec(self, pred, args, size="n", lower=1):
        pre = SymHeap(
            chunks=(PredInst(pred, args, var(size)),),
            pure=atom_ge(var(size), lower),
        )
        return HeapSpec(pre=pre, post=SymHeap(), size_params=(size,))

    def test_append_lseg_is_conditionally_terminating(self):
        program = parse_program(SRC)
        program.methods["append"].heap_specs = [
            self._spec("lseg", ("x", "null"))
        ]
        result = infer_program(program)
        assert result.verdict("append__h0") is Verdict.TERMINATING

    def test_append_cll_is_nonterminating(self):
        program = parse_program(SRC)
        program.methods["append"].heap_specs = [self._spec("cll", ("x",))]
        result = infer_program(program)
        assert result.verdict("append__h0") is Verdict.NONTERMINATING
        (case,) = result.specs["append__h0"].cases
        assert not case.post.reachable  # postcondition strengthened to false

    def test_abstracted_method_is_pure(self, ctx):
        from repro.seplog.abstraction import has_heap_statements

        program = parse_program(SRC)
        program.methods["append"].heap_specs = [
            self._spec("lseg", ("x", "null"))
        ]
        abstracted = abstract_program(program, ctx)
        m = abstracted.methods["append__h0"]
        assert not has_heap_statements(m)
        assert [p.name for p in m.params] == ["n"]

    def test_pure_program_passthrough(self, ctx):
        program = parse_program("void f(int x) { return; }")
        assert abstract_program(program, ctx) is program

    def test_heap_without_spec_rejected(self, ctx):
        program = parse_program(SRC + "\nvoid g(node z) { z.next = null; }")
        program.methods["append"].heap_specs = [
            self._spec("lseg", ("x", "null"))
        ]
        with pytest.raises(AbstractionError):
            abstract_program(program, ctx)

    def test_ll_traversal_terminates(self):
        program = parse_program("""
data node { node next; }
void walk(node x)
{ if (x == null) { return; } else { walk(x.next); return; } }
""")
        program.methods["walk"].heap_specs = [
            self._spec("ll", ("x",), lower=0)
        ]
        result = infer_program(program)
        assert result.verdict("walk__h0") is Verdict.TERMINATING
