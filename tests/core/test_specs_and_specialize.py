"""Unit tests: the definitions store, specialisation, reachability graph."""

import pytest

from repro.arith.formula import TRUE, atom_ge, atom_lt, conj
from repro.arith.terms import var
from repro.core.assumptions import PostAssume, PreAssume
from repro.core.predicates import (
    LOOP,
    MAYLOOP,
    POST_FALSE,
    POST_TRUE,
    PostRef,
    PreRef,
    TERM,
    Term,
)
from repro.core.reachgraph import (
    LOOP_NODE,
    MAYLOOP_NODE,
    ReachGraph,
    TERM_NODE,
)
from repro.core.specialize import specialize_post, specialize_pre
from repro.core.specs import Case, DefStore

x = var("x")


def fresh_store():
    store = DefStore()
    store.register_root("U0@f", ("x",))
    return store


class TestDefStore:
    def test_unresolved_root(self):
        store = fresh_store()
        assert not store.is_resolved("U0@f")
        assert store.unresolved_leaves("U0@f") == ["U0@f"]

    def test_resolve_leaf(self):
        store = fresh_store()
        store.resolve_leaf("U0@f", TERM, POST_TRUE)
        assert store.is_resolved("U0@f")
        assert store.unresolved_leaves("U0@f") == []

    def test_refinement_tree_flatten(self, ctx):
        store = fresh_store()
        child_a = store.new_pair("f", ("x",))
        child_b = store.new_pair("f", ("x",))
        store.define("U0@f", [
            Case(atom_ge(x, 0), child_a, child_a),
            Case(atom_lt(x, 0), child_b, child_b),
        ])
        store.resolve_leaf(child_a, LOOP, POST_FALSE)
        store.resolve_leaf(child_b, TERM, POST_TRUE)
        cases = store.flatten("U0@f", ctx=ctx)
        assert len(cases) == 2
        by_kind = {type(c.pred).__name__: c for c in cases}
        assert not by_kind["Loop"].post.reachable
        assert by_kind["Term"].post.reachable

    def test_flatten_unresolved_defaults_to_mayloop(self, ctx):
        store = fresh_store()
        (case,) = store.flatten("U0@f", ctx=ctx)
        from repro.core.predicates import MayLoop

        assert isinstance(case.pred, MayLoop)

    def test_flatten_context_restricts(self, ctx):
        store = fresh_store()
        store.resolve_leaf("U0@f", TERM, POST_TRUE)
        cases = store.flatten("U0@f", context=atom_ge(x, 5), ctx=ctx)
        assert len(cases) == 1
        assert ctx.equivalent(cases[0].guard, atom_ge(x, 5))

    def test_leaf_cases_cumulative_guards(self, ctx):
        store = fresh_store()
        child = store.new_pair("f", ("x",))
        store.define("U0@f", [Case(atom_ge(x, 0), child, child)])
        grand = store.new_pair("f", ("x",))
        store.define(child, [Case(atom_ge(x, 5), grand, grand),
                             Case(atom_lt(x, 5), TERM, POST_TRUE)])
        leaves = store.leaf_cases("U0@f")
        guards = [g for g, _p, _q in leaves]
        assert any(ctx.equivalent(g, conj(atom_ge(x, 0), atom_ge(x, 5)))
                   for g in guards)


class TestSpecializePre:
    def test_substitutes_definitions_and_splits(self, ctx):
        store = fresh_store()
        child_a = store.new_pair("f", ("x",))
        child_b = store.new_pair("f", ("x",))
        store.define("U0@f", [
            Case(atom_ge(x, 0), child_a, child_a),
            Case(atom_lt(x, 0), child_b, child_b),
        ])
        a = PreAssume(
            ctx=conj(atom_ge(var("u"), 0), TRUE),
            lhs=PreRef("U0@f", ("u",)),
            rhs=PreRef("U0@f", ("u",)),
        )
        out = specialize_pre([a], store, ctx)
        # lhs u>=0 picks child_a; rhs splits on u>=0 / u<0: u<0 is
        # inconsistent with the lhs guard, so a single assumption remains
        assert len(out) == 1
        assert out[0].lhs.name == child_a
        assert out[0].rhs.name == child_a

    def test_resolved_lhs_dropped(self, ctx):
        store = fresh_store()
        store.resolve_leaf("U0@f", TERM, POST_TRUE)
        a = PreAssume(TRUE, PreRef("U0@f", ("u",)), PreRef("U0@f", ("u",)))
        assert specialize_pre([a], store, ctx) == []

    def test_rhs_resolved_to_term_becomes_sink(self, ctx):
        store = DefStore()
        store.register_root("U0@f", ("x",))
        store.register_root("U0@g", ("x",))
        store.resolve_leaf("U0@g", Term((var("x"),)), POST_TRUE)
        a = PreAssume(TRUE, PreRef("U0@f", ("u",)), PreRef("U0@g", ("u",)))
        (out,) = specialize_pre([a], store, ctx)
        assert isinstance(out.rhs, Term)


class TestSpecializePost:
    def test_true_entries_vanish(self, ctx):
        store = DefStore()
        store.register_root("U0@f", ("x",))
        store.register_root("U0@g", ("x",))
        store.resolve_leaf("U0@g", TERM, POST_TRUE)
        t = PostAssume(
            ctx=TRUE,
            entries=((TRUE, PostRef("U0@g", ("u",))),),
            guard=TRUE,
            rhs=PostRef("U0@f", ("u",)),
        )
        (out,) = specialize_post([t], store, ctx)
        assert out.entries == ()

    def test_false_entries_materialise(self, ctx):
        store = DefStore()
        store.register_root("U0@f", ("x",))
        store.register_root("U0@g", ("x",))
        store.resolve_leaf("U0@g", LOOP, POST_FALSE)
        t = PostAssume(
            ctx=TRUE,
            entries=((TRUE, PostRef("U0@g", ("u",))),),
            guard=TRUE,
            rhs=PostRef("U0@f", ("u",)),
        )
        (out,) = specialize_post([t], store, ctx)
        ((g, p),) = out.entries
        assert not p.reachable

    def test_resolved_rhs_discharges(self, ctx):
        store = fresh_store()
        store.resolve_leaf("U0@f", TERM, POST_TRUE)
        t = PostAssume(TRUE, (), TRUE, PostRef("U0@f", ("u",)))
        assert specialize_post([t], store, ctx) == []


class TestReachGraph:
    def _edge_assumption(self, src, dst, ctx=TRUE):
        return PreAssume(ctx, PreRef(src, ("x",)), PreRef(dst, ("x",)))

    def test_sink_nodes(self):
        a = PreAssume(TRUE, PreRef("A", ("x",)), TERM)
        b = PreAssume(TRUE, PreRef("A", ("x",)), LOOP)
        c = PreAssume(TRUE, PreRef("A", ("x",)), MAYLOOP)
        g = ReachGraph([a, b, c])
        assert g.scc_succ(["A"]) == {TERM_NODE, LOOP_NODE, MAYLOOP_NODE}

    def test_scc_bottom_up_order(self):
        g = ReachGraph([
            self._edge_assumption("A", "B"),
            self._edge_assumption("B", "B"),
        ])
        order = g.sccs_bottom_up()
        assert order.index(["B"]) < order.index(["A"])

    def test_mutual_scc(self):
        g = ReachGraph([
            self._edge_assumption("A", "B"),
            self._edge_assumption("B", "A"),
        ])
        assert ["A", "B"] in g.sccs_bottom_up()
        assert g.has_cycle(["A", "B"])

    def test_self_loop_cycle(self):
        g = ReachGraph([self._edge_assumption("A", "A")])
        assert g.has_cycle(["A"])
        g2 = ReachGraph([self._edge_assumption("A", "B")])
        assert not g2.has_cycle(["A"])

    def test_internal_edges(self):
        g = ReachGraph([
            self._edge_assumption("A", "A"),
            self._edge_assumption("A", "B"),
        ])
        internal = g.internal_edges(["A"])
        assert len(internal) == 1 and internal[0].dst == "A"

    def test_isolated_vertices_addable(self):
        g = ReachGraph([])
        g.add_vertices(["Z"])
        assert ["Z"] in g.sccs_bottom_up()
