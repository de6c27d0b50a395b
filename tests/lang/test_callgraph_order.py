"""The callees-before-callers ordering of ``method_sccs`` as a tested
invariant, plus the condensation dependencies from which the spec store
derives each SCC's transitive callee set (:mod:`repro.store.fingerprint`)."""

from repro.lang import parse_program
from repro.lang.callgraph import method_sccs, scc_dependencies

# Mutual recursion (even/odd) feeding into a diamond: top calls mid_a and
# mid_b; both mids call base; mid_a additionally calls the even/odd SCC.
_FIXTURE = """
int base(int n)
{ if (n <= 0) { return 0; } else { return base(n - 1); } }

int even(int n)
{ if (n == 0) { return 1; } else { return odd(n - 1); } }
int odd(int n)
{ if (n == 0) { return 0; } else { return even(n - 1); } }

void mid_a(int x) { base(x); even(x); return; }
void mid_b(int y) { base(y); return; }

void top(int z) { mid_a(z); mid_b(z); return; }
"""


def _positions(sccs):
    pos = {}
    for i, scc in enumerate(sccs):
        for name in scc:
            pos[name] = i
    return pos


class TestCalleesBeforeCallers:
    def test_fixture_order(self):
        program = parse_program(_FIXTURE)
        sccs = method_sccs(program)
        pos = _positions(sccs)
        # mutual recursion collapses into one SCC
        assert pos["even"] == pos["odd"]
        assert sccs[pos["even"]] == ["even", "odd"]
        # every callee SCC strictly precedes its caller's SCC
        assert pos["base"] < pos["mid_a"]
        assert pos["base"] < pos["mid_b"]
        assert pos["even"] < pos["mid_a"]
        assert pos["mid_a"] < pos["top"]
        assert pos["mid_b"] < pos["top"]

    def test_invariant_over_whole_corpus(self):
        """Callee SCCs precede caller SCCs for every benchmark program."""
        from repro.bench.programs import all_programs
        from repro.lang import desugar_program
        from repro.lang.ast import stmt_calls

        for bench in all_programs():
            program = desugar_program(bench.program())
            pos = _positions(method_sccs(program))
            for name, method in program.methods.items():
                if method.body is None:
                    continue
                for callee in stmt_calls(method.body):
                    if callee in program.methods and pos[callee] != pos[name]:
                        assert pos[callee] < pos[name], (
                            bench.name, callee, name
                        )

    def test_deterministic_across_calls(self):
        program = parse_program(_FIXTURE)
        assert method_sccs(program) == method_sccs(program)


class TestSccDependencies:
    def test_deps_match_order_and_edges(self):
        program = parse_program(_FIXTURE)
        sccs, deps = scc_dependencies(program)
        assert sccs == method_sccs(program)
        pos = _positions(sccs)
        # dependencies always point at earlier (callee) indices
        for i, dep in enumerate(deps):
            assert all(j < i for j in dep), (i, dep)
        assert deps[pos["base"]] == set()
        assert deps[pos["even"]] == set()
        assert deps[pos["mid_a"]] == {pos["base"], pos["even"]}
        assert deps[pos["mid_b"]] == {pos["base"]}
        assert deps[pos["top"]] == {pos["mid_a"], pos["mid_b"]}

    def test_diamond_middle_sccs_independent(self):
        """The two middle SCCs are independent: neither depends on the
        other, so neither one's store key changes when the other's body
        does."""
        program = parse_program(_FIXTURE)
        sccs, deps = scc_dependencies(program)
        pos = _positions(sccs)
        assert pos["mid_a"] not in deps[pos["mid_b"]]
        assert pos["mid_b"] not in deps[pos["mid_a"]]
