"""A whole-program monolithic termination prover (TERMINATOR/T2 style).

The defining architectural difference from HipTNT+ (and the point of the
paper's comparison): this prover attempts one global (lexicographic)
ranking argument per recursive group over *all* inputs.  It performs no
precondition case analysis, so a program that terminates only under a
derivable input condition (e.g. ``foo`` of paper Fig. 1, terminating
exactly when ``x < 0 \\/ y < 0``) is out of its reach -- it answers U
where HipTNT+ answers with a conditional summary.

The machinery is shared with the main pipeline: the same assumption
generator produces the recursion edges and the same Farkas synthesiser
searches for ranking functions, so the comparison isolates the
*methodology* (global proof vs. case-split inference), not engineering
differences.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arith.context import SolverContext
from repro.core.ranking import RankSynthesizer
from repro.core.reachgraph import Edge, ReachGraph
from repro.core.specs import DefStore
from repro.core.verifier import MethodAssumptions, Verifier, VerifierError
from repro.lang import desugar_program, method_sccs
from repro.lang.ast import Program
from repro.lang.callgraph import is_recursive_scc


class MonolithicTerminationProver:
    """Prove whole-program termination with one ranking argument per SCC."""

    def __init__(self, program: Program, desugared: bool = False):
        self.program = program if desugared else desugar_program(program)
        self.ctx = SolverContext()

    def collect_edges(self) -> Optional[Dict[str, List[Edge]]]:
        """Recursion edges per call-graph SCC key; None when the program
        falls outside the supported (pure) fragment."""
        out: Dict[str, List[Edge]] = {}
        for scc in method_sccs(self.program):
            methods = [
                self.program.methods[n]
                for n in scc
                if self.program.methods[n].body is not None
            ]
            if not methods or not is_recursive_scc(self.program, scc):
                continue
            pairs = {m.name: f"B0@{m.name}" for m in methods}
            verifier = Verifier(
                self.program, pairs=pairs, solved={}, ctx=self.ctx
            )
            store_args = {
                pairs[m.name]: tuple(m.param_names) for m in methods
            }
            edges: List[Edge] = []
            try:
                for m in methods:
                    ma = verifier.collect(m)
                    graph = ReachGraph(
                        [
                            a
                            for a in ma.pre_assumptions
                            if not isinstance(a.rhs, str)
                        ]
                    )
                    edges.extend(
                        e
                        for e in graph.edges
                        if e.dst in store_args  # recursion edges only
                    )
            except VerifierError:
                return None
            out["+".join(scc)] = edges
        self._pair_args = {}
        for scc in method_sccs(self.program):
            for n in scc:
                m = self.program.methods[n]
                if m.body is not None:
                    self._pair_args[f"B0@{n}"] = tuple(m.param_names)
        return out

    def prove(self) -> Optional[bool]:
        """True when every recursive group admits a global ranking
        argument; False when some group does not; None when the program is
        unsupported."""
        groups = self.collect_edges()
        if groups is None:
            return None
        synth = RankSynthesizer(self._pair_args, self.ctx)
        for _key, edges in groups.items():
            if not edges:
                continue
            members = sorted({e.src for e in edges} | {
                e.dst for e in edges if e.dst in self._pair_args
            })
            internal = [e for e in edges if e.dst in set(members)]
            if not internal:
                continue
            if synth.synthesize_linear(members, internal) is not None:
                continue
            if synth.synthesize_lexicographic(members, internal) is not None:
                continue
            return False
        return True
