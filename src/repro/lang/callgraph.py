"""Call graph construction and SCC condensation over program methods.

The inference processes mutually recursive groups bottom-up
(rule [TNT-INF] of the paper); :func:`method_sccs` returns the strongly
connected components of the call graph in reverse-topological (callee-first)
order.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import networkx as nx

from repro.lang.ast import Pos, Program, stmt_call_sites, stmt_calls


def call_graph(program: Program) -> "nx.DiGraph":
    """Directed graph: edge ``m -> n`` when method *m* calls *n*."""
    g = nx.DiGraph()
    for name in program.methods:
        g.add_node(name)
    for name, method in program.methods.items():
        if method.body is None:
            continue
        for callee in stmt_calls(method.body):
            if callee in program.methods:
                g.add_edge(name, callee)
    return g


def undefined_calls(program: Program) -> List[Tuple[str, str, Pos]]:
    """All call sites whose callee is not declared, as
    ``(caller, callee, pos)`` triples in deterministic (method, pre-order)
    order.

    :func:`call_graph` silently skips such edges, so without a validation
    pass an undefined callee only surfaces as an internal verifier error
    deep in the core; the well-formedness validator
    (:func:`repro.analysis.validate_program`) turns these triples into
    structured diagnostics with source positions instead.
    """
    out: List[Tuple[str, str, Pos]] = []
    for name, method in program.methods.items():
        if method.body is None:
            continue
        for site in stmt_call_sites(method.body):
            if site.name not in program.methods:
                out.append((name, site.name, site.pos))
    return out


def method_sccs(program: Program) -> List[List[str]]:
    """SCCs of the call graph, callees before callers.

    Each SCC is sorted by name for determinism.  The callee-first ordering
    is a *load-bearing invariant*: the pipeline consumes groups in list
    order, so every callee summary exists before its callers are
    analyzed.
    """
    sccs, _deps = scc_dependencies(program)
    return sccs


def scc_dependencies(
    program: Program,
) -> Tuple[List[List[str]], List[Set[int]]]:
    """The call-graph condensation as ``(sccs, deps)``.

    ``sccs`` lists the strongly connected components callees-first (the
    exact :func:`method_sccs` order, each SCC sorted by name);
    ``deps[i]`` holds the indices of the SCCs that ``sccs[i]`` calls into
    (its callee groups, excluding itself).  The spec store closes these
    edges transitively to fingerprint each SCC together with everything
    it reaches (:mod:`repro.store.fingerprint`).
    """
    g = call_graph(program)
    condensation = nx.condensation(g)
    # Reverse topological over the condensation gives callees first.
    # nx.topological_sort visits nodes in insertion order among ready
    # nodes, and both the call graph and its condensation are built in
    # deterministic order, so the result is stable across runs.
    order = list(nx.topological_sort(condensation))
    sccs: List[List[str]] = []
    index_of: Dict[int, int] = {}
    for node in reversed(order):
        index_of[node] = len(sccs)
        sccs.append(sorted(condensation.nodes[node]["members"]))
    deps: List[Set[int]] = [set() for _ in sccs]
    for node in condensation.nodes:
        for callee in condensation.successors(node):  # edges caller -> callee
            deps[index_of[node]].add(index_of[callee])
    return sccs, deps


def is_recursive_scc(program: Program, scc: List[str]) -> bool:
    """Whether the SCC contains a (mutual) recursion."""
    if len(scc) > 1:
        return True
    name = scc[0]
    method = program.methods[name]
    if method.body is None:
        return False
    return name in stmt_calls(method.body)


def reachable_methods(program: Program, roots: List[str]) -> Set[str]:
    """All methods transitively callable from *roots*."""
    g = call_graph(program)
    seen: Set[str] = set()
    stack = [r for r in roots if r in program.methods]
    while stack:
        m = stack.pop()
        if m in seen:
            continue
        seen.add(m)
        stack.extend(g.successors(m))
    return seen
