"""Quantifier-free formulas over linear integer arithmetic (plus ``exists``).

All atoms are normalised to one of two shapes over integer variables:

* ``e <= 0``  (relation :data:`Rel.LE`)
* ``e == 0``  (relation :data:`Rel.EQ`)

Strict comparisons are integer-tightened at construction time:
``e < 0`` becomes ``e + 1 <= 0``.  This makes Fourier-Motzkin elimination
exact on the (integer) fragment the paper's verification conditions use far
more often than a rational relaxation would be.

Formulas are immutable trees built by the smart constructors :func:`conj`,
:func:`disj`, :func:`neg` and :func:`exists`, which perform cheap
simplifications (flattening, unit laws, constant folding).

**Hash-consing.**  Every node class interns its instances: constructing a
node that is structurally equal to a live one returns the *same object*, so
structural equality is pointer equality on the fast path, ``__hash__`` is
computed exactly once at construction, and solver caches keyed on formulas
cost O(1) per probe.  Conjuncts and disjuncts are additionally put into a
canonical order at build time (by interning order, which is deterministic
for a deterministic construction sequence), so ``conj(a, b)`` and
``conj(b, a)`` yield the identical node and hit the same cache entries.
The intern table holds weak references: nodes are reclaimed once no
formula, cache or caller mentions them.
"""

from __future__ import annotations

import contextvars
import enum
import itertools
import math
import weakref
from fractions import Fraction
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.arith.lru import LRUCache
from repro.arith.terms import Coeff, LinExpr, intern_node, to_linexpr

#: Global intern table for formula nodes (weak values: entries die with
#: their last strong referent).  Keys embed the node tag, so one table
#: serves every class.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

#: The table's underlying ``key -> weak reference`` dict.  Lookups read it
#: directly (a C-level ``dict.get``; a dead reference is a miss); inserts
#: go through :func:`repro.arith.terms.intern_node`.
_INTERN_DATA: Dict[tuple, "weakref.KeyedRef"] = _INTERN.data

#: Monotone counter handing out interning-order ids; used as the canonical
#: sort key for conjuncts/disjuncts (deterministic within a run, and across
#: runs for deterministic construction sequences -- unlike str hashes).
_NODE_COUNTER = itertools.count()


def _node_uid(p: "Formula") -> int:
    return p._uid


class Rel(enum.Enum):
    """Relation of a normalised atom against zero.

    ``LT`` is the *rational*-strict relation ``e < 0``.  The language
    pipeline never produces it (strict integer comparisons are tightened to
    ``LE`` at construction, see :func:`atom_lt`); it exists for callers of
    the Fourier-Motzkin witness layer (:func:`repro.arith.fm.cube_model`)
    that need open bounds kept open, e.g. rational counterexample search.
    """

    LE = "<="
    EQ = "=="
    LT = "<"

    # Every atom's intern key hashes its relation; ``Enum.__hash__`` is
    # Python-level, the identity hash is not.  It differs between
    # processes, as a str hash does under hash randomisation; no verdict,
    # spec or solver counter depends on hash order.
    __hash__ = object.__hash__


class Formula:
    """Base class for all formula nodes."""

    __slots__ = ()

    def free_vars(self) -> FrozenSet[str]:
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Formula":
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, LinExpr]) -> "Formula":
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        raise NotImplementedError

    def __and__(self, other: "Formula") -> "Formula":
        return conj(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return disj(self, other)

    def __invert__(self) -> "Formula":
        return neg(self)


class BoolConst(Formula):
    """``true`` or ``false`` (two interned singletons)."""

    __slots__ = ("value", "_uid", "__weakref__")

    _instances: Dict[bool, "BoolConst"] = {}

    def __new__(cls, value: bool):
        value = bool(value)
        hit = cls._instances.get(value)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        cls._instances[value] = self
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("BoolConst is immutable")

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Formula":
        return self

    def substitute(self, mapping: Mapping[str, LinExpr]) -> "Formula":
        return self

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        return self.value

    def __reduce__(self):
        return (BoolConst, (self.value,))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoolConst) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("bool", self.value))

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Atom(Formula):
    """A normalised linear atom ``expr <= 0`` or ``expr == 0`` (interned)."""

    __slots__ = ("expr", "rel", "_hash", "_uid", "_bound", "__weakref__")

    def __new__(cls, expr: LinExpr, rel: Rel):
        key = ("atom", expr, rel)
        ref = _INTERN_DATA.get(key)
        if ref is not None:
            hit = ref()
            if hit is not None:
                return hit
        self = object.__new__(cls)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        object.__setattr__(self, "_bound", _UNSET)
        return intern_node(_INTERN, key, self)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Atom is immutable")

    @property
    def bound(self) -> "Optional[AtomBound]":
        """The bound this atom puts on its linear term, or ``None`` for a
        variable-free atom.

        ``(direction, value, strict, upper, lower)`` reads
        ``direction <= value`` when *upper* and ``direction >= value`` when
        *lower* (both for ``EQ``), ``<`` / ``>`` when *strict*.
        *direction* is the interned :class:`LinExpr` of the primitive
        integer coefficient vector with a positive leading coefficient, so
        parallel atoms share it; *value* is an ``int`` when integral.
        Computed on first use and kept for the atom's lifetime."""
        b = self._bound
        if b is _UNSET:
            b = _atom_bound(self.expr, self.rel)
            object.__setattr__(self, "_bound", b)
        return b

    def free_vars(self) -> FrozenSet[str]:
        return self.expr.variables()

    def rename(self, mapping: Mapping[str, str]) -> "Formula":
        return Atom(self.expr.rename(mapping), self.rel)

    def substitute(self, mapping: Mapping[str, LinExpr]) -> "Formula":
        return _atom_or_const(self.expr.substitute(mapping), self.rel)

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        value = self.expr.evaluate(env)
        if self.rel is Rel.LE:
            return value <= 0
        if self.rel is Rel.LT:
            return value < 0
        return value == 0

    def negated(self) -> Formula:
        """Negation of this atom (integer-exact on the LE/EQ fragment)."""
        if self.rel is Rel.LT:
            # not(e < 0)  <=>  e >= 0  <=>  -e <= 0  (rational fragment).
            # Built directly: routing through _atom_or_const would apply
            # _norm_le's integer tightening, which is wrong over the
            # rationals this relation exists for.
            e = -self.expr
            if e.is_constant():
                return TRUE if e.constant <= 0 else FALSE
            return Atom(e.normalized(), Rel.LE)
        if self.rel is Rel.LE:
            # not(e <= 0)  <=>  e >= 1  <=>  -e + 1 <= 0
            return _atom_or_const(-self.expr + 1, Rel.LE)
        # not(e == 0)  <=>  e <= -1  or  e >= 1
        return disj(
            _atom_or_const(self.expr + 1, Rel.LE),
            _atom_or_const(-self.expr + 1, Rel.LE),
        )

    def __reduce__(self):
        # Re-intern in the receiving process (see LinExpr.__reduce__).
        return (Atom, (self.expr, self.rel))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Atom)
            and self.rel == other.rel
            and self.expr == other.expr
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"({self.expr} {self.rel.value} 0)"


#: Placeholder of :attr:`Atom.bound` before its first use.
_UNSET = object()

#: ``(direction, value, strict, upper, lower)``; see :attr:`Atom.bound`.
AtomBound = Tuple[LinExpr, Union[int, "Fraction"], bool, bool, bool]


def _atom_bound(expr: LinExpr, rel: Rel) -> "Optional[AtomBound]":
    coeffs = expr._coeffs
    if not coeffs:
        return None
    # expr = scale * direction + constant; for coefficients in lowest
    # terms, gcd(numerators) / lcm(denominators) makes direction primitive
    scale = Fraction(math.gcd(*(c.numerator for _, c in coeffs)),
                     math.lcm(*(c.denominator for _, c in coeffs)))
    if coeffs[0][1] < 0:
        scale = -scale
    direction = LinExpr(
        coeffs if scale == 1 else [(n, c / scale) for n, c in coeffs]
    )
    value = -expr.constant / scale
    if value.denominator == 1:
        value = int(value)
    if rel is Rel.EQ:
        return (direction, value, False, True, True)
    upper = scale > 0
    return (direction, value, rel is Rel.LT, upper, not upper)


class NaryOp(Formula):
    """Shared behaviour of :class:`And` and :class:`Or` (interned).

    Arguments are stored in canonical (interning) order, so two
    conjunctions over the same set of conjuncts are the same object no
    matter the order they were supplied in.
    """

    __slots__ = ("args", "_hash", "_fv", "_uid", "__weakref__")
    _tag = "nary"

    def __new__(cls, args: Sequence[Formula]):
        ordered = tuple(sorted(args, key=_node_uid))
        key = (cls._tag, ordered)
        ref = _INTERN_DATA.get(key)
        if ref is not None:
            hit = ref()
            if hit is not None:
                return hit
        self = object.__new__(cls)
        object.__setattr__(self, "args", ordered)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_fv", None)
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        return intern_node(_INTERN, key, self)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("formula nodes are immutable")

    def free_vars(self) -> FrozenSet[str]:
        if self._fv is None:
            out: FrozenSet[str] = frozenset()
            for a in self.args:
                out |= a.free_vars()
            object.__setattr__(self, "_fv", out)
        return self._fv

    def __reduce__(self):
        return (type(self), (self.args,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return type(self) is type(other) and self.args == other.args

    def __hash__(self) -> int:
        return self._hash


class And(NaryOp):
    __slots__ = ()
    _tag = "and"

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return conj(*(a.rename(mapping) for a in self.args))

    def substitute(self, mapping: Mapping[str, LinExpr]) -> Formula:
        return conj(*(a.substitute(mapping) for a in self.args))

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        return all(a.evaluate(env) for a in self.args)

    def __repr__(self) -> str:
        return "(" + " & ".join(map(repr, self.args)) + ")"


class Or(NaryOp):
    __slots__ = ()
    _tag = "or"

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return disj(*(a.rename(mapping) for a in self.args))

    def substitute(self, mapping: Mapping[str, LinExpr]) -> Formula:
        return disj(*(a.substitute(mapping) for a in self.args))

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        return any(a.evaluate(env) for a in self.args)

    def __repr__(self) -> str:
        return "(" + " | ".join(map(repr, self.args)) + ")"


class Not(Formula):
    __slots__ = ("arg", "_hash", "_uid", "__weakref__")

    def __new__(cls, arg: Formula):
        key = ("not", arg)
        ref = _INTERN_DATA.get(key)
        if ref is not None:
            hit = ref()
            if hit is not None:
                return hit
        self = object.__new__(cls)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        return intern_node(_INTERN, key, self)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("formula nodes are immutable")

    def free_vars(self) -> FrozenSet[str]:
        return self.arg.free_vars()

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        return neg(self.arg.rename(mapping))

    def substitute(self, mapping: Mapping[str, LinExpr]) -> Formula:
        return neg(self.arg.substitute(mapping))

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        return not self.arg.evaluate(env)

    def __reduce__(self):
        return (Not, (self.arg,))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Not) and self.arg == other.arg

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"~{self.arg!r}"


class Exists(Formula):
    """Existential quantification over a tuple of variables (interned)."""

    __slots__ = ("bound", "body", "_hash", "_uid", "__weakref__")

    def __new__(cls, bound: Sequence[str], body: Formula):
        bound = tuple(sorted(set(bound)))
        key = ("exists", bound, body)
        ref = _INTERN_DATA.get(key)
        if ref is not None:
            hit = ref()
            if hit is not None:
                return hit
        self = object.__new__(cls)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_uid", next(_NODE_COUNTER))
        return intern_node(_INTERN, key, self)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("formula nodes are immutable")

    def free_vars(self) -> FrozenSet[str]:
        return self.body.free_vars() - frozenset(self.bound)

    def rename(self, mapping: Mapping[str, str]) -> Formula:
        safe = {k: v for k, v in mapping.items() if k not in self.bound}
        if any(v in self.bound for v in safe.values()):
            # Rename bound variables apart first to avoid capture.
            fresh = {b: _fresh_name(b, self) for b in self.bound}
            return Exists(
                tuple(fresh.values()), self.body.rename(fresh)
            ).rename(mapping)
        return exists(self.bound, self.body.rename(safe))

    def substitute(self, mapping: Mapping[str, LinExpr]) -> Formula:
        safe = {k: v for k, v in mapping.items() if k not in self.bound}
        used = set()
        for e in safe.values():
            used |= e.variables()
        if used & set(self.bound):
            fresh = {b: _fresh_name(b, self) for b in self.bound}
            return Exists(
                tuple(fresh.values()), self.body.rename(fresh)
            ).substitute(mapping)
        return exists(self.bound, self.body.substitute(safe))

    def evaluate(self, env: Mapping[str, Coeff]) -> bool:
        raise ValueError("cannot directly evaluate a quantified formula")

    def __reduce__(self):
        return (Exists, (self.bound, self.body))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Exists)
            and self.bound == other.bound
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"(exists {', '.join(self.bound)} . {self.body!r})"


#: Fresh-variable counter.  A :class:`contextvars.ContextVar` rather than
#: a module global so that concurrent analyses (daemon worker threads,
#: see ``docs/serve.md``) each count independently: every thread starts
#: from the default and :func:`fresh_name_scope` gives one analysis a
#: private, zero-based counter.  Names generated by *independent*
#: analyses may therefore coincide -- which is sound (a formula's meaning
#: is a pure function of its structure; two analyses never mix free
#: variables inside one query) and is exactly what makes structural
#: fingerprints of generated names reproducible without a process-global
#: reset.
_FRESH_COUNTER: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro-fresh-name-counter", default=0
)


def reset_fresh_names() -> None:
    """Restart the fresh-variable counter at zero (current context only).

    Within one analysis this is only safe when no formulas from earlier
    analyses of *that same scope* are alive (the bench runner's cold-start
    protocol: caches cleared, cyclic garbage collected): fresh names must
    never collide with live ones they could be mixed with in one query.
    Resetting makes an analysis independent of how many fresh names the
    context handed out before it, which is what keeps a run inside a
    long-lived process identical to the same run in a freshly forked
    shard worker.
    """
    _FRESH_COUNTER.set(0)


def fresh_scope() -> contextvars.Token:
    """Enter a zero-based fresh-name scope; returns the reset token.

    Used (via :func:`repro.core.pipeline.fresh_name_scope`) to give each
    analysis of a long-lived multi-threaded process its own deterministic
    counter.  Pass the token to :func:`exit_fresh_scope` to restore the
    caller's counter."""
    return _FRESH_COUNTER.set(0)


def exit_fresh_scope(token: contextvars.Token) -> None:
    _FRESH_COUNTER.reset(token)


def _next_fresh() -> int:
    n = _FRESH_COUNTER.get()
    _FRESH_COUNTER.set(n + 1)
    return n


def _fresh_name(base: str, context: Formula) -> str:
    taken = context.free_vars()
    while True:
        cand = f"{base}#{_next_fresh()}"
        if cand not in taken:
            return cand


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def _atom_or_const(expr: LinExpr, rel: Rel) -> Formula:
    if expr.is_constant():
        value = expr.constant
        if rel is Rel.LE:
            return TRUE if value <= 0 else FALSE
        if rel is Rel.LT:
            return TRUE if value < 0 else FALSE
        return TRUE if value == 0 else FALSE
    if rel is Rel.LT:
        # Rational-strict atoms must not be integer-tightened, but a
        # positive rescale preserves them exactly: normalize to coprime
        # integer coefficients so elimination chains cannot blow up the
        # fractions and structurally equal strict atoms intern together.
        return Atom(expr.normalized(), rel)
    return Atom(expr.normalized() if rel is Rel.EQ else _norm_le(expr), rel)


def _norm_le(expr: LinExpr) -> LinExpr:
    """Normalise an LE atom's expression: integer coefficients,
    gcd-reduced on the variable part, constant rounded up (integer
    tightening, :func:`repro.arith.terms.tighten`)."""
    return expr.tightened(le=True)


def conj(*parts: Formula) -> Formula:
    """Conjunction with flattening and unit/zero laws."""
    flat: List[Formula] = []
    seen = set()
    for p in parts:
        if isinstance(p, BoolConst):
            if not p.value:
                return FALSE
            continue
        if isinstance(p, And):
            for q in p.args:
                if isinstance(q, BoolConst):
                    if not q.value:
                        return FALSE
                    continue
                if q not in seen:
                    seen.add(q)
                    flat.append(q)
            continue
        if p not in seen:
            seen.add(p)
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def disj(*parts: Formula) -> Formula:
    """Disjunction with flattening and unit/zero laws."""
    flat: List[Formula] = []
    seen = set()
    for p in parts:
        if isinstance(p, BoolConst):
            if p.value:
                return TRUE
            continue
        if isinstance(p, Or):
            for q in p.args:
                if isinstance(q, BoolConst):
                    if q.value:
                        return TRUE
                    continue
                if q not in seen:
                    seen.add(q)
                    flat.append(q)
            continue
        if p not in seen:
            seen.add(p)
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(flat)


def neg(p: Formula) -> Formula:
    """Negation, pushed one level when cheap."""
    if isinstance(p, BoolConst):
        return FALSE if p.value else TRUE
    if isinstance(p, Not):
        return p.arg
    if isinstance(p, Atom):
        return p.negated()
    return Not(p)


def exists(bound: Iterable[str], body: Formula) -> Formula:
    bound = tuple(b for b in bound if b in body.free_vars())
    if not bound:
        return body
    if isinstance(body, Exists):
        return Exists(tuple(set(bound) | set(body.bound)), body.body)
    return Exists(bound, body)


# ---------------------------------------------------------------------------
# Atom builders over arbitrary expressions
# ---------------------------------------------------------------------------


ExprLike = Union[LinExpr, Coeff, str]


def atom_le(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs <= rhs``."""
    return _atom_or_const(to_linexpr(lhs) - to_linexpr(rhs), Rel.LE)


def atom_lt(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs < rhs`` over integers, tightened to ``lhs + 1 <= rhs``."""
    return _atom_or_const(to_linexpr(lhs) - to_linexpr(rhs) + 1, Rel.LE)


def atom_ge(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs >= rhs``."""
    return atom_le(rhs, lhs)


def atom_gt(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs > rhs`` over integers."""
    return atom_lt(rhs, lhs)


def atom_eq(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs == rhs``."""
    return _atom_or_const(to_linexpr(lhs) - to_linexpr(rhs), Rel.EQ)


def atom_ne(lhs: ExprLike, rhs: ExprLike) -> Formula:
    """``lhs != rhs`` (expanded to a disjunction of strict inequalities)."""
    e = to_linexpr(lhs) - to_linexpr(rhs)
    return disj(_atom_or_const(e + 1, Rel.LE), _atom_or_const(-e + 1, Rel.LE))


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------


def to_nnf(p: Formula, negate: bool = False) -> Formula:
    """Negation normal form.  Quantifiers must not appear under negation."""
    if isinstance(p, BoolConst):
        return neg(p) if negate else p
    if isinstance(p, Atom):
        return p.negated() if negate else p
    if isinstance(p, Not):
        return to_nnf(p.arg, not negate)
    if isinstance(p, And):
        parts = [to_nnf(a, negate) for a in p.args]
        return disj(*parts) if negate else conj(*parts)
    if isinstance(p, Or):
        parts = [to_nnf(a, negate) for a in p.args]
        return conj(*parts) if negate else disj(*parts)
    if isinstance(p, Exists):
        if negate:
            raise ValueError(
                "negation over exists is outside the supported fragment; "
                "eliminate the quantifier (SolverContext.project) first"
            )
        return exists(p.bound, to_nnf(p.body))
    raise TypeError(f"unknown formula node {type(p).__name__}")


_DNF_CACHE = LRUCache(100_000)

#: Cube cap of :func:`to_dnf` and :func:`nnf_tree`: a conversion whose
#: running cube count exceeds it raises :class:`DNFLimit`.  Read at call
#: time.
DNF_LIMIT = 50_000


class DNFLimit(MemoryError):
    """A cube count passed its cap (:data:`DNF_LIMIT`, or the assumption
    cube product of :class:`repro.arith.context.SolverContext`).

    The analysis catches this type only, so a real out-of-memory error is
    never mistaken for a cap hit.  It subclasses :class:`MemoryError`, so
    a caller that catches that still catches a cap hit."""


def to_dnf(p: Formula) -> List[List[Atom]]:
    """Disjunctive normal form as a list of conjunctions of atoms.

    Existentials are pushed inward and recorded by renaming their bound
    variables to fresh names (sound for satisfiability-style queries, which
    is the only way the solver consumes DNF).  Results are memoised in an
    LRU-bounded cache (quantifier-free formulas only -- fresh renaming
    makes quantified results non-reusable).

    Raises :class:`DNFLimit` when the running cube count exceeds
    :data:`DNF_LIMIT`.  A quantifier-free formula is counted first, by the
    replay :func:`nnf_tree` uses, so one over the cap is refused before
    any cube is built.
    """
    cached = _DNF_CACHE.get(p)
    if cached is not None:
        return cached
    nnf = to_nnf(p)
    if _contains_exists(p):
        return _dnf(nnf)
    _nnf_tree(nnf)
    cubes = _dnf(nnf)
    _DNF_CACHE.put(p, cubes)
    return cubes


#: *p* -> :func:`nnf_tree` of *p*.
_NNF_TREES = LRUCache(100_000)

#: :func:`nnf_tree` output: an :class:`Atom`, or ``(is_or, children)``.
NNFTree = Union["Atom", Tuple[bool, tuple]]


def nnf_tree(p: Formula) -> NNFTree:
    """The NNF of the quantifier-free *p* as plain nested tuples, for
    callers that enumerate its cubes themselves instead of calling
    :func:`to_dnf`.

    An And node becomes ``(False, children)`` and an Or node ``(True,
    children)``, so ``true`` is ``(False, ())`` and ``false`` is ``(True,
    ())``; children keep the NNF's order, so a depth-first walk meets the
    cubes in :func:`to_dnf` order.  Raises :class:`DNFLimit` exactly
    where :func:`to_dnf` would at :data:`DNF_LIMIT`: the conversion replays
    its running cube-count sum and product checks without building a cube.

    Memoised like :func:`to_dnf`, with the same retention: the memo keeps
    *p* and the atoms of its cubes alive, but none of the NNF's And/Or
    nodes.  Conjunct order follows interning order, so a node that dies
    and is rebuilt sorts differently; keeping exactly the nodes the cube
    memo kept keeps the inferred specs identical to eager conversion."""
    tree = _NNF_TREES.get(p)
    if tree is None:
        tree = _nnf_tree(to_nnf(p))[0]
        _NNF_TREES.put(p, tree)
    return tree


def _nnf_tree(p: Formula) -> Tuple[NNFTree, int]:
    """``(tree, number of cubes)``, raising where :func:`_dnf` would."""
    if isinstance(p, BoolConst):
        return ((False, ()), 1) if p.value else ((True, ()), 0)
    if isinstance(p, Atom):
        return p, 1
    children = []
    if isinstance(p, Or):
        count = 0
        for a in p.args:
            child, n = _nnf_tree(a)
            children.append(child)
            count += n
            if count > DNF_LIMIT:
                raise DNFLimit("DNF explosion beyond configured limit")
        return (True, tuple(children)), count
    if isinstance(p, And):
        count = 1
        for a in p.args:
            child, n = _nnf_tree(a)
            children.append(child)
            count *= n
            if count > DNF_LIMIT:
                raise DNFLimit("DNF explosion beyond configured limit")
        return (False, tuple(children)), count
    raise TypeError(
        f"cannot convert {type(p).__name__} (quantifier-free NNF expected)"
    )


def clear_dnf_cache() -> None:
    """Drop all memoised DNF conversions (and :func:`nnf_tree`'s memo)
    and reset the eviction counter."""
    _DNF_CACHE.clear(reset_evictions=True)
    _NNF_TREES.clear(reset_evictions=True)


def dnf_cache_stats() -> Dict[str, int]:
    """Size and eviction count of the module-level DNF cache."""
    return {"size": len(_DNF_CACHE), "evictions": _DNF_CACHE.evictions}


def intern_table_size() -> int:
    """Number of live interned formula nodes (weak table, so this tracks
    the resident formula universe of a long-lived process)."""
    return len(_INTERN)


def _contains_exists(p: Formula) -> bool:
    if isinstance(p, Exists):
        return True
    if isinstance(p, (And, Or)):
        return any(_contains_exists(a) for a in p.args)
    if isinstance(p, Not):
        return _contains_exists(p.arg)
    return False


def _dnf(p: Formula) -> List[List[Atom]]:
    if isinstance(p, BoolConst):
        return [[]] if p.value else []
    if isinstance(p, Atom):
        return [[p]]
    if isinstance(p, Or):
        out: List[List[Atom]] = []
        for a in p.args:
            out.extend(_dnf(a))
            if len(out) > DNF_LIMIT:
                raise DNFLimit("DNF explosion beyond configured limit")
        return out
    if isinstance(p, And):
        cubes: List[List[Atom]] = [[]]
        for a in p.args:
            sub = _dnf(a)
            cubes = [c + s for c in cubes for s in sub]
            if len(cubes) > DNF_LIMIT:
                raise DNFLimit("DNF explosion beyond configured limit")
        return cubes
    if isinstance(p, Exists):
        # Rename bound variables to globally fresh ones, then drop the
        # quantifier: sound for SAT queries.
        fresh = {b: _fresh_name(b, p) for b in p.bound}
        return _dnf(to_nnf(p.body.rename(fresh)))
    raise TypeError(f"cannot convert {type(p).__name__} to DNF (NNF expected)")
