"""Linear expressions over named integer variables.

A :class:`LinExpr` represents ``c0 + c1*v1 + ... + cn*vn`` with exact
rational coefficients, each stored as a plain ``int`` when it is integral
and as a :class:`~fractions.Fraction` only when it is not (see
:func:`_coeff`).  Instances are immutable, hashable and
**hash-consed**: constructing a :class:`LinExpr` that is structurally equal
to a live one returns the same object, so structural equality degenerates
to pointer equality on the fast path and the hash is computed exactly once
per distinct expression.  The intern table holds weak references only --
expressions are reclaimed as soon as no formula mentions them.

Because ``Fraction(n) == n`` and ``hash(Fraction(n)) == hash(n)``, storing
integral coefficients as ``int`` interns exactly the expressions a
``Fraction``-only representation would; it only makes the arithmetic and
hashing behind each construction cheaper.  A true division of two
coefficients must keep a ``Fraction`` operand, since ``int / int`` is a
float.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Coeff = Union[int, Fraction]


def _coeff(value: Coeff) -> Coeff:
    """*value* in stored form: an ``int`` when integral (a ``bool`` or an
    integral ``Fraction`` included), else the ``Fraction`` itself."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def intern_node(table: weakref.WeakValueDictionary, key, node):
    """Intern *node* under *key* in *table* unless a live node is there
    already; return the interned one.

    The insert is one ``dict.setdefault`` on the table's underlying dict,
    which the interpreter runs atomically, so two threads building the
    same node get the same object.  The weak reference carries the
    table's own removal callback, so the entry dies with the node exactly
    as one inserted by ``table[key] = node`` would."""
    ref = weakref.KeyedRef(node, table._remove, key)
    old = table.data.setdefault(key, ref)
    if old is ref:
        return node
    hit = old()
    if hit is not None:
        return hit
    # a dead node whose removal callback has not run yet
    table.data[key] = ref
    return node


class LinExpr:
    """An immutable, interned linear expression ``const + sum(coeff[v]*v)``.

    Zero coefficients are never stored, so two expressions are equal exactly
    when they denote the same affine function -- and, thanks to interning,
    exactly when they are the same object.  Every coefficient and the
    constant are in :func:`_coeff` form.
    """

    __slots__ = ("_coeffs", "_const", "_hash", "__weakref__")

    _intern: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, coeffs: Mapping[str, Coeff] = (), constant: Coeff = 0):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        cleaned: Dict[str, Coeff] = {}
        for name, c in items:
            if type(c) is not int:
                c = _coeff(c)
            if c:
                cleaned[name] = c
        key_coeffs: Tuple[Tuple[str, Coeff], ...] = tuple(
            sorted(cleaned.items())
        )
        const = constant if type(constant) is int else _coeff(constant)
        key = (key_coeffs, const)
        # Look up in the weak table's underlying dict (a C-level get) and
        # call the weak reference; a dead one is a miss.
        ref = cls._intern.data.get(key)
        if ref is not None:
            hit = ref()
            if hit is not None:
                return hit
        self = object.__new__(cls)
        self._coeffs = key_coeffs
        self._const = const
        self._hash = hash(key)
        return intern_node(cls._intern, key, self)

    # -- accessors ---------------------------------------------------------

    @property
    def constant(self) -> Coeff:
        return self._const

    @property
    def coeffs(self) -> Dict[str, Coeff]:
        return dict(self._coeffs)

    def coeff(self, name: str) -> Coeff:
        for n, c in self._coeffs:
            if n == name:
                return c
        return 0

    def variables(self) -> frozenset:
        return frozenset(n for n, _ in self._coeffs)

    def is_constant(self) -> bool:
        return not self._coeffs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union["LinExpr", Coeff]) -> "LinExpr":
        if not isinstance(other, LinExpr):
            return LinExpr(self._coeffs, self._const + _coeff(other))
        coeffs = dict(self._coeffs)
        for name, c in other._coeffs:
            coeffs[name] = coeffs.get(name, 0) + c
        return LinExpr(coeffs, self._const + other._const)

    def __radd__(self, other: Coeff) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other: Union["LinExpr", Coeff]) -> "LinExpr":
        return self + (-to_linexpr(other))

    def __rsub__(self, other: Coeff) -> "LinExpr":
        return to_linexpr(other) - self

    def __neg__(self) -> "LinExpr":
        return self.scale(-1)

    def scale(self, k: Coeff) -> "LinExpr":
        k = _coeff(k)
        return LinExpr({n: c * k for n, c in self._coeffs}, self._const * k)

    def __mul__(self, k: Coeff) -> "LinExpr":
        return self.scale(k)

    def __rmul__(self, k: Coeff) -> "LinExpr":
        return self.scale(k)

    # -- substitution & evaluation ------------------------------------------

    def substitute(self, mapping: Mapping[str, "LinExpr"]) -> "LinExpr":
        """Replace each variable in *mapping* by the given expression."""
        if not any(name in mapping for name, _c in self._coeffs):
            return self
        coeffs: Dict[str, Coeff] = {}
        const = self._const
        for name, c in self._coeffs:
            repl = mapping.get(name)
            if repl is None:
                coeffs[name] = coeffs.get(name, 0) + c
            else:
                for rn, rc in repl._coeffs:
                    coeffs[rn] = coeffs.get(rn, 0) + rc * c
                const += repl._const * c
        return LinExpr(coeffs, const)

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables (non-capturing: all renames happen at once)."""
        coeffs: Dict[str, Coeff] = {}
        for name, c in self._coeffs:
            new = mapping.get(name, name)
            coeffs[new] = coeffs.get(new, 0) + c
        return LinExpr(coeffs, self._const)

    def evaluate(self, env: Mapping[str, Coeff]) -> Fraction:
        """The exact value under *env*, always a ``Fraction`` so that a
        caller may divide it."""
        total = Fraction(self._const)
        for name, c in self._coeffs:
            total += c * _coeff(env[name])
        return total

    # -- normalisation -------------------------------------------------------

    def normalized(self) -> "LinExpr":
        """Scale by a positive factor to coprime integer coefficients
        (constant included).  The sign is kept: ``-x + 1`` stays as it is.
        Used for the canonical form of ``==`` and ``<`` atoms."""
        return self.tightened(le=False)

    def tightened(self, le: bool) -> "LinExpr":
        """Clear denominators by a positive factor, then apply
        :func:`tighten` (for ``<= 0`` when *le*, else for ``== 0`` /
        ``< 0``)."""
        pairs, const, den = self.cleared()
        row = tuple([c for _, c in pairs] + [const])
        out = tighten(row, le)
        if out is row and den == 1:
            return self
        return LinExpr(zip([n for n, _ in pairs], out), out[-1])

    def cleared(self) -> Tuple[Tuple[Tuple[str, int], ...], int, int]:
        """``(((name, coefficient), ...), constant, factor)``: this
        expression times *factor*, the least common multiple of its
        denominators, with integer coefficients."""
        const = self._const
        den = const.denominator
        for _, c in self._coeffs:
            if type(c) is not int:
                den = math.lcm(den, c.denominator)
        if den == 1:
            return self._coeffs, const, 1
        return (
            tuple([(n, c.numerator * (den // c.denominator))
                   for n, c in self._coeffs]),
            const.numerator * (den // const.denominator),
            den,
        )

    # -- dunder ---------------------------------------------------------------

    def __reduce__(self):
        # Interned instances cannot be pickled structurally (__slots__ plus
        # an argument-taking __new__); route unpickling through the
        # constructor so the receiving process re-interns the expression.
        return (LinExpr, (self._coeffs, self._const))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        # Interning makes structurally-equal live expressions identical;
        # keep the structural fallback for robustness (e.g. copies).
        return (
            isinstance(other, LinExpr)
            and self._coeffs == other._coeffs
            and self._const == other._const
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LinExpr({self})"

    def __str__(self) -> str:
        parts = []
        for name, c in self._coeffs:
            if c == 1:
                parts.append(f"+ {name}")
            elif c == -1:
                parts.append(f"- {name}")
            elif c > 0:
                parts.append(f"+ {c}*{name}")
            else:
                parts.append(f"- {-c}*{name}")
        if self._const != 0 or not parts:
            if self._const >= 0:
                parts.append(f"+ {self._const}")
            else:
                parts.append(f"- {-self._const}")
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        elif text.startswith("- "):
            text = "-" + text[2:]
        return text



def tighten(row: Tuple[int, ...], le: bool) -> Tuple[int, ...]:
    """The integer-tightening rule on ``row = (c_1, ..., c_n, k)``, read
    as ``c_1*x_1 + ... + c_n*x_n + k`` compared with zero.

    For ``<= 0`` (*le*) the coefficients are divided by their gcd ``g``
    and the constant is rounded up to ``ceil(k / g)``: over the integers
    ``g*e + k <= 0`` holds exactly when ``e + ceil(k / g) <= 0`` does.
    For ``== 0`` and ``< 0`` every entry is divided by the gcd of all of
    them, which keeps the rational meaning.  The sign is never flipped,
    and a positive integer multiple of *row* tightens to the same tuple.
    Returns *row* itself when nothing changes."""
    if le:
        g = math.gcd(*row[:-1])
        if g > 1:
            return tuple([c // g for c in row[:-1]] + [-(-row[-1] // g)])
        return row
    g = math.gcd(*row)
    if g > 1:
        return tuple([c // g for c in row])
    return row


def to_linexpr(value: Union[LinExpr, Coeff, str]) -> LinExpr:
    """Coerce an int, Fraction, variable name or LinExpr into a LinExpr."""
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, str):
        return LinExpr({value: 1})
    return LinExpr({}, value)


def var(name: str) -> LinExpr:
    """The expression consisting of a single variable."""
    return LinExpr({name: 1})


def const(k: Coeff) -> LinExpr:
    """A constant expression."""
    return LinExpr({}, k)


def linear_combination(pairs: Iterable[Tuple[Coeff, str]], constant: Coeff = 0) -> LinExpr:
    """Build ``constant + sum(c*v for c, v in pairs)``."""
    coeffs: Dict[str, Coeff] = {}
    for c, v in pairs:
        coeffs[v] = coeffs.get(v, 0) + _coeff(c)
    return LinExpr(coeffs, constant)
