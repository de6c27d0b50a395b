"""Linear expressions over named integer variables.

A :class:`LinExpr` represents ``c0 + c1*v1 + ... + cn*vn`` with exact
rational coefficients.  Instances are immutable, hashable and
**hash-consed**: constructing a :class:`LinExpr` that is structurally equal
to a live one returns the same object, so structural equality degenerates
to pointer equality on the fast path and the hash is computed exactly once
per distinct expression.  The intern table holds weak references only --
expressions are reclaimed as soon as no formula mentions them.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Coeff = Union[int, Fraction]


def _to_fraction(value: Coeff) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class LinExpr:
    """An immutable, interned linear expression ``const + sum(coeff[v]*v)``.

    Zero coefficients are never stored, so two expressions are equal exactly
    when they denote the same affine function -- and, thanks to interning,
    exactly when they are the same object.
    """

    __slots__ = ("_coeffs", "_const", "_hash", "__weakref__")

    _intern: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()

    def __new__(cls, coeffs: Mapping[str, Coeff] = (), constant: Coeff = 0):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        cleaned: Dict[str, Fraction] = {}
        for name, c in items:
            f = c if type(c) is Fraction else _to_fraction(c)
            if f != 0:
                cleaned[name] = f
        key_coeffs: Tuple[Tuple[str, Fraction], ...] = tuple(
            sorted(cleaned.items())
        )
        const = constant if type(constant) is Fraction else _to_fraction(constant)
        key = (key_coeffs, const)
        hit = cls._intern.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        self._coeffs = key_coeffs
        self._const = const
        self._hash = hash(key)
        cls._intern[key] = self
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def constant(self) -> Fraction:
        return self._const

    @property
    def coeffs(self) -> Dict[str, Fraction]:
        return dict(self._coeffs)

    def coeff(self, name: str) -> Fraction:
        for n, c in self._coeffs:
            if n == name:
                return c
        return Fraction(0)

    def variables(self) -> frozenset:
        return frozenset(n for n, _ in self._coeffs)

    def is_constant(self) -> bool:
        return not self._coeffs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union["LinExpr", Coeff]) -> "LinExpr":
        if not isinstance(other, LinExpr):
            return LinExpr(dict(self._coeffs), self._const + _to_fraction(other))
        coeffs = dict(self._coeffs)
        for name, c in other._coeffs:
            coeffs[name] = coeffs.get(name, _ZERO) + c
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
        k = _to_fraction(k)
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
        coeffs: Dict[str, Fraction] = {}
        const = self._const
        for name, c in self._coeffs:
            repl = mapping.get(name)
            if repl is None:
                coeffs[name] = coeffs.get(name, _ZERO) + c
            else:
                for rn, rc in repl._coeffs:
                    coeffs[rn] = coeffs.get(rn, _ZERO) + rc * c
                const += repl._const * c
        return LinExpr(coeffs, const)

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables (non-capturing: all renames happen at once)."""
        coeffs: Dict[str, Fraction] = {}
        for name, c in self._coeffs:
            new = mapping.get(name, name)
            coeffs[new] = coeffs.get(new, Fraction(0)) + c
        return LinExpr(coeffs, self._const)

    def evaluate(self, env: Mapping[str, Coeff]) -> Fraction:
        total = self._const
        for name, c in self._coeffs:
            total += c * _to_fraction(env[name])
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
        pairs = []
        for n, c in self._coeffs:
            d = c.denominator
            if d != 1:
                den = math.lcm(den, d)
            pairs.append((n, c.numerator))
        if den == 1:
            return tuple(pairs), const.numerator, 1
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


_ZERO = Fraction(0)


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
    coeffs: Dict[str, Fraction] = {}
    for c, v in pairs:
        coeffs[v] = coeffs.get(v, Fraction(0)) + _to_fraction(c)
    return LinExpr(coeffs, constant)
