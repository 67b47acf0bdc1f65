"""Polynomials over Q with ring operations: the tests' symbolic oracle.

flagricci.polyalg.Poly holds integer terms and only what the package
calls.  Tests that build polynomials from factored printed forms, parse
printed text or expand z = 1 - x - y by products do so with QPoly, and
as_poly turns an integral QPoly into the package's Poly.  A Poly met in a
ring operation or a comparison is read as the QPoly of its terms.
"""

import functools
import re
from fractions import Fraction

from flagricci.polyalg import _VAR_NAMES, Poly, expand_z


class QPoly:
    """Sparse polynomial: map from exponent tuples to nonzero Fractions,
    in ascending exponent-tuple order, as Poly keeps its ints."""

    __slots__ = ("terms", "arity")

    def __init__(self, terms, arity: int):
        if arity not in (2, 3):
            raise ValueError(f"arity must be 2 or 3, got {arity}")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ValueError(f"exponent tuple {exps} does not match arity {arity}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"expected an exact scalar, got {type(coeff).__name__}")
            if coeff:
                clean[exps] = clean.get(exps, 0) + Fraction(coeff)
        object.__setattr__(self, "terms", {e: clean[e] for e in sorted(clean) if clean[e] != 0})
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def zero(cls, arity: int) -> "QPoly":
        return cls({}, arity)

    @classmethod
    def constant(cls, c, arity: int) -> "QPoly":
        return cls({(0,) * arity: c}, arity)

    @classmethod
    def variable(cls, name: str, arity: int) -> "QPoly":
        names = _VAR_NAMES[:arity]
        if name not in names:
            raise ValueError(f"unknown variable {name!r} for arity {arity}")
        return cls({tuple(1 if v == name else 0 for v in names): 1}, arity)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly.constant(other, self.arity)
        if isinstance(other, Poly):
            other = QPoly(other.terms, other.arity)
        if not isinstance(other, QPoly):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        return other

    def __add__(self, other) -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return QPoly(terms, self.arity)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly({e: -c for e, c in self.terms.items()}, self.arity)

    def __sub__(self, other) -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return QPoly(terms, self.arity)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return functools.reduce(QPoly.__mul__, [self] * n, QPoly.constant(1, self.arity))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(other, self.arity)
        if not isinstance(other, (QPoly, Poly)):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"QPoly({self.to_text()!r}, arity={self.arity})"

    # the package's rendering, which reads only the terms
    to_text = Poly.to_text

    def substitute_z(self) -> "QPoly":
        """Replace z by (1 - x - y), dropping to arity 2 (see expand_z)."""
        if self.arity != 3:
            raise ValueError("substitute_z requires an arity-3 polynomial")
        return QPoly(expand_z(self.terms), 2)

    @classmethod
    def parse(cls, text: str, arity: int) -> "QPoly":
        """Inverse of to_text."""
        names = _VAR_NAMES[:arity]
        stripped = text.replace(" ", "")
        if stripped in ("", "0"):
            return cls.zero(arity)
        terms: dict = {}
        # a sign after anything but a sign or an operator starts a term
        for chunk in re.split(r"(?<=[^-+*/^])(?=[-+])", stripped):
            body = chunk.lstrip("+-")
            coeff, exps = Fraction((-1) ** chunk[: len(chunk) - len(body)].count("-")), [0] * arity
            for factor in body.split("*"):
                if not factor:
                    raise ValueError(f"cannot parse term in {text!r}")
                if factor[0].isdigit():
                    coeff *= Fraction(factor)
                    continue
                name, _, power = factor.partition("^")
                if name not in names:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                exps[names.index(name)] += int(power) if "^" in factor else 1
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
        return cls(terms, arity)


def variables(arity: int) -> tuple:
    """The variable polynomials, (x, y) or (x, y, z)."""
    return tuple(QPoly.variable(name, arity) for name in _VAR_NAMES[:arity])


def as_poly(q: QPoly) -> Poly:
    """The package's Poly with q's terms; ValueError unless all are integers."""
    if any(c.denominator != 1 for c in q.terms.values()):
        raise ValueError(f"{q.to_text()} has a non-integer coefficient")
    return Poly({e: c.numerator for e, c in q.terms.items()}, q.arity)
