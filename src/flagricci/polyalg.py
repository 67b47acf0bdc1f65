"""Exact rational arithmetic for sparse multivariate polynomials.

Polynomials live in up to three variables (x, y, z) with Fraction
coefficients.  Everything downstream that claims bit-exactness (field
derivation, printed-polynomial comparison, symbolic Jacobians) is built
on this module; floats only enter once a Poly is evaluated at a float
point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction]

_VAR_NAMES = ("x", "y", "z")


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact scalar, got {type(c).__name__}")


class Poly:
    """Sparse polynomial: map from exponent tuples to nonzero Fractions.

    Canonical form is maintained on construction: zero coefficients are
    dropped and terms are stored in ascending exponent-tuple order.  So
    equality of term maps is equality of polynomials, and equal
    polynomials add their terms in the same order when evaluated at a
    float point, giving bit-identical values however they were built.
    Instances are treated as immutable; no method mutates self.
    """

    __slots__ = ("terms", "arity")

    def __init__(self, terms: Mapping[tuple, Scalar], arity: int):
        if arity not in (2, 3):
            raise ValueError(f"arity must be 2 or 3, got {arity}")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ValueError(f"exponent tuple {exps} does not match arity {arity}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = _as_fraction(coeff)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        object.__setattr__(self, "terms", {e: clean[e] for e in sorted(clean) if clean[e] != 0})
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, arity: int) -> "Poly":
        return cls({}, arity)

    @classmethod
    def constant(cls, c: Scalar, arity: int) -> "Poly":
        return cls({(0,) * arity: c}, arity)

    @classmethod
    def variable(cls, name: str, arity: int) -> "Poly":
        names = _VAR_NAMES[:arity]
        if name not in names:
            raise ValueError(f"unknown variable {name!r} for arity {arity}")
        exps = tuple(1 if v == name else 0 for v in names)
        return cls({exps: 1}, arity)

    # ------------------------------------------------------------------
    # ring operations

    def _check_same_arity(self, other: "Poly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other, self.arity)
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_same_arity(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return Poly(terms, self.arity)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()}, self.arity)

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return Poly({e: k * c for e, k in self.terms.items()}, self.arity)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_arity(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Poly(terms, self.arity)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.constant(1, self.arity)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other, self.arity)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r}, arity={self.arity})"

    # ------------------------------------------------------------------
    # calculus and evaluation

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def diff(self, var: Union[str, int]) -> "Poly":
        if isinstance(var, str):
            names = _VAR_NAMES[: self.arity]
            if var not in names:
                raise ValueError(f"unknown variable {var!r} for arity {self.arity}")
            idx = names.index(var)
        else:
            idx = var
            if not 0 <= idx < self.arity:
                raise ValueError(f"variable index {idx} out of range for arity {self.arity}")
        terms: dict = {}
        for exps, c in self.terms.items():
            k = exps[idx]
            if k == 0:
                continue
            e = exps[:idx] + (k - 1,) + exps[idx + 1 :]
            terms[e] = terms.get(e, Fraction(0)) + c * k
        return Poly(terms, self.arity)

    def eval(self, point: Sequence) -> Union[Fraction, float, complex]:
        """Evaluate at a point.

        Exact (a Fraction) when every coordinate is an int or Fraction;
        ordinary floating point otherwise.
        """
        if len(point) != self.arity:
            raise ValueError(f"point length {len(point)} does not match arity {self.arity}")
        exact = all(isinstance(v, (int, Fraction)) for v in point)
        if exact:
            total = Fraction(0)
        else:
            point = [float(v) if isinstance(v, (int, Fraction)) else v for v in point]
            total = 0.0
        for exps, c in self.terms.items():
            term = c if exact else float(c)
            for v, e in zip(point, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def __call__(self, *point):
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = point[0]
        return self.eval(point)

    def substitute_z(self) -> "Poly":
        """Replace z by (1 - x - y), dropping to arity 2."""
        if self.arity != 3:
            raise ValueError("substitute_z requires an arity-3 polynomial")
        one_minus = Poly({(0, 0): 1, (1, 0): -1, (0, 1): -1}, 2)
        powers = [Poly.constant(1, 2)]
        max_z = max((e[2] for e in self.terms), default=0)
        for _ in range(max_z):
            powers.append(powers[-1] * one_minus)
        out = Poly.zero(2)
        for (ex, ey, ez), c in self.terms.items():
            out = out + Poly({(ex, ey): c}, 2) * powers[ez]
        return out

    def shift(self, origin: Sequence) -> "Poly":
        """Exact Taylor recentering: p_shift(u, v) = p(x0 + u, y0 + v).

        Monomial evaluation loses digits to cancellation far from the
        origin; recentered coefficients restore full accuracy near the
        new origin.  Arity 2 only.
        """
        from math import comb

        if self.arity != 2:
            raise ValueError("shift requires an arity-2 polynomial")
        x0, y0 = (_as_fraction(v) for v in origin)
        out: dict = {}
        for (i, j), c in self.terms.items():
            for a in range(i + 1):
                ca = comb(i, a) * x0 ** (i - a)
                if ca == 0:
                    continue
                for b in range(j + 1):
                    cb = comb(j, b) * y0 ** (j - b)
                    if cb == 0:
                        continue
                    key = (a, b)
                    out[key] = out.get(key, Fraction(0)) + c * ca * cb
        return Poly(out, 2)

    # ------------------------------------------------------------------
    # textual form

    def sorted_terms(self) -> list:
        """Terms in descending graded lexicographic order."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def to_text(self) -> str:
        """Render as a monomial sum, e.g. ``-32*x^3*y + 6*x^3 - x + 1/3``."""
        if not self.terms:
            return "0"
        names = _VAR_NAMES[: self.arity]
        pieces = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            mono = []
            for name, e in zip(names, exps):
                if e == 1:
                    mono.append(name)
                elif e > 1:
                    mono.append(f"{name}^{e}")
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = "*".join(mono)
            else:
                body = str(mag) + "*" + "*".join(mono)
            if i == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)

    @classmethod
    def parse(cls, text: str, arity: int) -> "Poly":
        """Inverse of to_text for the serialization emitted above."""
        names = _VAR_NAMES[:arity]
        stripped = text.replace(" ", "")
        if stripped in ("", "0"):
            return cls.zero(arity)
        # split into signed chunks
        chunks: list = []
        current = ""
        for ch in stripped:
            if ch in "+-" and current and current[-1] not in "+-*/^":
                chunks.append(current)
                current = ch
            else:
                current += ch
        chunks.append(current)
        terms: dict = {}
        for chunk in chunks:
            sign = 1
            while chunk and chunk[0] in "+-":
                if chunk[0] == "-":
                    sign = -sign
                chunk = chunk[1:]
            coeff = Fraction(sign)
            exps = [0] * arity
            for factor in chunk.split("*"):
                if not factor:
                    raise ValueError(f"cannot parse term in {text!r}")
                if factor[0].isdigit():
                    coeff *= Fraction(factor)
                else:
                    if "^" in factor:
                        name, _, power = factor.partition("^")
                        e = int(power)
                    else:
                        name, e = factor, 1
                    if name not in names:
                        raise ValueError(f"unknown variable {name!r} in {text!r}")
                    exps[names.index(name)] += e
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return cls(terms, arity)


def variables(arity: int) -> Iterable[Poly]:
    """Convenience tuple of variable polynomials, (x, y) or (x, y, z)."""
    return tuple(Poly.variable(name, arity) for name in _VAR_NAMES[:arity])
