"""Exact integer arithmetic for sparse polynomials and their real roots.

Polynomials live in up to three variables (x, y, z) with integer
coefficients.  Everything downstream that claims bit-exactness (field
derivation, printed-polynomial comparison, symbolic Jacobians) is built
on this module; floats only enter once a Poly is evaluated at a float
point.

The univariate part eliminates a variable exactly.  A univariate
polynomial is a list of integer (or, where noted, Fraction)
coefficients, lowest degree first, without trailing zeros.  It has
pseudo-division, gcd, square-free parts, the subresultants of two
polynomials in y over Z[x] from one subresultant PRS, real-root
isolation by Sturm sequences and refinement by Newton steps safeguarded
by bisection, and the sign of a polynomial at an isolated root,
certified by a bound on its derivative or else by a Sturm-Tarski
sequence, all in integer arithmetic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import zip_longest
from typing import Mapping, Sequence, Union

_VAR_NAMES = ("x", "y", "z")


class Poly:
    """Sparse polynomial: map from exponent tuples to nonzero ints.

    Canonical form is maintained on construction: zero coefficients are
    dropped and terms are stored in ascending exponent-tuple order.  So
    equality of term maps is equality of polynomials, and equal
    polynomials add their terms in the same order when evaluated at a
    float point, giving bit-identical values however they were built.
    Instances are treated as immutable; no method mutates self.
    """

    __slots__ = ("terms", "arity")

    def __init__(self, terms: Mapping[tuple, int], arity: int):
        if arity not in (2, 3):
            raise ValueError(f"arity must be 2 or 3, got {arity}")
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ValueError(f"exponent tuple {exps} does not match arity {arity}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if not isinstance(c, int):
                raise TypeError(f"expected an int coefficient, got {type(c).__name__}")
            if c:
                clean[exps] = clean[exps] + c if exps in clean else c
        object.__setattr__(self, "terms", {e: clean[e] for e in sorted(clean) if clean[e] != 0})
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def diff(self, var: str) -> "Poly":
        names = _VAR_NAMES[: self.arity]
        if var not in names:
            raise ValueError(f"unknown variable {var!r} for arity {self.arity}")
        idx = names.index(var)
        # distinct terms have distinct derivatives
        return Poly({e[:idx] + (e[idx] - 1,) + e[idx + 1 :]: c * e[idx] for e, c in self.terms.items() if e[idx]},
                    self.arity)

    def eval(self, point: Sequence) -> Union[Fraction, float, complex]:
        """Evaluate at a point.

        Exact (a Fraction) when every coordinate is an int or Fraction;
        ordinary floating point otherwise.
        """
        if len(point) != self.arity:
            raise ValueError(f"point length {len(point)} does not match arity {self.arity}")
        exact = all(isinstance(v, (int, Fraction)) for v in point)
        if not exact:
            point = [float(v) if isinstance(v, (int, Fraction)) else v for v in point]
        total = Fraction(0) if exact else 0.0
        for exps, c in self.terms.items():
            term = c if exact else float(c)
            for v, e in zip(point, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def in_y(self) -> list:
        """Coefficients in y, lowest power first, each an integer list in x."""
        if self.arity != 2:
            raise ValueError("in_y requires an arity-2 polynomial")
        n = self.degree() + 1
        out = [[0] * n for _ in range(n)]
        for (i, j), c in self.terms.items():
            out[j][i] = c
        return _trim(_trim(c) for c in out)

    def to_text(self) -> str:
        """Render as a monomial sum, e.g. ``-32*x^3*y + 6*x^3 - x + 3``,
        in descending graded lexicographic order."""
        pieces = []
        for exps, coeff in sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True):
            mono = [name if e == 1 else f"{name}^{e}" for name, e in zip(_VAR_NAMES, exps) if e]
            mag = abs(coeff)
            pieces.append(("+ " if coeff > 0 else "- ") + "*".join(mono if mono and mag == 1 else [str(mag)] + mono))
        text = " ".join(pieces)
        return (text[2:] if text[0] == "+" else "-" + text[2:]) if text else "0"


def expand_z(terms: Mapping[tuple, int]) -> dict:
    """The terms in (x, y) of terms in (x, y, z) under z = 1 - x - y: each
    c x^a y^b z^e expands by the trinomial coefficients of (1 - x - y)^e,
    (-1)^(i + j) e! / (i! j! (e - i - j)!) on x^i y^j; ints stay ints."""
    out: dict = {}
    for (ex, ey, ez), c in terms.items():
        for i in range(ez + 1):
            ci = c * ((-1) ** i * math.comb(ez, i))
            for j in range(ez - i + 1):
                key = (ex + i, ey + j)
                out[key] = out.get(key, 0) + ci * ((-1) ** j * math.comb(ez - i, j))
    return out


# ----------------------------------------------------------------------
# univariate polynomials


def _trim(p) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def sub(p: list, q: list) -> list:
    """p - q."""
    return _trim(a - b for a, b in zip_longest(p, q, fillvalue=0))


def _mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _exact_div(p: list, q: list) -> list:
    """The quotient p / q, for q dividing p in Z[x]."""
    p, n = list(p), len(q) - 1
    out = [0] * max(0, len(p) - n)
    for i in range(len(out) - 1, -1, -1):
        out[i] = p[i + n] // q[-1]
        for j, b in enumerate(q):
            p[i + j] -= out[i] * b
    return out


def value_at(p: list, r) -> Fraction:
    """p(r), exactly for a rational r = a / d: d^deg(p) p(r) in integers,
    then one division."""
    a, d = r.as_integer_ratio()
    return Fraction(_scaled(p, a, d), d ** max(len(p) - 1, 0))


def _scaled(p: list, c: int, d: int) -> int:
    """d^deg(p) p(c / d), by Horner's rule in integers.

    _dyadic is this for d = 2^k; its shifts take half the time of these
    products at the k of Sturm isolation, so it stays apart.
    """
    out, dk = 0, 1
    for a in reversed(p):
        out = out * c + a * dk
        dk *= d
    return out


def at_x(rows: list, x) -> list:
    """d^I p(a / d, y) in integers, as coefficients in y, lowest power
    first, for p in Poly.in_y's form (rows[j] the integer coefficients in
    x of y^j) at a rational x = a / d, with I the highest power of x."""
    a, d = x.as_integer_ratio()
    top = max(map(len, rows), default=1) - 1
    return [_scaled(r, a, d) * d ** (top + 1 - len(r)) for r in rows]


def scaled_at_xy(rows: list, x: Fraction, y: Fraction, top: int) -> int:
    """(d e)^top p(x, y) in integers, for p in Poly.in_y's form at rational
    x = a / d and y = b / e and a top at least p's degrees in x and in y:
    Horner's rule in y over at_x's integers gives d^I e^J p(x, y), for I
    and J those degrees, and the rest of the scale is a product."""
    d, (b, e) = x.as_integer_ratio()[1], y.as_integer_ratio()
    i, j = max(map(len, rows), default=1) - 1, max(len(rows), 1) - 1
    return _scaled(at_x(rows, x), b, e) * d ** (top - i) * e ** (top - j)


def taylor_shift(poly: Poly, center) -> dict:
    """The Fraction coefficients of poly(center + w) for an arity-2 poly
    and a rational center, keyed by the exponents of w: every pair at or
    below one of poly's, zero or not.  The binomial expansion runs in
    integers scaled by (d e)^top for the denominators d and e of the
    center, divided out once per key."""
    (a, d), (b, e) = ((Fraction(c).numerator, Fraction(c).denominator) for c in center)
    top = max(poly.degree(), 0)
    out: dict = {}
    for (i, j), c in poly.terms.items():
        n = c * d ** (top - i) * e ** (top - j)
        for s in range(i + 1):
            ns = n * math.comb(i, s) * a ** (i - s) * d**s
            for t in range(j + 1):
                out[s, t] = out.get((s, t), 0) + ns * math.comb(j, t) * b ** (j - t) * e**t
    return {k: Fraction(v, (d * e) ** top) for k, v in out.items()}


def restrict_to_line(rows: list, point, direction) -> list:
    """p(x0 + dx t, y0 + dy t) as coefficients in t, lowest degree first,
    for p in Poly.in_y's form, a rational point (x0, y0) and a rational
    direction (dx, dy).  Empty exactly when p vanishes on the line.

    Horner's rule in x on each row, then in y over the rows, every step
    a product with the line's linear polynomial in t.
    """
    (x0, y0), (dx, dy) = point, direction
    out: list = []
    for row in reversed(rows):
        inner: list = []
        for a in reversed(row):
            inner = sub([a], _mul(inner, [-x0, -dx]))
        out = sub(inner, _mul(out, [-y0, -dy]))
    return out


def primitive(p: list) -> list:
    """p (integer or Fraction coefficients) scaled to coprime integer
    coefficients with a positive leading one."""
    den = math.lcm(*(a.denominator for a in p))
    ints = _trim(int(a * den) for a in p)
    g = math.gcd(*ints) if ints and ints[-1] > 0 else -math.gcd(*ints)
    return [a // g for a in ints]


def pseudo_rem(p: list, q: list) -> list:
    """The r of lc(q)^(deg p - deg q + 1) p = s q + r with deg r < deg q."""
    r = list(p)
    for k in range(len(p) - len(q), -1, -1):
        c = r[k + len(q) - 1]
        r = [a * q[-1] for a in r]
        for j, b in enumerate(q):
            r[k + j] -= c * b
    return _trim(r[: len(q) - 1])


def _remainders(p: list, q: list) -> list:
    """The signed remainder sequence p, q, -rem(p, q), ... of integer
    polynomials up to its last nonzero member, each member divided by a
    positive constant.  The last member is gcd(p, q) up to a constant."""
    seq = [p, q]
    while seq[-1]:
        a, b = seq[-2:]
        # pseudo_rem multiplies a by lc(b) once per quotient term
        flip = b[-1] < 0 and max(0, len(a) - len(b) + 1) % 2
        r = [c if flip else -c for c in pseudo_rem(a, b)]
        seq.append([c // math.gcd(*r) for c in r])
    return seq[:-1]


def gcd(p: list, q: list) -> list:
    """Primitive greatest common divisor (Fraction coefficients allowed)."""
    return primitive(_remainders(primitive(p), primitive(q))[-1])


def squarefree(p: list) -> list:
    """Primitive square-free part p / gcd(p, p') of a nonzero p."""
    p = primitive(p)
    return primitive(_exact_div(p, gcd(p, [i * a for i, a in enumerate(p)][1:])))


def _pow(p: list, e: int) -> list:
    return functools.reduce(_mul, [p] * e, [1])


def _prem_y(p: list, q: list) -> list:
    """pseudo_rem for polynomials in y over Z[x], as Poly.in_y gives them."""
    r, lead = list(p), q[-1]
    for k in range(len(p) - len(q), -1, -1):
        c = r.pop()
        r = [_mul(a, lead) for a in r]
        for j, b in enumerate(q[:-1]):
            r[k + j] = sub(r[k + j], _mul(c, b))
    return _trim(r)


def subresultants(f: list, g: list) -> list:
    """Entry j holds the coefficients s_0, ..., s_j in Z[x] of the j-th
    subresultant in y of f and g, for every j up to min(m, n) but a j > 0
    equal to both; entry 0 is Res_y(f, g).

    f and g are polynomials in y over Z[x], as Poly.in_y gives them, of
    degrees m and n.  s_i is the determinant of the rows y^(n-j-1) f, ...,
    f, y^(m-j-1) g, ..., g on the columns of y^(m+n-j-1) ... y^(j+1) and
    y^i, and 1 for two constants, which leave no rows.  Where
    gcd(f(x0, y), g(x0, y)) has degree j and s_j(x0) != 0, it is
    s_j(x0) y^j + ... + s_0(x0).  Raises ValueError for a zero f or g.

    One subresultant PRS gives them all (Collins, J. ACM 14, 1967).
    Each member after f and g is the pseudo-remainder of the two before
    it, A by B with d = deg A - deg B, divided exactly by
    (-1)^(d+1) lc(A) h_A^d (by (-1)^(d+1) alone for f by g), and is the
    entry of index deg B - 1.  A member B after f, d degrees below the one
    before, gives h_B = lc(B)^d / h_A^(d-1) (h_f = 1), the lead of the
    entry of index deg B, (lc(B) / h_A)^(d-1) B; the entries between and
    those below the last member are zero.
    """
    m, n = len(f) - 1, len(g) - 1
    if min(m, n) < 0:
        raise ValueError(f"no subresultants of polynomials of degrees {m} and {n} in y")
    if m < n:
        # swapping the two blocks of rows moves (m - j)(n - j) rows past each other
        return [[sub([], s) for s in sj] if (m - j) * (n - j) % 2 else sj for j, sj in enumerate(subresultants(g, f))]
    chain = [[[] for _ in range(j + 1)] for j in range(max(n + (m > n), 1))]
    chain[0][0] = [1] if m == 0 else []
    prev, cur, h, first = f, g, [1], True
    while cur:
        d, lc = len(prev) - len(cur), cur[-1]
        if not first:
            chain[len(prev) - 2] = cur + [[]] * (len(prev) - 1 - len(cur))
        if d > 1 or first and d:
            up, down = _pow(lc, d - 1), _pow(h, d - 1)
            chain[len(cur) - 1] = [_exact_div(_mul(c, up), down) for c in cur]
        beta = [1] if first else _mul(prev[-1], _pow(h, d))
        rem = [_exact_div(c, beta) for c in _prem_y(prev, cur)]
        prev, cur, first = cur, rem if d % 2 else [sub([], c) for c in rem], False
        h = _exact_div(_pow(lc, d), _pow(h, d - 1))
    return chain


def _dyadic(p: list, c: int, k: int) -> int:
    """2^(k deg p) p(c / 2^k): the sign of p at c / 2^k, in integers."""
    out = 0
    for i, a in enumerate(reversed(p)):
        out = out * c + (a << (k * i))
    return out


def _variations(seq: list, c: int, k: int) -> int:
    """Sign changes along the values of seq at c / 2^k, zeros dropped."""
    signs = [v > 0 for v in (_dyadic(s, c, k) for s in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _refine(p: list, c: int, k: int, left: int, bits: int):
    """p's one root in (c / 2^k, (c + 1) / 2^k), where p has the sign of
    left at c / 2^k and the other sign at (c + 1) / 2^k: its cell (c', bits),
    the interval (c' / 2^bits, (c' + 1) / 2^bits) that holds it, or the
    root itself as a Fraction where p vanishes at a point evaluated; (c, k)
    itself for k >= bits.

    The bracket [lo, up] at scale 2^bits holds the root; each point
    evaluated, the midpoint first, replaces the end where p has its sign.
    The next point from x is x - p(x) / p'(x), rounded toward x, if that is
    inside the bracket and its step at most half the last Newton step (or
    the bracket); a step that rounds to 0 probes x's neighbour inside the
    bracket, and only midpoints follow it; else it is the midpoint.  So at
    most bits - k Newton steps (of 2^(bits - k - 1), ..., 2, 1 at most), the
    probe and bits - k midpoints, each halving the bracket, make at most
    2 (bits - k) + 1 points.
    """
    if k >= bits:
        return c, k
    dp = [i * a for i, a in enumerate(p)][1:]
    lo, up = c << (bits - k), (c + 1) << (bits - k)
    x, last = (lo + up) >> 1, up - lo
    while True:
        val = _dyadic(p, x, bits)
        if not val:
            return Fraction(x, 1 << bits)
        if (val > 0) == (left > 0):
            lo = x
        else:
            up = x
        if up - lo == 1:
            return lo, bits
        slope = last and _dyadic(dp, x, bits)
        # val / slope is 2^bits p(x / 2^bits) / p'(x / 2^bits)
        step = abs(val) // abs(slope) if slope else None
        if step == 0:
            x, last = x + 1 if x == lo else x - 1, 0
        elif step and 2 * step <= last and lo < (newton := x - step if (val > 0) == (slope > 0) else x + step) < up:
            x, last = newton, step
        else:
            x = (lo + up) >> 1


def real_roots(p: list) -> list:
    """The real roots of a square-free p (as squarefree returns it) in
    [0, 1], ascending: rational ones as exact Fractions, every other one
    as the interval (c / 2^bits, (c + 1) / 2^bits) of Fractions that holds
    it, with bits = max(64, 2 bit_length(L)) for the leading coefficient L
    (or the narrower interval Sturm isolation ended on, for a root it could
    only isolate from another below 2^-bits).

    This answer is canonical, so any exact route to it gives the same
    value.  A linear p's root is -p_0 / p_1.  Otherwise Sturm's sequence
    counts the roots in each half of a bisection, evaluated once at each
    new midpoint, until each root is isolated, then one bracketed Newton
    loop (_refine) narrows it to its cell.  A rational root has a
    denominator dividing L, so it is the fraction of denominator at most
    L nearest the midpoint of its cell, narrower than 1 / L^2.
    """
    if len(p) == 2:
        root = Fraction(-p[0], p[1])
        return [root] if 0 <= root <= 1 else []
    sturm = _remainders(p, [i * a for i, a in enumerate(p)][1:])
    bits = max(64, 2 * p[-1].bit_length())
    found = [Fraction(0)] if not p[0] else []
    # (c, k, the sign changes at both ends): the interval (c / 2^k, (c + 1) / 2^k]
    stack = [(0, 0, _variations(sturm, 0, 0), _variations(sturm, 1, 0))]
    while stack:
        c, k, at_lo, at_up = stack.pop()
        count = at_lo - at_up
        if count == 1 and not _dyadic(p, c + 1, k):
            found.append(Fraction(c + 1, 1 << k))
        elif count == 1 and (left := _dyadic(p, c, k)):
            # p changes sign across its one root inside
            root = _refine(p, c, k, left, bits)
            if isinstance(root, tuple):
                c, k = root
                lo, up = Fraction(c, 1 << k), Fraction(c + 1, 1 << k)
                guess = ((lo + up) / 2).limit_denominator(abs(p[-1]))
                root = guess if lo < guess < up and not value_at(p, guess) else (lo, up)
            found.append(root)
        elif count:
            # more roots, or a root at the left end hides the sign change
            mid = _variations(sturm, 2 * c + 1, k + 1)
            stack += [(2 * c, k + 1, at_lo, mid), (2 * c + 1, k + 1, mid, at_up)]
    return sorted(found, key=lambda r: r if isinstance(r, Fraction) else r[0])


def _tarski_sign(h: list, p: list, c: int, k: int) -> int:
    """Sign of h at the one root of p in (c / 2^k, (c + 1) / 2^k], by
    Sturm's theorem in Tarski's form: the drop in sign changes across
    the interval of the signed remainder sequence of p and p' h."""
    seq = _remainders(p, _mul([i * a for i, a in enumerate(p)][1:], h))
    return _variations(seq, c, k) - _variations(seq, c + 1, k)


def sign_at(h: list, p: list, root: tuple) -> int:
    """Sign (-1, 0 or 1) of h at an irrational root of the square-free p.

    root is the interval (lo, up) in [0, 1] that real_roots(p) gave for
    it.  Where |h(lo)| > (up - lo) sum i |h_i|, a bound on |h'| over
    [0, 1] times the width, h has no zero in the interval and takes the
    sign of h(lo); elsewhere _tarski_sign decides.
    """
    lo, up = root
    k = (up - lo).denominator.bit_length() - 1
    c = int(lo * (1 << k))
    val = _dyadic(h, c, k)
    # both sides of the bound times 2^(k deg h)
    if not h or abs(val) > sum(i * abs(a) for i, a in enumerate(h)) << (k * max(len(h) - 2, 0)):
        return (val > 0) - (val < 0)
    return _tarski_sign(h, p, c, k)
