"""Field derivation pipeline for the projected flow.

Each family's Ricci operator is stated once, as a table of Laurent
terms (ricci_terms).  From it this module derives the Ricci operator
components, the scalar curvature, a Lyapunov function for the projected
flow, the cleared polynomial field (F, G, H) on the cone, and the planar
projected field (u, v) on the simplex

    S = {(x, y): x > 0, y > 0, x + y < 1},  z = 1 - x - y.

The pipeline is: clear denominators of (-2x r_x, -2y r_y, -2z r_z) with
a positive monomial, read off the table as the family's constant times
the monomial of the least exponents, to get (F, G, H); project onto the
simplex via A = F - (F+G+H) x and B = G - (F+G+H) y; substitute
z = 1 - x - y.  All of it is exact rational arithmetic.

For numerics, (u, v) and the four Jacobian entries compile into two
groups, each the union of its monomials plus one float coefficient
matrix.  A group is evaluated over fixed blocks of points: the powers
0..deg of x and y come from one shared table built by repeated
multiplication, both factors of every monomial from one gather of its
rows and the monomials from one in-place multiply, and the values from
one matrix product.  A block of one point is evaluated as two, so every
row goes through the same matrix product and its value does not depend
on the batch it is evaluated in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .catalog import KIND_SO, KIND_TYPE1, FamilyDescriptor, su_params
from .polyalg import Poly, expand_z

F = Fraction
# how far a float point may lie outside the closed simplex and still count as on it
BOUNDARY_EXIT_TOL = 1e-9


def outside_simplex(x, y):
    """Whether (x, y) lies outside the closed simplex, slack BOUNDARY_EXIT_TOL;
    x and y are numbers or same-shape arrays."""
    return (x < -BOUNDARY_EXIT_TOL) | (y < -BOUNDARY_EXIT_TOL) | (x + y > 1.0 + BOUNDARY_EXIT_TOL)


def _check_positive(m: Sequence) -> None:
    if len(m) != 3:
        raise ValueError("metric must have three components")
    # nan fails both comparisons
    if not all(np.all((v > 0) & (v < math.inf)) for v in m):
        raise ValueError(f"metric components must be positive and finite, got {tuple(m)}")


# the monomials of the Ricci operators as exponent triples of (x, y, z)
_X_YZ, _Y_XZ, _Z_XY = (1, -1, -1), (-1, 1, -1), (-1, -1, 1)
_INV_X, _INV_Y, _INV_Z = (-1, 0, 0), (0, -1, 0), (0, 0, -1)
_Y_XX = (-2, 1, 0)
_HALF = F(1, 2)


@functools.cache
def ricci_terms(family: FamilyDescriptor) -> tuple:
    """The family's Ricci operator as a Laurent term table.

    Returns (k, (r_x, r_y, r_z)).  Each r_i is a tuple of (c, (a, b, e))
    entries meaning c x^a y^b z^e; a monomial may repeat, and its entries
    then add.  k is the positive constant of the clearing factor: 2s for
    su(m, n, p) with s = m + n + p, and 4 delta d1 d2 for Type I with
    delta = d1 + 4 d2 + 9 d3.  The other Type II families take the table
    of their su_params: the E6 flag that of su(1, 1, 1), and so(l) that
    of su(l - 2, l - 2, 2) with x and z exchanged, (x, y) -> (1 - x - y,
    y), so its coefficients of x and z swap and k = 4(l - 1).
    """
    if family.kind == KIND_TYPE1:
        d1, d2, d3 = family.dims
        delta = d1 + 4 * d2 + 9 * d3
        e = -d1 * d2 - 2 * d1 * d3 + d2 * d3
        c1 = F(d3 * (d1 + d2), 2 * d1 * delta)
        c2 = F(d3 * (d1 + d2), 2 * d2 * delta)
        c3 = F(d1 + d2, 2 * delta)
        return 4 * delta * d1 * d2, (
            ((F(e, 2 * d1 * delta), _Y_XX), (c1, _X_YZ), (-c1, _Z_XY), (-c1, _Y_XZ), (_HALF, _INV_X)),
            ((F(-e, 4 * d2 * delta), _Y_XX), (F(e, 2 * d2 * delta), _INV_Y), (-c2, _X_YZ), (-c2, _Z_XY),
             (c2, _Y_XZ), (_HALF, _INV_Y)),
            ((-c3, _X_YZ), (c3, _Z_XY), (-c3, _Y_XZ), (_HALF, _INV_Z)),
        )
    m, n, p = su_params(family)
    s = m + n + p
    k, cx, cy, cz = 2 * s, F(p, 4 * s), F(n, 4 * s), F(m, 4 * s)
    if family.kind == KIND_SO:
        cx, cz = cz, cx
    return k, (
        ((cx, _X_YZ), (-cx, _Z_XY), (-cx, _Y_XZ), (_HALF, _INV_X)),
        ((cy, _Y_XZ), (-cy, _X_YZ), (-cy, _Z_XY), (_HALF, _INV_Y)),
        ((cz, _Z_XY), (-cz, _X_YZ), (-cz, _Y_XZ), (_HALF, _INV_Z)),
    )


def ricci_components(family: FamilyDescriptor, m: Sequence) -> tuple:
    """Ricci operator multiples (r_x, r_y, r_z) at the metric (x, y, z).

    Exact when the components are int or Fraction.  Floats and arrays go
    through numpy alike, so a number gets the value of an array entry.
    """
    _check_positive(m)
    exact = all(isinstance(v, (int, Fraction)) for v in m)
    x, y, z = (F(v) if exact else np.asarray(v, dtype=float) for v in m)
    _k, table = ricci_terms(family)
    # float coefficients for float input: Fraction * ndarray is an object array
    return tuple(
        sum((c if exact else float(c)) * x**a * y**b * z**e for c, (a, b, e) in r) for r in table
    )


def scalar_curvature(family: FamilyDescriptor, m: Sequence):
    """S = d1 r_x + d2 r_y + d3 r_z."""
    rx, ry, rz = ricci_components(family, m)
    d1, d2, d3 = family.dims
    return d1 * rx + d2 * ry + d3 * rz


def _exact_curvature(family: FamilyDescriptor, points) -> list:
    """S = s 2^e at each point of exact (int, Fraction or float) coordinates,
    as (s, e) with s the exact value's correctly rounded float near 1.

    Over a common denominator D the coordinates are integers X, Y, Z, and
    S = D S(X, Y, Z), Ric having degree -1; the table's terms, cleared by
    X^2 Y^2 Z^2 and their common denominator, sum to an integer there."""
    _k, table = ricci_terms(family)
    merged: dict = {}
    for d, r in zip(family.dims, table):
        for c, (a, b, e) in r:
            merged[a + 2, b + 2, e + 2] = merged.get((a + 2, b + 2, e + 2), 0) + d * c
    den = math.lcm(*(c.denominator for c in merged.values()))
    terms = [(c.numerator * (den // c.denominator), exps) for exps, c in merged.items()]
    out = []
    for m in points:
        ratios = [v.as_integer_ratio() for v in m]
        d = math.lcm(*(q for _p, q in ratios))
        # the powers 0..3 of each, the cleared exponents being 0..3
        x, y, z = ([1, v, v * v, v**3] for v in (p * (d // q) for p, q in ratios))
        num, below = d * sum(c * x[a] * y[b] * z[e] for c, (a, b, e) in terms), den * x[2] * y[2] * z[2]
        e = num.bit_length() - below.bit_length()
        out.append(((num << max(0, -e)) / (below << max(0, e)), e))
    return out


def lyapunov_value(family: FamilyDescriptor, m: Sequence):
    """Scale-invariant quantity that strictly decreases along the flow.

    The value is -S(m) (x^d1 y^d2 z^d3)^(1/d) with d the total
    dimension.  It is invariant under m -> lambda m, finite on the open
    cone, and constant exactly at equilibria of the projected flow.
    Components may be same-shape arrays; S is exact for int or Fraction
    (and the volume factor then taken from their exact logarithms), and
    at a float point whose least coordinate is below 2^-257.  Raises
    ValueError unless every component is positive.
    """
    _check_positive(m)
    d1, d2, d3 = family.dims
    if all(isinstance(v, (int, Fraction)) for v in m):
        ((s, k),) = _exact_curvature(family, [m])
        logs = (math.log(F(v).numerator) - math.log(F(v).denominator) for v in m)
        vol_pow = math.exp(sum(d * lg for d, lg in zip(family.dims, logs)) / family.total_dim)
    else:
        x, y, z = (np.asarray(v, dtype=float) for v in m)
        # below 2^-257 a term such as y/x^2 of the degree -1 table can
        # overflow, and a subnormal coordinate's ratio to another does at
        # any scale, so there S is exact, as s 2^k
        least = np.fmin(np.fmin(x, y), z)
        s, k, tiny = np.empty(x.shape), np.zeros(x.shape, dtype=int), least < 2.0**-257
        s[~tiny] = scalar_curvature(family, (x[~tiny], y[~tiny], z[~tiny]))
        idx = np.flatnonzero(tiny)
        for i, (si, ei) in zip(idx, _exact_curvature(family, zip(x.flat[idx], y.flat[idx], z.flat[idx]))):
            s.flat[i], k.flat[i] = si, ei
        vol_pow = np.exp((d1 * np.log(x) + d2 * np.log(y) + d3 * np.log(z)) / family.total_dim)
    with np.errstate(over="ignore"):  # a value beyond the float range rounds to -inf or inf
        return np.ldexp(-s * vol_pow, k)


def lyapunov_planar(family: FamilyDescriptor, x, y):
    """Lyapunov value at the lifted points (x, y, 1-x-y).

    x and y are numbers (giving a float) or same-shape arrays.  The value
    is -inf where exactly one coordinate has degenerated (the flow runs
    toward such strata) and +inf where two have (it runs away from them),
    so trajectory monotonicity extends to the boundary.  A nan or
    infinite x or y, or a point more than BOUNDARY_EXIT_TOL outside the
    closed simplex, raises ValueError.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"x and y must be finite, got {x}, {y}")
    if outside_simplex(x, y).any():
        raise ValueError(f"(x, y) must lie in the closed simplex, got {x}, {y}")
    z = np.asarray(1.0 - x - y)
    degenerate = (x <= 0.0).astype(int) + (y <= 0.0) + (z <= 0.0)
    out = np.where(degenerate >= 2, np.inf, -np.inf)
    inside = degenerate == 0
    out[inside] = lyapunov_value(family, (x[inside], y[inside], z[inside]))
    return out if out.ndim else float(out)


def cleared_field(family: FamilyDescriptor) -> Tuple[Poly, Poly, Poly]:
    """The cleared field (F, G, H) = f (-2x r_x, -2y r_y, -2z r_z).

    The clearing factor f is k times the monomial that lifts the least
    exponent of each variable over all terms of x r_x, y r_y and z r_z
    to zero, so F, G and H are polynomials and no monomial divides all
    three.  Every coefficient 2 k c is an integer; ArithmeticError
    otherwise.
    """
    k, table = ricci_terms(family)
    # x_i r_i: the i-th exponent of each term of r_i raised by one
    lifted = [
        [(c, tuple(a + (j == i) for j, a in enumerate(exps))) for c, exps in r]
        for i, r in enumerate(table)
    ]
    low = [min(exps[j] for r in lifted for _c, exps in r) for j in range(3)]
    out = []
    for r in lifted:
        terms: dict = {}
        for c, exps in r:
            n = 2 * k * c
            if n.denominator != 1:
                raise ArithmeticError(f"cleared coefficient {n} of {family.id} is not an integer")
            key = tuple(a - lo for a, lo in zip(exps, low))
            terms[key] = terms.get(key, 0) - n.numerator
        out.append(Poly(terms, 3))
    return tuple(out)


# points per evaluation pass; the power table and the monomial block of
# one pass stay in cache and bound the temporaries for any batch size.
# At 16 monomials one pass allocates ~0.7 MB, which malloc keeps reusing;
# at 4096 points (~1.4 MB) every pass handed its pages back to the OS and
# faulted them in again, 3-4x the page faults with no gain in speed.
_BLOCK = 2048


def _compile(polys: Sequence[Poly]) -> tuple:
    """Union of the monomials of polys and their coefficient matrix.

    Returns (gather, coeffs, deg).  The power table of a block holds x^i
    at row 2i and y^j at row 2j + 1; gather[0, k] and gather[1, k] are the
    rows of x^i and y^j for the k-th monomial x^i y^j.  coeffs[k, n] is its
    coefficient in polys[n] and deg the highest power of x or y the table
    needs (at least 1).  Zero polys have no monomials, and their group
    evaluates to zeros.
    """
    monos = sorted(set().union(*(p.terms for p in polys)))
    exps = np.array(monos, dtype=np.intp).reshape(-1, 2)
    coeffs = np.array([[float(p.terms.get(m, 0)) for p in polys] for m in monos]).reshape(-1, len(polys))
    return 2 * exps.T + [[0], [1]], coeffs, max(1, int(exps.max(initial=0)))


def _eval_group(compiled: tuple, points) -> np.ndarray:
    """Values of the compiled polynomials at points (..., 2), shape (..., n_polys)."""
    gather, coeffs, deg = compiled
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    out = np.empty((flat.shape[0], coeffs.shape[1]))
    for start in range(0, flat.shape[0], _BLOCK):
        rows = flat[start : start + _BLOCK]
        # numpy hands a one-row product to gemv, which rounds apart from
        # the gemm that evaluates the same row among others; a lone row
        # goes in twice, so no row's value depends on its batch
        block = (rows if len(rows) > 1 else rows.repeat(2, axis=0)).T
        powers = np.empty((deg + 1,) + block.shape)
        powers[0] = 1.0
        powers[1] = block
        # the contiguous copy of the points multiplies faster than their
        # strided transpose and holds the same values
        for k in range(2, deg + 1):
            np.multiply(powers[k - 1], powers[1], out=powers[k])
        # both factors of every monomial in one gather, then x^i *= y^j
        factors = powers.reshape(-1, block.shape[1]).take(gather, axis=0)
        monos = np.multiply(factors[0], factors[1], out=factors[0])
        if len(rows) > 1:
            np.matmul(monos.T, coeffs, out=out[start : start + _BLOCK])
        else:
            out[start] = (monos.T @ coeffs)[0]
    return out.reshape(pts.shape[:-1] + coeffs.shape[1:])


def row_max_abs(a: np.ndarray) -> np.ndarray:
    """Row-wise max(|a[:, 0]|, |a[:, 1]|) of an (n, 2) array; NaN propagates.

    Same values as numpy's max reduction of np.abs(a) over axis 1, which
    is many times slower on a length-2 axis.
    """
    return np.maximum(np.abs(a[:, 0]), np.abs(a[:, 1]))


def keep_rows(mask: np.ndarray, *arrays) -> tuple:
    """The rows of each array where mask is set.

    numpy's boolean and fancy indexing of 2-D arrays is several times
    slower than take along the first axis, which gives the same rows.
    """
    idx = np.flatnonzero(mask)
    return tuple(a.take(idx, axis=0) for a in arrays)


@dataclass(frozen=True)
class ProjectedField:
    """The planar field (u, v) with exact polynomials and fast numerics.

    `scale` is the largest absolute coefficient of u and v.  `rhs` and
    `jacobian` return the raw field; the zero residuals and the separatrix
    eigenvectors divide it by `scale` so that their tolerances mean the
    same thing across families whose coefficients span five orders of
    magnitude.

    `rhs` and `jacobian` evaluate two compiled groups: (u, v) and the
    four Jacobian entries.  Each group is the union of its monomials plus
    one float coefficient matrix; evaluation shares one power table of x
    and y built by multiplication and runs over fixed blocks of points.
    The Jacobian entries, `scale` and both groups are derived from u and v
    on construction, so dataclasses.replace(field, u=..., v=...) gives a
    field whose numerics are those of the new u and v.
    """

    family: FamilyDescriptor
    u: Poly
    v: Poly
    # derived from u and v, so equality and repr cover family, u and v only
    du_dx: Poly = dc_field(init=False, compare=False, repr=False)
    du_dy: Poly = dc_field(init=False, compare=False, repr=False)
    dv_dx: Poly = dc_field(init=False, compare=False, repr=False)
    dv_dy: Poly = dc_field(init=False, compare=False, repr=False)
    scale: float = dc_field(init=False, compare=False, repr=False)
    _field_group: tuple = dc_field(init=False, compare=False, repr=False)
    _jacobian_group: tuple = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        jac = (self.u.diff("x"), self.u.diff("y"), self.v.diff("x"), self.v.diff("y"))
        scale = float(max((abs(c) for p in (self.u, self.v) for c in p.terms.values()), default=0))
        derived = dict(zip(("du_dx", "du_dy", "dv_dx", "dv_dy"), jac), scale=scale,
                       _field_group=_compile((self.u, self.v)), _jacobian_group=_compile(jac))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def degree(self) -> int:
        return max(self.u.degree(), self.v.degree())

    def rhs(self, points: np.ndarray) -> np.ndarray:
        """Field values at points with shape (..., 2)."""
        return _eval_group(self._field_group, points)

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        """Jacobian [[du/dx, du/dy], [dv/dx, dv/dy]] at points (..., 2)."""
        out = _eval_group(self._jacobian_group, points)
        return out.reshape(out.shape[:-1] + (2, 2))


def projected_field(family: FamilyDescriptor) -> ProjectedField:
    """Derive the planar projected field (u, v) for the family.

    (A, B) = (F, G) - (F + G + H) (x, y) and z = 1 - x - y, on the
    integer terms of the cleared field.
    """
    cleared = [p.terms for p in cleared_field(family)]
    uv = []
    for i in (0, 1):
        terms = dict(cleared[i])
        for (a, b, e), c in (t for p in cleared for t in p.items()):
            terms[a + 1 - i, b + i, e] = terms.get((a + 1 - i, b + i, e), 0) - c
        uv.append(Poly(expand_z(terms), 2))
    return ProjectedField(family, *uv)
