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
multiplication, the monomials from one gather-multiply, and the values
from one matrix product.  A block of one point is evaluated as two, so
every row goes through the same matrix product and its value does not
depend on the batch it is evaluated in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .catalog import KIND_SO, KIND_SU, KIND_TYPE1, FamilyDescriptor
from .polyalg import Poly, variables

F = Fraction


def _check_positive(m: Sequence) -> None:
    if len(m) != 3:
        raise ValueError("metric must have three components")
    if any(np.any(v <= 0) for v in m):
        raise ValueError(f"metric components must be positive, got {tuple(m)}")


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
    su(m, n, p) with s = m + n + p, 4(l - 1) for so(l), 6 for the E6 flag
    (whose operator is that of su(1, 1, 1)) and 4 delta d1 d2 for Type I
    with delta = d1 + 4 d2 + 9 d3.
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
            (
                (F(-e, 4 * d2 * delta), _Y_XX),
                (F(e, 2 * d2 * delta), _INV_Y),
                (-c2, _X_YZ),
                (-c2, _Z_XY),
                (c2, _Y_XZ),
                (_HALF, _INV_Y),
            ),
            ((-c3, _X_YZ), (c3, _Z_XY), (-c3, _Y_XZ), (_HALF, _INV_Z)),
        )
    if family.kind == KIND_SO:
        ell = family.params[0]
        c = F(ell - 2, 8 * (ell - 1))
        k, cx, cy, cz = 4 * (ell - 1), c, c, F(1, 4 * (ell - 1))
    else:
        m, n, p = family.params if family.kind == KIND_SU else (1, 1, 1)
        s = m + n + p
        k, cx, cy, cz = 2 * s, F(p, 4 * s), F(n, 4 * s), F(m, 4 * s)
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


def lyapunov_value(family: FamilyDescriptor, m: Sequence):
    """Scale-invariant quantity that strictly decreases along the flow.

    The value is -S(m) (x^d1 y^d2 z^d3)^(1/d) with d the total
    dimension.  It is invariant under m -> lambda m, finite on the open
    cone, and constant exactly at equilibria of the projected flow.
    Components may be same-shape arrays; S is exact for int or Fraction.
    """
    s = scalar_curvature(family, m)
    d1, d2, d3 = family.dims
    x, y, z = (np.asarray(v, dtype=float) for v in m)
    vol_pow = np.exp((d1 * np.log(x) + d2 * np.log(y) + d3 * np.log(z)) / family.total_dim)
    return -np.asarray(s, dtype=float) * vol_pow


def lyapunov_planar(family: FamilyDescriptor, x, y):
    """Lyapunov value at the lifted points (x, y, 1-x-y).

    x and y are numbers (giving a float) or same-shape arrays.  The value
    is -inf where exactly one coordinate has degenerated (the flow runs
    toward such strata) and +inf where two have (it runs away from them),
    so trajectory monotonicity extends to the boundary.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
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
    three.
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
            key = tuple(a - lo for a, lo in zip(exps, low))
            terms[key] = terms.get(key, 0) - 2 * k * c
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

    Returns (exps, coeffs, deg): exps[k] is the (i, j) exponent pair of
    the k-th monomial x^i y^j, coeffs[k, n] its coefficient in polys[n]
    and deg the highest power of x or y the power table needs (at least 1).
    """
    monos = sorted(set().union(*(p.terms for p in polys)))
    exps = np.array(monos, dtype=np.intp)
    coeffs = np.array([[float(p.terms.get(m, 0)) for p in polys] for m in monos])
    return exps, coeffs, max(1, int(exps.max()))


def _eval_group(compiled: tuple, points) -> np.ndarray:
    """Values of the compiled polynomials at points (..., 2), shape (..., n_polys)."""
    exps, coeffs, deg = compiled
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    out = np.empty((flat.shape[0], coeffs.shape[1]))
    for start in range(0, flat.shape[0], _BLOCK):
        rows = flat[start : start + _BLOCK]
        # numpy hands a one-row product to gemv, which rounds apart from
        # the gemm that evaluates the same row among others; a lone row
        # goes in twice, so no row's value depends on its batch
        block = (rows if len(rows) > 1 else np.repeat(rows, 2, axis=0)).T
        powers = np.empty((deg + 1,) + block.shape)
        powers[0] = 1.0
        powers[1] = block
        for k in range(2, deg + 1):
            np.multiply(powers[k - 1], block, out=powers[k])
        monos = powers[exps[:, 0], 0]
        monos *= powers[exps[:, 1], 1]
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

    `scale` is the largest absolute coefficient of u and v; residuals and
    integration use the field divided by it so that tolerances mean the
    same thing across families whose coefficients span five orders of
    magnitude.

    `rhs` and `jacobian` evaluate two compiled groups: (u, v) and the
    four Jacobian entries.  Each group is the union of its monomials plus
    one float coefficient matrix; evaluation shares one power table of x
    and y built by multiplication and runs over fixed blocks of points.
    """

    family: FamilyDescriptor
    u: Poly
    v: Poly
    du_dx: Poly
    du_dy: Poly
    dv_dx: Poly
    dv_dy: Poly
    scale: float
    _field_group: tuple
    _jacobian_group: tuple

    def eval_exact(self, x, y) -> tuple:
        return self.u.eval((x, y)), self.v.eval((x, y))

    def degree(self) -> int:
        return max(self.u.degree(), self.v.degree())

    def rhs(self, points: np.ndarray, normalized: bool = True) -> np.ndarray:
        """Field values at points with shape (..., 2)."""
        out = _eval_group(self._field_group, points)
        if normalized:
            out /= self.scale
        return out

    def jacobian(self, points: np.ndarray, normalized: bool = False) -> np.ndarray:
        """Jacobian [[du/dx, du/dy], [dv/dx, dv/dy]] at points (..., 2)."""
        out = _eval_group(self._jacobian_group, points)
        out = out.reshape(out.shape[:-1] + (2, 2))
        if normalized:
            out /= self.scale
        return out


def projected_field(family: FamilyDescriptor) -> ProjectedField:
    """Derive the planar projected field (u, v) for the family."""
    fp, gp, hp = cleared_field(family)
    total = fp + gp + hp
    x3, y3, _ = variables(3)
    a = fp - total * x3
    b = gp - total * y3
    u = a.substitute_z()
    v = b.substitute_z()
    du_dx, du_dy = u.diff("x"), u.diff("y")
    dv_dx, dv_dy = v.diff("x"), v.diff("y")
    scale = float(max(abs(c) for p in (u, v) for c in p.terms.values()))
    return ProjectedField(
        family=family,
        u=u,
        v=v,
        du_dx=du_dx,
        du_dy=du_dy,
        dv_dx=dv_dx,
        dv_dy=dv_dy,
        scale=scale,
        _field_group=_compile((u, v)),
        _jacobian_group=_compile((du_dx, du_dy, dv_dx, dv_dy)),
    )
