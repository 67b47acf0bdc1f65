"""Field derivation pipeline for the projected flow.

Per family this module produces the Ricci operator components, the
scalar curvature, a Lyapunov function for the projected flow, the
cleared polynomial field (F, G, H) on the cone, and the planar
projected field (u, v) on the simplex

    S = {(x, y): x > 0, y > 0, x + y < 1},  z = 1 - x - y.

The pipeline is: clear denominators of (-2x r_x, -2y r_y, -2z r_z) with
a positive monomial to get (F, G, H); project onto the simplex via
A = F - (F+G+H) x and B = G - (F+G+H) y; substitute z = 1 - x - y.
All of it is exact rational arithmetic.

For numerics, (u, v) and the four Jacobian entries compile into two
groups, each the union of its monomials plus one float coefficient
matrix.  A group is evaluated over fixed blocks of points: the powers
0..deg of x and y come from one shared table built by repeated
multiplication, the monomials from one gather-multiply, and the values
from one matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .catalog import KIND_E6, KIND_SO, KIND_SU, FamilyDescriptor
from .polyalg import Poly, variables

F = Fraction


def _check_positive(m: Sequence) -> None:
    if len(m) != 3:
        raise ValueError("metric must have three components")
    if any(v <= 0 for v in m):
        raise ValueError(f"metric components must be positive, got {tuple(m)}")


def _su_ricci(m: int, n: int, p: int, x, y, z) -> tuple:
    s = m + n + p
    cx, cy, cz = F(p, 4 * s), F(n, 4 * s), F(m, 4 * s)
    rx = cx * (x / (y * z) - z / (x * y) - y / (x * z)) + F(1, 2) / x
    ry = cy * (y / (x * z) - x / (y * z) - z / (x * y)) + F(1, 2) / y
    rz = cz * (z / (x * y) - x / (y * z) - y / (x * z)) + F(1, 2) / z
    return rx, ry, rz


def _so_ricci(ell: int, x, y, z) -> tuple:
    c = F(ell - 2, 8 * (ell - 1))
    cz = F(1, 4 * (ell - 1))
    rx = c * (x / (y * z) - y / (x * z) - z / (x * y)) + F(1, 2) / x
    ry = c * (-x / (y * z) + y / (x * z) - z / (x * y)) + F(1, 2) / y
    rz = cz * (-x / (y * z) - y / (x * z) + z / (x * y)) + F(1, 2) / z
    return rx, ry, rz


def _type1_ricci(dims: tuple, x, y, z) -> tuple:
    d1, d2, d3 = dims
    delta = d1 + 4 * d2 + 9 * d3
    e = -d1 * d2 - 2 * d1 * d3 + d2 * d3
    c1 = F(d3 * (d1 + d2), 2 * d1 * delta)
    c2 = F(d3 * (d1 + d2), 2 * d2 * delta)
    c3 = F(d1 + d2, 2 * delta)
    rx = (
        F(e, 2 * d1 * delta) * y / (x * x)
        + c1 * (x / (y * z) - z / (x * y) - y / (x * z))
        + F(1, 2) / x
    )
    ry = (
        F(-e, 4 * d2 * delta) * (y / (x * x) - 2 / y)
        + c2 * (-x / (y * z) - z / (x * y) + y / (x * z))
        + F(1, 2) / y
    )
    rz = c3 * (-x / (y * z) + z / (x * y) - y / (x * z)) + F(1, 2) / z
    return rx, ry, rz


def ricci_components(family: FamilyDescriptor, m: Sequence) -> tuple:
    """Ricci operator multiples (r_x, r_y, r_z) at the metric (x, y, z).

    Exact when the components are int or Fraction.
    """
    _check_positive(m)
    x, y, z = (F(v) if isinstance(v, int) else v for v in m)
    if family.kind == KIND_SU:
        return _su_ricci(*family.params, x, y, z)
    if family.kind == KIND_SO:
        return _so_ricci(family.params[0], x, y, z)
    if family.kind == KIND_E6:
        # identical Ricci components to the smallest SU family
        return _su_ricci(1, 1, 1, x, y, z)
    return _type1_ricci(family.dims, x, y, z)


def scalar_curvature(family: FamilyDescriptor, m: Sequence):
    """S = d1 r_x + d2 r_y + d3 r_z."""
    rx, ry, rz = ricci_components(family, m)
    d1, d2, d3 = family.dims
    return d1 * rx + d2 * ry + d3 * rz


def lyapunov_value(family: FamilyDescriptor, m: Sequence) -> float:
    """Scale-invariant quantity that strictly decreases along the flow.

    The value is -S(m) (x^d1 y^d2 z^d3)^(1/d) with d the total
    dimension.  It is invariant under m -> lambda m, finite on the open
    cone, and constant exactly at equilibria of the projected flow.
    """
    _check_positive(m)
    s = float(scalar_curvature(family, m))
    d1, d2, d3 = family.dims
    d = family.total_dim
    x, y, z = (float(v) for v in m)
    vol_pow = math.exp((d1 * math.log(x) + d2 * math.log(y) + d3 * math.log(z)) / d)
    return -s * vol_pow


def lyapunov_planar(family: FamilyDescriptor, x: float, y: float) -> float:
    """Lyapunov value at the lifted point (x, y, 1-x-y).

    Returns -inf when exactly one coordinate has degenerated (the flow
    runs toward such strata) and +inf when two have (it runs away from
    them), so trajectory monotonicity extends to the boundary.
    """
    z = 1.0 - x - y
    degenerate = sum(1 for v in (x, y, z) if v <= 0.0)
    if degenerate == 0:
        return lyapunov_value(family, (x, y, z))
    return math.inf if degenerate >= 2 else -math.inf


def clearing_factor_value(family: FamilyDescriptor, m: Sequence):
    """The positive monomial f(x, y, z) that clears the Ricci field."""
    x, y, z = m
    if family.kind == KIND_SU:
        return 2 * sum(family.params) * x * y * z
    if family.kind == KIND_SO:
        return 4 * (family.params[0] - 1) * x * y * z
    if family.kind == KIND_E6:
        return 6 * x * y * z
    d1, d2, d3 = family.dims
    delta = d1 + 4 * d2 + 9 * d3
    return 4 * delta * d1 * d2 * x * x * y * z


def cleared_field(family: FamilyDescriptor) -> Tuple[Poly, Poly, Poly]:
    """The cleared field (F, G, H) = f (-2x r_x, -2y r_y, -2z r_z)."""
    x, y, z = variables(3)
    if family.kind in (KIND_SU, KIND_E6):
        m, n, p = family.params if family.kind == KIND_SU else (1, 1, 1)
        s = m + n + p
        fp = -x * (p * (x**2 - y**2 - z**2) + 2 * s * y * z)
        gp = -y * (n * (-(x**2) + y**2 - z**2) + 2 * s * x * z)
        hp = -z * (m * (-(x**2) - y**2 + z**2) + 2 * s * x * y)
        return fp, gp, hp
    if family.kind == KIND_SO:
        ell = family.params[0]
        fp = -x * ((ell - 2) * (x**2 - y**2 - z**2) + 4 * (ell - 1) * y * z)
        gp = -y * ((ell - 2) * (-(x**2) + y**2 - z**2) + 4 * (ell - 1) * x * z)
        hp = -z * (2 * (-(x**2) - y**2 + z**2) + 4 * (ell - 1) * x * y)
        return fp, gp, hp
    d1, d2, d3 = family.dims
    fp = -4 * d2 * x * (
        d1 * d1 * x * y * z
        + d1 * d2 * y * z * (4 * x - y)
        + d1 * d3 * (x**3 - x * (y**2 - 9 * y * z + z**2) - 2 * y**2 * z)
        + d2 * d3 * (x - z) * (x**2 + x * z - y**2)
    )
    gp = -2 * d1 * y * (
        d1 * d2 * y**2 * z
        - 2 * d1 * d3 * (x + z) * (x**2 + x * z - y**2)
        + 8 * d2 * d2 * x**2 * z
        - d2 * d3 * (2 * x**3 - 20 * x**2 * z - 2 * x * y**2 + 2 * x * z**2 + y**2 * z)
    )
    hp = 4 * d1 * d2 * x * z * (
        d1 * (x**2 - x * y + y**2 - z**2)
        + d2 * (x**2 - 4 * x * y + y**2 - z**2)
        - 9 * d3 * x * y
    )
    return fp, gp, hp


# points per evaluation pass; the power table and the monomial block of
# one pass stay in cache and bound the temporaries for any batch size.
# At 16 monomials one pass allocates ~0.7 MB, which malloc keeps reusing;
# at 4096 points (~1.4 MB) every pass handed its pages back to the OS and
# faulted them in again, 3-4x the page faults with no gain in speed.
_BLOCK = 2048


def _compile(polys: Sequence[Poly]) -> tuple:
    """Union of the monomials of polys and their coefficient matrix.

    Returns (exps, coeffs): exps[k] is the (i, j) exponent pair of the
    k-th monomial x^i y^j and coeffs[k, n] its coefficient in polys[n].
    """
    monos = sorted(set().union(*(p.terms for p in polys)))
    exps = np.array(monos, dtype=np.intp)
    coeffs = np.array([[float(p.terms.get(m, 0)) for p in polys] for m in monos])
    return exps, coeffs


def _eval_group(compiled: tuple, points) -> np.ndarray:
    """Values of the compiled polynomials at points (..., 2), shape (..., n_polys)."""
    exps, coeffs = compiled
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, 2)
    out = np.empty((flat.shape[0], coeffs.shape[1]))
    deg = max(1, int(exps.max()))
    for start in range(0, flat.shape[0], _BLOCK):
        block = flat[start : start + _BLOCK].T
        powers = np.empty((deg + 1,) + block.shape)
        powers[0] = 1.0
        powers[1] = block
        for k in range(2, deg + 1):
            np.multiply(powers[k - 1], block, out=powers[k])
        monos = powers[exps[:, 0], 0]
        monos *= powers[exps[:, 1], 1]
        np.matmul(monos.T, coeffs, out=out[start : start + _BLOCK])
    return out.reshape(pts.shape[:-1] + coeffs.shape[1:])


@dataclass(frozen=True)
class ProjectedField:
    """The planar field (u, v) with exact polynomials and fast numerics.

    `scale` is the largest absolute coefficient of u and v; Newton
    residuals and integration use the field divided by it so that
    tolerances mean the same thing across families whose coefficients
    span five orders of magnitude.

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
