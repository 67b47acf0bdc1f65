"""Zero finding, stability classification, and catalog verification.

Equilibria of the planar field are the common zeros of its two integer
polynomials, found exactly by eliminating y with a resultant (see
find_equilibria), then compared against the family's reference table:
positions, Jacobian eigenvalues (where the table has closed forms), and
stability classes all have to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

import numpy as np

from .catalog import (
    ATTRACTOR,
    REPELLER,
    SADDLE,
    FamilyDescriptor,
    reference_equilibria,
)
from .flowgen import ProjectedField, projected_field, row_max_abs
from .polyalg import gcd, primitive, real_roots, sign_at, squarefree, subresultant, sub, value_at, value_at_xy

NONHYPERBOLIC = "nonhyperbolic"

NONHYP_TOL = 1e-8
# a found zero takes the label of the nearest reference equilibrium
# closer than this
LABEL_TOL = 1e-3
# a reference equilibrium needs a found zero within this distance: the
# exact closed-form positions are met up to rounding, while the Type I
# saddle table gives its positions to five decimals only
POSITION_TOL_EXACT = 1e-9
POSITION_TOL_DECIMAL = 1e-4
# the radial probe samples PROBE_DIRS directions at distance PROBE_RADIUS
PROBE_RADIUS = 1e-4
PROBE_DIRS = 720
# equilibria are listed by position rounded to this many decimals, so
# that positions which differ only by rounding sort by their y
ORDER_DECIMALS = 9


@dataclass
class FoundEquilibrium:
    """A zero of the field; exact holds its Fractions when it is rational."""

    position: tuple
    residual: float
    eigenvalues: tuple
    stability: str
    matched_label: Optional[str]
    boundary_flag: bool
    exact: Optional[tuple] = None

    def as_dict(self) -> dict:
        return {
            "position": list(self.position),
            "residual": self.residual,
            "eigenvalues": [[e.real, e.imag] for e in self.eigenvalues],
            "class": self.stability,
            "matched_label": self.matched_label,
            "boundary": self.boundary_flag,
        }

    @property
    def name(self) -> str:
        """The matched reference label, else the position to 9 decimals."""
        return self.matched_label or f"({self.position[0]:.9f},{self.position[1]:.9f})"


class EquilibriumList(list):
    """FoundEquilibria plus seeds_tried, the candidate (x, y) pairs examined
    over real roots x of the resultant, and seeds_converged, those kept."""

    def __init__(self, items, seeds_tried: int, seeds_converged: int):
        super().__init__(items)
        self.seeds_tried = seeds_tried
        self.seeds_converged = seeds_converged


def order_key(position) -> tuple:
    """Sort key of an equilibrium position, insensitive to rounding noise."""
    return tuple(round(float(c), ORDER_DECIMALS) for c in position)


def classify_equilibrium(eigs: tuple) -> str:
    """Stability class from the real parts of two eigenvalues."""
    re1, re2 = (complex(e).real for e in eigs)
    if abs(re1) < NONHYP_TOL or abs(re2) < NONHYP_TOL:
        return NONHYPERBOLIC
    if re1 > 0 and re2 > 0:
        return REPELLER
    if re1 < 0 and re2 < 0:
        return ATTRACTOR
    return SADDLE


def jacobian_eigen(field: ProjectedField, p) -> tuple:
    """Eigenvalues of the exact field Jacobian at p, ascending real part.

    Exact polynomial evaluation feeds the closed-form 2x2 eigenvalue
    formula, so rational input points give eigenvalues that are exact up
    to the final square root.
    """
    entries = (field.du_dx, field.du_dy, field.dv_dx, field.dv_dy)
    if all(isinstance(c, (int, Fraction)) for c in p):
        j11, j12, j21, j22 = (value_at_xy(q.in_y(), *p) for q in entries)
    else:
        j11, j12, j21, j22 = (q.eval(p) for q in entries)
    tr = j11 + j22
    disc = tr * tr - 4 * (j11 * j22 - j12 * j21)
    if disc >= 0:
        root = math.sqrt(float(disc))
        pair = (complex((float(tr) - root) / 2), complex((float(tr) + root) / 2))
    else:
        root = math.sqrt(-float(disc))
        half = float(tr) / 2
        pair = (complex(half, -root / 2), complex(half, root / 2))
    return tuple(sorted(pair, key=lambda e: (e.real, e.imag)))


def nearest(points, targets) -> tuple:
    """Index of the nearest target to each point and the Euclidean distance.

    points is (n, 2) and targets (m, 2); the lowest index wins a tie.
    With no targets every index is -1 and every distance inf.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    tgt = np.asarray(targets, dtype=float).reshape(-1, 2)
    if len(tgt) == 0:
        return np.full(len(pts), -1), np.full(len(pts), np.inf)
    d = np.hypot(pts[:, None, 0] - tgt[None, :, 0], pts[:, None, 1] - tgt[None, :, 1])
    idx = d.argmin(axis=1)
    return idx, d[np.arange(len(pts)), idx]


def find_equilibria(field: ProjectedField) -> EquilibriumList:
    """All zeros of the field on the closed simplex, found exactly.

    Res_y(u, v) eliminates y; its real roots x0 in [0, 1] are isolated
    exactly.  Over a rational x0 the zeros are the roots in [0, 1 - x0] of
    gcd(u(x0, y), v(x0, y)); over an irrational x0 that gcd is the degree-1
    subresultant s1(x) y + s0(x), so y0 = -s0(x0) / s1(x0), and exact signs
    decide whether the zero lies in the simplex or on its edge.  Rational
    zeros keep their exact position and Jacobian.  Raises ArithmeticError
    if u and v share a factor or have a nonlinear gcd over an irrational x.
    """
    uy, vy = field.u.in_y(), field.v.in_y()
    (res,), (s0, s1) = subresultant(uy, vy, 0), subresultant(uy, vy, 1)
    if not res:
        raise ArithmeticError(f"u and v share a factor for {field.family.id}")
    res = squarefree(res)
    zeros = []  # (position, on the boundary); Fractions where exact
    tried = 0
    for x0 in real_roots(res):
        if isinstance(x0, Fraction):
            g = gcd([value_at(c, x0) for c in uy], [value_at(c, x0) for c in vy])
            if not g:
                raise ArithmeticError(f"u and v vanish on the line x = {x0} for {field.family.id}")
            g = squarefree(g)
            for y0 in real_roots(g):
                tried += 1
                if isinstance(y0, Fraction) and x0 + y0 <= 1:
                    zeros.append(((x0, y0), x0 == 0 or y0 == 0 or x0 + y0 == 1))
                elif isinstance(y0, tuple) and sign_at(primitive([x0 - 1, 1]), g, y0) < 0:
                    zeros.append(((float(x0), float(sum(y0) / 2)), x0 == 0))  # y0 < 1 - x0
            continue
        tried += 1
        lead = sign_at(s1, res, x0)
        if not lead:
            raise ArithmeticError(f"gcd(u, v) is not linear in y over an irrational x for {field.family.id}")
        # y0 = -s0 / s1 and 1 - x0 - y0 = (s0 + (1 - x0) s1) / s1
        y_sign = -lead * sign_at(s0, res, x0)
        z_sign = lead * sign_at(sub(s0, sub([0] + s1, s1)), res, x0)
        if y_sign >= 0 and z_sign >= 0:
            mid = sum(x0) / 2
            y_mid = -value_at(s0, mid) / value_at(s1, mid)
            zeros.append(((float(mid), float(y_mid)), not (y_sign and z_sign)))
    positions = [tuple(float(c) for c in pos) for pos, _b in zeros]
    residuals = row_max_abs(field.rhs(np.array(positions).reshape(-1, 2)) / field.scale)
    refs = reference_equilibria(field.family)
    ref_idx, ref_d = nearest(positions, [r.position_float() for r in refs])
    accepted = []
    for (pos, boundary), point, resid, i, d in zip(
        zeros, positions, residuals.tolist(), ref_idx.tolist(), ref_d.tolist()
    ):
        eigs = jacobian_eigen(field, pos)
        accepted.append(
            FoundEquilibrium(
                position=point,
                residual=resid,
                eigenvalues=eigs,
                stability=classify_equilibrium(eigs),
                matched_label=refs[i].label if d < LABEL_TOL else None,
                boundary_flag=boundary,
                exact=pos if isinstance(pos[1], Fraction) else None,
            )
        )
    accepted.sort(key=lambda e: order_key(e.position))
    return EquilibriumList(accepted, tried, len(accepted))


def radial_probe(field: ProjectedField, p: tuple) -> Optional[str]:
    """Classify a degenerate-Jacobian point by the field's radial sign.

    Samples directions into the open simplex (the boundary edges carry
    their own one-dimensional dynamics and are excluded); if the field
    points strictly outward along all of them the point is a repeller,
    strictly inward an attractor.  Returns None when the signs mix.
    """
    angles = np.linspace(0.0, 2.0 * math.pi, PROBE_DIRS, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    probes = np.asarray(p, dtype=float) + PROBE_RADIUS * dirs
    margin = PROBE_RADIUS * 1e-3
    admissible = (
        (probes[:, 0] > margin)
        & (probes[:, 1] > margin)
        & (probes[:, 0] + probes[:, 1] < 1.0 - margin)
    )
    if not admissible.any():
        return None
    vals = field.rhs(probes[admissible])
    radial = np.einsum("ij,ij->i", vals, dirs[admissible])
    if (radial > 0).all():
        return REPELLER
    if (radial < 0).all():
        return ATTRACTOR
    return None


@dataclass
class RecordCheck:
    label: str
    expected_position: tuple
    found_position: Optional[tuple]
    position_error: float
    position_tol: float
    eigen_error: Optional[float]
    eigen_tol: Optional[float]
    expected_class: str
    found_class: Optional[str]
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    family: FamilyDescriptor
    checks: list = dc_field(default_factory=list)
    extras: list = dc_field(default_factory=list)
    field_degree: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "family": self.family.id,
            "params": list(self.family.params),
            "passed": self.passed,
            # one entry per RecordCheck field, in declaration order
            "checks": [
                dict(
                    vars(c),
                    expected_position=[float(v) for v in c.expected_position],
                    found_position=list(c.found_position) if c.found_position else None,
                )
                for c in self.checks
            ],
            "extras": [e.as_dict() for e in self.extras],
        }


def _eigen_rel_error(found: tuple, ref: tuple) -> float:
    ref_sorted = sorted((complex(e) for e in ref), key=lambda e: (e.real, e.imag))
    err = 0.0
    for fe, re_ in zip(found, ref_sorted):
        err = max(err, abs(fe - re_) / abs(re_))
    return err


def verify_catalog(family: FamilyDescriptor) -> VerificationReport:
    """Check every reference equilibrium against the computed zero set.

    A record passes when a zero sits within its position tolerance, the
    Jacobian eigenvalues reproduce the closed forms (when present), and
    the stability class matches.  Points where the Jacobian vanishes
    identically are classified through the radial probe instead.
    """
    field = projected_field(family)
    found = find_equilibria(field)
    report = VerificationReport(family=family, field_degree=field.degree())
    used = set()
    refs = reference_equilibria(family)
    nearest_idx, nearest_d = nearest([rec.position_float() for rec in refs], [eq.position for eq in found])
    for rec, best_i, best_d in zip(refs, nearest_idx.tolist(), nearest_d.tolist()):
        rp = rec.position_float()
        tol = POSITION_TOL_EXACT if rec.position_exact else POSITION_TOL_DECIMAL
        eq = found[best_i] if best_i >= 0 else None
        eigen_err = found_class = None
        note = "no zero within position tolerance"
        if best_d <= tol:
            used.add(best_i)
            # a rational zero's eigenvalues are exact up to the final
            # square root, so double roots stay exactly double
            if rec.eigenvalues is not None:
                eigen_err = _eigen_rel_error(eq.eigenvalues, rec.eigenvalues)
            found_class, note = eq.stability, ""
            if found_class == NONHYPERBOLIC and rec.expected_class in (REPELLER, ATTRACTOR):
                probed = radial_probe(field, rp)
                if probed is not None:
                    found_class = probed
                    note = "degenerate Jacobian, classified by radial probe"
        eigen_ok = (
            eigen_err is None
            or (rec.eigen_rel_tol is not None and eigen_err <= rec.eigen_rel_tol)
        )
        report.checks.append(
            RecordCheck(
                label=rec.label,
                expected_position=rp,
                found_position=eq and eq.position,
                position_error=best_d,
                position_tol=tol,
                eigen_error=eigen_err,
                eigen_tol=rec.eigen_rel_tol,
                expected_class=rec.expected_class,
                found_class=found_class,
                passed=best_d <= tol and eigen_ok and found_class == rec.expected_class,
                note=note,
            )
        )
    report.extras = [eq for i, eq in enumerate(found) if i not in used]
    return report
