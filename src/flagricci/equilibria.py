"""Zero finding, stability classification, and catalog verification.

Equilibria of the planar field are the common zeros of its two integer
polynomials, found exactly by eliminating y with a resultant (see
find_equilibria).  Elimination yields them in ascending (x, y) order, the
order every caller lists them in.  They are then compared against the
family's reference table:
positions, Jacobian eigenvalues (where the table has closed forms), and
stability classes all have to agree.

find_equilibria gives each zero its one record match and class: exact signs
decide a rational zero's, float eigenvalues an irrational one's, and
corner_class a degenerate simplex corner's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

import numpy as np

from .catalog import ATTRACTOR, REPELLER, SADDLE, FamilyDescriptor, reference_equilibria
from .flowgen import ProjectedField, projected_field, row_max_abs
from .polyalg import (at_x, gcd, primitive, real_roots, restrict_to_line, scaled_at_xy, sign_at, squarefree, sub,
                      subresultants, taylor_shift, value_at)

NONHYPERBOLIC = "nonhyperbolic"

# a real part below this, in the field's unscaled units, is nonhyperbolic;
# only irrational zeros are classified in floats, rational ones by exact signs
NONHYP_TOL = 1e-8


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


def _linearization(field: ProjectedField, p, rows: list) -> tuple:
    """The Jacobian's eigenvalues at p, ascending real part, and its trace and
    determinant times positive scales: exact integers at a rational p from
    rows, the four entries in Poly.in_y's form, floats otherwise, so the
    eigenvalues are exact up to the final square root."""
    if all(isinstance(c, (int, Fraction)) for c in p):
        # each entry times s = (d e)^top for p = (a / d, b / e); int / int
        # rounds correctly, as float(Fraction) does
        top = field.degree()
        j11, j12, j21, j22 = (scaled_at_xy(q, *p, top) for q in rows)
        s = (p[0].as_integer_ratio()[1] * p[1].as_integer_ratio()[1]) ** top
    else:
        j11, j12, j21, j22 = (q.eval(p) for q in (field.du_dx, field.du_dy, field.dv_dx, field.dv_dy))
        s = 1
    tr, det = j11 + j22, j11 * j22 - j12 * j21
    disc = tr * tr - 4 * det
    if disc >= 0:
        root = math.sqrt(disc / (s * s))
        pair = (complex((tr / s - root) / 2), complex((tr / s + root) / 2))
    else:
        root = math.sqrt(-disc / (s * s))
        half = tr / s / 2
        pair = (complex(half, -root / 2), complex(half, root / 2))
    return tuple(sorted(pair, key=lambda e: (e.real, e.imag))), tr, det


def _sign_class(tr, det) -> str:
    """Stability class from the exact signs of the Jacobian's trace and determinant."""
    if det < 0:
        return SADDLE
    if not det or not tr:
        return NONHYPERBOLIC
    return REPELLER if tr > 0 else ATTRACTOR


def corner_class(field: ProjectedField, p) -> Optional[str]:
    """Class of a simplex corner p where the field and its linear part vanish, or None.

    Shifted to p, f = f_2 + f_3 + ... with f_k homogeneous of degree k.
    The lowest nonzero radial form R_k(w) = w . f_k(w) decides when it
    has one sign on the open wedge e1 + t (e2 - e1), 0 < t < 1, between
    the corner's edges e1 and e2 (which carry their own dynamics):
    repeller where positive, attractor where negative.  A root inside
    gives None, since only a blow-up would decide (Dumortier, Llibre &
    Artes, Qualitative Theory of Planar Differential Systems, 2006, ch. 3).
    """
    (x0, y0), (x1, y1), (x2, y2) = sorted([(0, 0), (1, 0), (0, 1)], key=lambda v: v != tuple(p))
    if (x0, y0) != tuple(p):
        return None
    su, sv = (taylor_shift(q, (x0, y0)) for q in (field.u, field.v))
    if any(c for s in (su, sv) for (i, j), c in s.items() if i + j < 2):
        return None
    for k in range(2, field.degree() + 1):
        # rows[j] holds R_k's coefficient of x^(k + 1 - j) y^j: integral, as u, v and the corner are
        rows = [[0] * (k + 1 - j) + [(su.get((k - j, j), 0) + sv.get((k + 1 - j, j - 1), 0)).numerator]
                for j in range(k + 2)]
        on_wedge = restrict_to_line(rows, (x1 - x0, y1 - y0), (x2 - x1, y2 - y1))
        if on_wedge:
            if any(not isinstance(t, Fraction) or 0 < t < 1 for t in real_roots(squarefree(on_wedge))):
                return None
            return REPELLER if value_at(on_wedge, Fraction(1, 2)) > 0 else ATTRACTOR
    return None


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
    """All zeros of the field on the closed simplex, found exactly, in
    ascending (x, y) order.

    One subresultant PRS of u and v in y gives Res_y(u, v) and the degree-1
    subresultant s1(x) y + s0(x).  The resultant's real roots x0 in [0, 1]
    are isolated exactly and come in ascending order.  Over a rational x0
    the zeros are the roots in [0, 1 - x0] of gcd(u(x0, y), v(x0, y)),
    taken in integers, ascending; over an irrational x0 that gcd is
    s1(x0) y + s0(x0), or u or v itself if one has degree 1 in y, so
    y0 = -s0(x0) / s1(x0), and exact signs at x0 (sign_at) decide whether
    the zero lies in the simplex or on its edge.
    Rational zeros keep their exact position and take their class from the
    signs of their exact Jacobian's trace and determinant, or corner_class's
    where those leave it nonhyperbolic.  A zero takes its nearest reference
    record's label within that record's position_tol.
    A field with a nonzero constant u or v has no zeros.  Raises
    ArithmeticError if u or v is zero, if u and v share a factor, or if
    they have a nonlinear gcd over an irrational x.
    """
    if field.u.degree() == 0 or field.v.degree() == 0:
        return EquilibriumList([], 0, 0)
    if not (field.u and field.v):
        raise ArithmeticError(f"u or v is zero for {field.family.id}")
    uy, vy = field.u.in_y(), field.v.in_y()
    chain = subresultants(uy, vy)
    (res,) = chain[0]
    # u or v itself where one has degree 1 in y; with neither that nor a
    # degree-1 subresultant (a degree 0 in y), s1 = [] reads as a zero lead
    s0, s1 = next((p for p in (uy, vy) if len(p) == 2), None) or (chain[1] if len(chain) > 1 else [[], []])
    if not res:
        raise ArithmeticError(f"u and v share a factor for {field.family.id}")
    res = squarefree(res)
    zeros = []  # (position, on the boundary); Fractions where exact
    tried = 0
    for x0 in real_roots(res):
        if isinstance(x0, Fraction):
            g = gcd(at_x(uy, x0), at_x(vy, x0))
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
        lead = s1 and sign_at(s1, res, x0)
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
    accepted, rows = [], [q.in_y() for q in (field.du_dx, field.du_dy, field.dv_dx, field.dv_dy)]
    for (pos, boundary), point, resid, i, d in zip(
        zeros, positions, residuals.tolist(), ref_idx.tolist(), ref_d.tolist()
    ):
        eigs, tr, det = _linearization(field, pos, rows)
        exact = pos if isinstance(pos[1], Fraction) else None
        stability = classify_equilibrium(eigs) if exact is None else _sign_class(tr, det)
        if exact and stability == NONHYPERBOLIC:
            stability = corner_class(field, exact) or stability
        accepted.append(
            FoundEquilibrium(
                position=point,
                residual=resid,
                eigenvalues=eigs,
                stability=stability,
                matched_label=refs[i].label if d <= refs[i].position_tol else None,
                boundary_flag=boundary,
                exact=exact,
            )
        )
    return EquilibriumList(accepted, tried, len(accepted))


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
    return max(abs(fe - re_) / abs(re_) for fe, re_ in zip(found, ref_sorted))


def verify_catalog(family: FamilyDescriptor) -> VerificationReport:
    """Check every reference equilibrium against the computed zero set.

    A record passes when a zero sits within its position tolerance, the
    Jacobian eigenvalues reproduce the closed forms (when present), and
    the zero's class from find_equilibria matches.  The extras are the
    zeros find_equilibria matched to no record.
    """
    found = find_equilibria(projected_field(family))
    report = VerificationReport(family=family)
    refs = reference_equilibria(family)
    nearest_idx, nearest_d = nearest([rec.position_float() for rec in refs], [eq.position for eq in found])
    for rec, best_i, best_d in zip(refs, nearest_idx.tolist(), nearest_d.tolist()):
        rp = rec.position_float()
        tol = rec.position_tol
        eq = found[best_i] if best_i >= 0 else None
        eigen_err = found_class = None
        note = "no zero within position tolerance"
        if best_d <= tol:
            # a rational zero's eigenvalues are exact up to the final
            # square root, so double roots stay exactly double
            if rec.eigenvalues is not None:
                eigen_err = _eigen_rel_error(eq.eigenvalues, rec.eigenvalues)
            found_class, note = eq.stability, ""
            # only corner_class classifies a zero whose eigenvalues are both exactly 0
            if eq.exact and found_class != NONHYPERBOLIC and not any(eq.eigenvalues):
                note = "degenerate Jacobian, classified by its lowest radial form"
        eigen_ok = eigen_err is None or eigen_err <= rec.eigen_rel_tol
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
    report.extras = [eq for eq in found if eq.matched_label is None]
    return report
