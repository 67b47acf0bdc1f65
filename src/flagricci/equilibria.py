"""Zero finding, stability classification, and catalog verification.

Equilibria of the planar field are located by dense grid seeding plus a
damped Newton iteration, then compared against the family's reference
table: positions, Jacobian eigenvalues (where the table has closed
forms), and stability classes all have to agree.

The Newton sweep is compacted: each iteration works on the seeds still
active, kept in seed order, and a seed leaves for good when it converges
or dies.  Converged roots are deduplicated greedily in order of
increasing residual: a root is kept unless a kept root lies within
DEDUPE_TOL of it.
"""

from __future__ import annotations

import cmath
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
from .flowgen import ProjectedField, keep_rows, row_max_abs

NONHYPERBOLIC = "nonhyperbolic"

RESIDUAL_TOL = 1e-11
STEP_TOL = 1e-11
DEDUPE_TOL = 1e-6
NONHYP_TOL = 1e-8
BOUNDARY_TOL = 1e-8
# equilibria are listed by position rounded to this many decimals, far
# below DEDUPE_TOL, so that ~1e-16 noise in a shared coordinate (the
# x = 0.25 or x = 0.5 columns of a table) cannot reorder them
ORDER_DECIMALS = 9


@dataclass
class FoundEquilibrium:
    position: tuple
    residual: float
    eigenvalues: tuple
    stability: str
    matched_label: Optional[str]
    boundary_flag: bool

    def as_dict(self) -> dict:
        return {
            "position": list(self.position),
            "residual": self.residual,
            "eigenvalues": [[e.real, e.imag] for e in self.eigenvalues],
            "class": self.stability,
            "matched_label": self.matched_label,
            "boundary": self.boundary_flag,
        }


class EquilibriumList(list):
    """List of FoundEquilibrium plus seed statistics from the search."""

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
    x, y = p
    j11 = field.du_dx.eval((x, y))
    j12 = field.du_dy.eval((x, y))
    j21 = field.dv_dx.eval((x, y))
    j22 = field.dv_dy.eval((x, y))
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


def _match_label(family: FamilyDescriptor, pos: tuple, tol: float = 1e-3) -> Optional[str]:
    best, best_d = None, tol
    for rec in reference_equilibria(family):
        rp = rec.position_float()
        d = math.hypot(pos[0] - rp[0], pos[1] - rp[1])
        if d < best_d:
            best, best_d = rec.label, d
    return best


def _greedy_dedupe(points: np.ndarray) -> list:
    """Indices of the points kept by the greedy rule, in input order.

    A point is kept unless an earlier kept point lies within Euclidean
    distance DEDUPE_TOL of it.  Each kept point drops every remaining
    point in its DEDUPE_TOL-ball at once, which keeps the same points as
    scanning them one by one.
    """
    rest = np.arange(len(points))
    kept = []
    while rest.size:
        i = int(rest[0])
        kept.append(i)
        d = np.hypot(points[rest, 0] - points[i, 0], points[rest, 1] - points[i, 1])
        rest = rest[d > DEDUPE_TOL]
    return kept


def find_equilibria(
    field: ProjectedField,
    grid: int = 200,
    inflate: float = 1e-3,
    max_iter: int = 80,
) -> EquilibriumList:
    """All zeros of the field on the closed simplex (inflated slightly).

    Every grid node seeds a damped Newton iteration on the normalized
    field; converged roots are deduplicated at pairwise distance 1e-6.
    Convergence needs both a small residual and a small Newton step,
    since the residual alone cannot localize roots where the field
    vanishes to high order (the degenerate corners).  Seeds that fail
    to converge are dropped.
    """
    axis = np.linspace(-inflate, 1.0 + inflate, grid)
    gx, gy = np.meshgrid(axis, axis)
    keep = gx + gy <= 1.0 + inflate
    c = np.stack([gx[keep], gy[keep]], axis=-1)
    seeds_tried = len(c)
    # the seed grid is not read again; freeing it lowers the sweep's peak memory
    del gx, gy, keep

    # the sweep iterates only the active seeds, in seed order so that
    # every kernel call sees the same batch as a full rescan would; a
    # seed leaves for good when it converges (written back to cur and
    # fnorm) or dies.  The pass after the last iteration only retires
    # the seeds that converged in it.
    cur = np.empty_like(c)
    fnorm = np.empty(seeds_tried)
    converged = np.zeros(seeds_tried, dtype=bool)
    ids = np.arange(seeds_tried)
    fv = field.rhs(c)
    fn = row_max_abs(fv)
    ls = np.full(seeds_tried, np.inf)
    for it in range(max_iter + 1):
        done = (fn <= RESIDUAL_TOL) & (ls <= STEP_TOL)
        if done.any():
            g = ids[done]
            cur[g] = np.compress(done, c, axis=0)
            fnorm[g] = fn[done]
            converged[g] = True
            ids, c, fv, fn, ls = keep_rows(~done, ids, c, fv, fn, ls)
        if ids.size == 0 or it == max_iter:
            break
        jac = field.jacobian(c, normalized=True)
        j00, j01, j10, j11 = jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 0], jac[:, 1, 1]
        det = j00 * j11 - j01 * j10
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.stack(
                [(j11 * fv[:, 0] - j01 * fv[:, 1]) / det, (j00 * fv[:, 1] - j10 * fv[:, 0]) / det],
                axis=-1,
            )
        step_norm = row_max_abs(step)
        # a singular Jacobian kills the seed; a tiny step leaves it in place
        ok = np.abs(det) > 1e-300
        tiny = ok & (step_norm <= STEP_TOL)
        ls[tiny] = step_norm[tiny]
        move = np.flatnonzero(ok & ~tiny)
        # backtracking: halve until the residual drops
        remaining = np.arange(move.size)
        factor = 1.0
        improved = np.zeros(move.size, dtype=bool)
        for _damp in range(12 if move.size else 0):
            rows = move[remaining]
            trial = c.take(rows, axis=0) - factor * step.take(rows, axis=0)
            ftrial = field.rhs(trial)
            fnew = row_max_abs(ftrial)
            better = fnew < fn[rows]
            sel = rows[better]
            c[sel] = np.compress(better, trial, axis=0)
            fv[sel] = np.compress(better, ftrial, axis=0)
            fn[sel] = fnew[better]
            ls[sel] = factor * step_norm[sel]
            improved[remaining[better]] = True
            remaining = remaining[~better]
            if remaining.size == 0:
                break
            factor *= 0.5
        # seeds die on a singular Jacobian, on a failed line search, or by
        # wandering far from the simplex
        alive = ok.copy()
        alive[move[~improved]] = False
        alive &= ~(row_max_abs(c) > 3.0)
        ids, c, fv, fn, ls = keep_rows(alive, ids, c, fv, fn, ls)
    roots = cur[converged]
    resids = fnorm[converged]
    seeds_converged = int(converged.sum())

    lo, hi = -inflate, 1.0 + inflate
    inside = (
        (roots[:, 0] >= lo)
        & (roots[:, 1] >= lo)
        & (roots[:, 0] + roots[:, 1] <= hi)
    )
    roots, resids = roots[inside], resids[inside]

    order = np.argsort(resids)
    candidates = [
        ((float(roots[i][0]), float(roots[i][1])), float(resids[i]))
        for i in order[_greedy_dedupe(roots[order])]
    ]

    # roots stalled against a corner get re-polished on the recentered
    # polynomials, then deduplicated once more
    refined = [_polish_corner_root(field, pos) or (pos, resid) for pos, resid in candidates]
    polished = [refined[i] for i in _greedy_dedupe(np.array([pos for pos, _ in refined]))]

    accepted: list = []
    for pos, resid in polished:
        eigs = jacobian_eigen(field, pos)
        x, y = pos
        on_boundary = (
            abs(x) < BOUNDARY_TOL
            or abs(y) < BOUNDARY_TOL
            or abs(1.0 - x - y) < BOUNDARY_TOL
        )
        accepted.append(
            FoundEquilibrium(
                position=pos,
                residual=resid,
                eigenvalues=eigs,
                stability=classify_equilibrium(eigs),
                matched_label=_match_label(field.family, pos),
                boundary_flag=on_boundary,
            )
        )
    accepted.sort(key=lambda e: order_key(e.position))
    return EquilibriumList(accepted, seeds_tried, seeds_converged)


_CORNERS = ((0, 0), (0, 1), (1, 0))


def _polish_corner_root(field: ProjectedField, pos: tuple):
    """Refine a root that stalled near a simplex corner.

    Where the field vanishes to high order the monomial basis cannot
    resolve the root (evaluation noise swamps the true values near
    (0,1) and (1,0)), so Newton is rerun on the exact recentered
    polynomials in local coordinates.  Returns (position, residual) or
    None when pos is not near a corner.
    """
    corner = None
    for c in _CORNERS:
        if math.hypot(pos[0] - c[0], pos[1] - c[1]) < 1e-4:
            corner = c
            break
    if corner is None:
        return None
    polys = [p.shift(corner) for p in (field.u, field.v, field.du_dx, field.du_dy, field.dv_dx, field.dv_dy)]
    lx, ly = pos[0] - corner[0], pos[1] - corner[1]
    fcur = (float(polys[0].eval((lx, ly))), float(polys[1].eval((lx, ly))))
    fn = max(abs(fcur[0]), abs(fcur[1]))
    for _ in range(200):
        j11 = float(polys[2].eval((lx, ly)))
        j12 = float(polys[3].eval((lx, ly)))
        j21 = float(polys[4].eval((lx, ly)))
        j22 = float(polys[5].eval((lx, ly)))
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-300:
            break
        sx = (j22 * fcur[0] - j12 * fcur[1]) / det
        sy = (j11 * fcur[1] - j21 * fcur[0]) / det
        if max(abs(sx), abs(sy)) <= 1e-16:
            break
        moved = False
        factor = 1.0
        for _damp in range(12):
            tx, ty = lx - factor * sx, ly - factor * sy
            ft = (float(polys[0].eval((tx, ty))), float(polys[1].eval((tx, ty))))
            ftn = max(abs(ft[0]), abs(ft[1]))
            if ftn < fn or (ftn == 0.0 and fn == 0.0 and max(abs(tx), abs(ty)) < max(abs(lx), abs(ly))):
                lx, ly, fcur, fn = tx, ty, ft, ftn
                moved = True
                break
            factor *= 0.5
        if not moved:
            break
    return (corner[0] + lx, corner[1] + ly), fn / field.scale


def radial_probe(field: ProjectedField, p: tuple, radius: float = 1e-4, n_dirs: int = 720) -> Optional[str]:
    """Classify a degenerate-Jacobian point by the field's radial sign.

    Samples directions into the open simplex (the boundary edges carry
    their own one-dimensional dynamics and are excluded); if the field
    points strictly outward along all of them the point is a repeller,
    strictly inward an attractor.  Returns None when the signs mix.
    """
    angles = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    probes = np.asarray(p, dtype=float) + radius * dirs
    margin = radius * 1e-3
    admissible = (
        (probes[:, 0] > margin)
        & (probes[:, 1] > margin)
        & (probes[:, 0] + probes[:, 1] < 1.0 - margin)
    )
    if not admissible.any():
        return None
    vals = field.rhs(probes[admissible], normalized=False)
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
    seeds_tried: int = 0
    seeds_converged: int = 0
    field_degree: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "family": self.family.id,
            "params": list(self.family.params),
            "passed": self.passed,
            "seeds_tried": self.seeds_tried,
            "seeds_converged": self.seeds_converged,
            "checks": [
                {
                    "label": c.label,
                    "expected_position": [float(v) for v in c.expected_position],
                    "found_position": list(c.found_position) if c.found_position else None,
                    "position_error": c.position_error,
                    "position_tol": c.position_tol,
                    "eigen_error": c.eigen_error,
                    "eigen_tol": c.eigen_tol,
                    "expected_class": c.expected_class,
                    "found_class": c.found_class,
                    "passed": c.passed,
                    "note": c.note,
                }
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


def verify_catalog(family: FamilyDescriptor, field: Optional[ProjectedField] = None) -> VerificationReport:
    """Check every reference equilibrium against the computed zero set.

    A record passes when a zero sits within its position tolerance, the
    Jacobian eigenvalues reproduce the closed forms (when present), and
    the stability class matches.  Points where the Jacobian vanishes
    identically are classified through the radial probe instead.
    """
    from .flowgen import projected_field as _pf

    if field is None:
        field = _pf(family)
    found = find_equilibria(field)
    report = VerificationReport(
        family=family,
        seeds_tried=found.seeds_tried,
        seeds_converged=found.seeds_converged,
        field_degree=field.degree(),
    )
    used = set()
    for rec in reference_equilibria(family):
        rp = rec.position_float()
        tol = 1e-9 if rec.position_exact else 1e-4
        best_i, best_d = None, math.inf
        for i, eq in enumerate(found):
            d = math.hypot(eq.position[0] - rp[0], eq.position[1] - rp[1])
            if d < best_d:
                best_i, best_d = i, d
        if best_i is None or best_d > tol:
            report.checks.append(
                RecordCheck(
                    label=rec.label,
                    expected_position=rp,
                    found_position=None if best_i is None else found[best_i].position,
                    position_error=best_d,
                    position_tol=tol,
                    eigen_error=None,
                    eigen_tol=rec.eigen_rel_tol,
                    expected_class=rec.expected_class,
                    found_class=None,
                    passed=False,
                    note="no zero within position tolerance",
                )
            )
            continue
        eq = found[best_i]
        used.add(best_i)

        # eigenvalues at the exact reference position where closed forms
        # exist; double roots then stay exactly double
        eigen_err = None
        note = ""
        if rec.position_exact:
            eigs_here = jacobian_eigen(field, rec.position)
        else:
            eigs_here = eq.eigenvalues
        if rec.eigenvalues is not None:
            eigen_err = _eigen_rel_error(eigs_here, rec.eigenvalues)
        found_class = classify_equilibrium(eigs_here)
        if found_class == NONHYPERBOLIC and rec.expected_class in (REPELLER, ATTRACTOR):
            probed = radial_probe(field, rp)
            if probed is not None:
                found_class = probed
                note = "degenerate Jacobian, classified by radial probe"
        eigen_ok = (
            eigen_err is None
            or (rec.eigen_rel_tol is not None and eigen_err <= rec.eigen_rel_tol)
        )
        passed = best_d <= tol and eigen_ok and found_class == rec.expected_class
        report.checks.append(
            RecordCheck(
                label=rec.label,
                expected_position=rp,
                found_position=eq.position,
                position_error=best_d,
                position_tol=tol,
                eigen_error=eigen_err,
                eigen_tol=rec.eigen_rel_tol,
                expected_class=rec.expected_class,
                found_class=found_class,
                passed=passed,
                note=note,
            )
        )
    report.extras = [eq for i, eq in enumerate(found) if i not in used]
    return report
