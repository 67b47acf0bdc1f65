"""Orbit integration and global dynamics for the planar flow.

Adaptive Dormand-Prince 5(4) integration (scalar and batched), forward
and backward limits, basins of attraction, separatrix tracing, the
exact segment-invariance identities, and the Lyapunov monotonicity
check used to rule out periodic orbits.

The stepper is first same as last (Dormand & Prince 1980; Hairer,
Norsett & Wanner, Solving ODEs I, II.5): the last stage of an accepted
step is the field at the new point, so it becomes the next step's first
stage and a trial step costs six field evaluations, not seven.  The
batch recorder keeps (t, x, y) per accepted step; Lyapunov values are
added only by the callers that report them.  Every operation on a point
is row-wise and the field kernel is row-invariant, so a point's orbit
does not depend on the batch it runs in: all separatrices of one
direction run as one batch, and each equals its orbit integrated alone.
Basin labels come from one cells-by-attractors Chebyshev distance
matrix, and the revisit scan of the monotonicity check walks its
distance matrix in blocks of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

import numpy as np

from .catalog import ATTRACTOR, SADDLE, FamilyDescriptor
from .equilibria import EquilibriumList, find_equilibria
from .flowgen import ProjectedField, keep_rows, lyapunov_planar, projected_field, row_max_abs

STALL_TOL = 1e-9
# shortest step whose displacement alone can tell a stall (see _integrate_batch)
STALL_STEP = 1e-6
BOUNDARY_EXIT_TOL = 1e-9
MATCH_TOL = 1e-6
# a revisit counts only after the orbit left the revisited point by more
# than this (Chebyshev distance), so plain convergence is exempt
REVISIT_EXCURSION = 1e-4
H_MAX = 50.0
H_MIN = 1e-14

# Dormand-Prince 5(4) coefficients
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35 / 384 - 5179 / 57600,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)

# termination codes
RUNNING, STALLED, BOUNDARY, UNDERFLOW, MAX_TIME, MAX_STEPS = 0, 1, 2, 3, 4, 5
_REASONS = {
    STALLED: "stalled",
    BOUNDARY: "boundary",
    UNDERFLOW: "underflow",
    MAX_TIME: "max_time",
    MAX_STEPS: "max_steps",
}


@dataclass
class LimitOutcome:
    kind: str  # "Equilibrium" or "Undetermined"
    label: Optional[str]
    position: tuple
    distance: float
    time_elapsed: float
    reason: str

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "position": list(self.position),
            "distance": self.distance,
            "time_elapsed": self.time_elapsed,
            "reason": self.reason,
        }


@dataclass
class Trajectory:
    samples: list  # (t, x, y, L)
    direction: str
    terminal: LimitOutcome


@dataclass
class BasinGrid:
    family: FamilyDescriptor
    resolution: int
    labels: list  # labels[iy][ix]; None outside the margin
    xs: list
    ys: list
    attractor_labels: list

    def label_counts(self) -> dict:
        counts: dict = {}
        for row in self.labels:
            for lab in row:
                if lab is not None:
                    counts[lab] = counts.get(lab, 0) + 1
        return counts

    @property
    def undetermined_fraction(self) -> float:
        counts = self.label_counts()
        total = sum(counts.values())
        if total == 0:
            return 0.0
        return counts.get("Undetermined", 0) / total


@dataclass
class Separatrix:
    saddle_label: str
    saddle_position: tuple
    manifold: str  # "stable" or "unstable"
    sign: int
    eigenvalue: float
    points: list
    limit: LimitOutcome


@dataclass
class EdgeInvarianceReport:
    family: FamilyDescriptor
    identities: list  # (name, holds)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.identities)


@dataclass
class MonotonicityReport:
    family: FamilyDescriptor
    n_orbits: int
    violations: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


_FIELD_CACHE: dict = {}
_EQ_CACHE: dict = {}


def field_for(family: FamilyDescriptor) -> ProjectedField:
    if family not in _FIELD_CACHE:
        _FIELD_CACHE[family] = projected_field(family)
    return _FIELD_CACHE[family]


def equilibria_for(family: FamilyDescriptor) -> EquilibriumList:
    if family not in _EQ_CACHE:
        _EQ_CACHE[family] = find_equilibria(field_for(family))
    return _EQ_CACHE[family]


def _clamp_to_simplex(p: np.ndarray) -> np.ndarray:
    q = np.maximum(p, 0.0)
    s = q[..., 0] + q[..., 1]
    over = s > 1.0
    if np.any(over):
        shift = (s[over] - 1.0) / 2.0
        q[over, 0] -= shift
        q[over, 1] -= shift
        np.maximum(q, 0.0, out=q)
    return q


def _dp_step(field: ProjectedField, p, k1, hh, sign, rtol, atol):
    """One trial Dormand-Prince step for a batch of points.

    k1 is the signed field at p.  Returns the fifth-order result, the
    scaled error norm and the signed field at that result (k7), which
    is the next step's k1 when the step is accepted (first same as
    last).  Trial stages that overflow far outside the simplex read as
    infinite error, so the step is rejected and the step size shrinks.
    """
    # step sizes at full (n, 2) shape: numpy broadcasts a column over a
    # length-2 axis several times slower than it multiplies equal shapes
    hc = np.repeat(hh, 2).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k2 = sign * field.rhs(p + hc * (_A21 * k1), normalized=False)
        k3 = sign * field.rhs(p + hc * (_A31 * k1 + _A32 * k2), normalized=False)
        k4 = sign * field.rhs(p + hc * (_A41 * k1 + _A42 * k2 + _A43 * k3), normalized=False)
        k5 = sign * field.rhs(
            p + hc * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4), normalized=False
        )
        k6 = sign * field.rhs(
            p + hc * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5),
            normalized=False,
        )
        y5 = p + hc * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = sign * field.rhs(y5, normalized=False)
        err = hc * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        scale = atol + rtol * np.maximum(np.abs(p), np.abs(y5))
        errnorm = row_max_abs(err / scale)
    errnorm = np.where(np.isfinite(errnorm), errnorm, np.inf)
    y5 = np.where(np.isfinite(y5), y5, 0.0)
    return y5, errnorm, k7


def _check_integration_input(pos, rtol, atol, max_time, max_steps) -> None:
    """Reject starts outside the closed simplex and non-positive budgets."""
    if not np.isfinite(pos).all():
        raise ValueError("start points must be finite")
    tol = BOUNDARY_EXIT_TOL
    outside = (pos[:, 0] < -tol) | (pos[:, 1] < -tol) | (pos[:, 0] + pos[:, 1] > 1.0 + tol)
    if outside.any():
        x, y = pos[np.flatnonzero(outside)[0]].tolist()
        raise ValueError(f"start point ({x!r}, {y!r}) lies outside the closed simplex")
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not max_time > 0:
        raise ValueError(f"max_time must be positive, got {max_time!r}")
    if not max_steps > 0:
        raise ValueError(f"max_steps must be positive, got {max_steps!r}")


def _integrate_batch(
    field: ProjectedField,
    pts,
    direction: str = "forward",
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_time: float = 1e4,
    max_steps: int = 200000,
    record: bool = False,
):
    """Advance every point until stall, boundary exit, or budget.

    Returns (positions, times, status codes, step counts, samples) with
    samples a per-point list of (t, x, y) when record is set.  Raises
    ValueError for a start outside the closed simplex (slack
    BOUNDARY_EXIT_TOL), a non-finite start, or a non-positive tolerance
    or budget.
    """
    sign = 1.0 if direction == "forward" else -1.0
    pos = np.array(pts, dtype=float).reshape(-1, 2).copy()
    _check_integration_input(pos, rtol, atol, max_time, max_steps)
    n = len(pos)
    t = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    status = np.full(n, RUNNING, dtype=np.int8)

    samples: list = [[] for _ in range(n)]
    if record:
        for g in range(n):
            samples[g].append((0.0, float(pos[g, 0]), float(pos[g, 1])))

    # k1 holds the signed field at each running point (first same as last)
    k1 = sign * field.rhs(pos, normalized=False)
    speed = np.maximum(row_max_abs(k1), 1e-300)
    h = np.clip(1e-2 / speed, 1e-6, H_MAX)
    h = np.minimum(h, max_time)

    # the loop carries only the running points, in input order, so every
    # kernel call sees the same batch as a scan over all points would; a
    # point's results are written back when it stops
    ids, p, tp, sp = np.arange(n), pos.copy(), t.copy(), steps.copy()
    for _iter in range(4 * max_steps):
        if ids.size == 0:
            break
        y5, errnorm, k7 = _dp_step(field, p, k1, h, sign, rtol, atol)

        accept = errnorm <= 1.0
        disp = row_max_abs(y5 - p)
        exited = accept & (
            (y5[:, 0] < -BOUNDARY_EXIT_TOL)
            | (y5[:, 1] < -BOUNDARY_EXIT_TOL)
            | (y5[:, 0] + y5[:, 1] > 1.0 + BOUNDARY_EXIT_TOL)
        )
        if exited.any():
            y5[exited] = _clamp_to_simplex(y5[exited])
        # a rejected step keeps its point and its first stage
        rejected = np.flatnonzero(~accept)
        y5[rejected] = p[rejected]
        k7[rejected] = k1[rejected]
        p, k1 = y5, k7
        tp[accept] += h[accept]
        sp += accept
        if record:
            moved = np.flatnonzero(accept)
            for g, tg, (x, y) in zip(ids[moved].tolist(), tp[moved].tolist(), p.take(moved, axis=0).tolist()):
                samples[g].append((tg, x, y))
        # a step shortened by the controller or by the max_time cap must
        # not read as a stall: a short step counts only where the field is
        # so slow that a step of STALL_STEP would have stalled as well
        short = (h < STALL_STEP) & (row_max_abs(k1) * STALL_STEP >= STALL_TOL)
        stalled = accept & ~exited & (disp < STALL_TOL) & ~short
        code = np.full(ids.size, RUNNING, dtype=np.int8)
        code[exited] = BOUNDARY
        code[stalled] = STALLED

        # step-size update, guarding the zero-error case
        factor = np.clip(0.9 * np.maximum(errnorm, 1e-300) ** -0.2, 0.2, 5.0)
        rem = max_time - tp
        code[(code == RUNNING) & (rem <= 1e-12)] = MAX_TIME
        h = np.minimum(np.minimum(h * factor, H_MAX), rem)
        code[(code == RUNNING) & (h < H_MIN)] = UNDERFLOW
        code[(code == RUNNING) & (sp >= max_steps)] = MAX_STEPS

        stop = code != RUNNING
        if stop.any():
            g = ids[stop]
            pos[g] = np.compress(stop, p, axis=0)
            t[g], steps[g], status[g] = tp[stop], sp[stop], code[stop]
            ids, p, k1, h, tp, sp = keep_rows(~stop, ids, p, k1, h, tp, sp)
    # points still running when the step guard runs out
    pos[ids], t[ids], steps[ids], status[ids] = p, tp, sp, MAX_STEPS

    return pos, t, status, steps, samples


def _terminal_outcome(family, pos, t, code) -> LimitOutcome:
    """Match the terminal point against the family's computed zero set.

    A stalled or boundary-clamped endpoint within MATCH_TOL of a found
    equilibrium is an Equilibrium outcome carrying its label; anything
    else is Undetermined, including a stall with no equilibrium nearby
    (which would mean the search missed a zero, and deserves suspicion
    rather than a made-up label).
    """
    reason = _REASONS.get(int(code), "unknown")
    p = (float(pos[0]), float(pos[1]))
    eq, dist = _match_equilibrium(family, p)
    if code in (STALLED, BOUNDARY) and eq is not None:
        label = eq.matched_label or f"({eq.position[0]:.9f},{eq.position[1]:.9f})"
        return LimitOutcome(
            kind="Equilibrium",
            label=label,
            position=p,
            distance=dist,
            time_elapsed=float(t),
            reason=reason,
        )
    return LimitOutcome(
        kind="Undetermined",
        label=None,
        position=p,
        distance=dist,
        time_elapsed=float(t),
        reason=reason,
    )


def integrate_orbit(
    field: ProjectedField,
    p0,
    direction: str = "forward",
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_time: float = 1e4,
    max_steps: int = 200000,
) -> Trajectory:
    """Single orbit of the cleared field with dense samples.

    Terminates on equilibrium proximity (accepted-step displacement
    below 1e-9), boundary exit beyond 1e-9, or an exhausted budget.
    The terminal outcome is matched against the family's computed
    zero set, so a converged orbit arrives labeled.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction!r}")
    pos, t, status, _steps, samples = _integrate_batch(
        field,
        [p0],
        direction=direction,
        rtol=rtol,
        atol=atol,
        max_time=max_time,
        max_steps=max_steps,
        record=True,
    )
    return Trajectory(
        samples=[s + (lyapunov_planar(field.family, s[1], s[2]),) for s in samples[0]],
        direction=direction,
        terminal=_terminal_outcome(field.family, pos[0], t[0], status[0]),
    )


def _match_equilibrium(family: FamilyDescriptor, pos, tol: float = MATCH_TOL):
    best, best_d = None, math.inf
    for eq in equilibria_for(family):
        d = math.hypot(pos[0] - eq.position[0], pos[1] - eq.position[1])
        if d < best_d:
            best, best_d = eq, d
    if best is not None and best_d <= tol:
        return best, best_d
    return None, best_d


def limit_of_orbit(field: ProjectedField, p0, direction: str = "forward") -> LimitOutcome:
    """Forward or backward limit, matched against the computed zero set."""
    return integrate_orbit(field, p0, direction=direction).terminal


def basin_map(
    family: FamilyDescriptor,
    resolution: int,
    margin: float = 1e-3,
    max_time: float = 1e4,
    max_steps: int = 10000,
) -> BasinGrid:
    """Forward-limit label for every cell center strictly inside S.

    Labels name attractors only; anything else (saddle crawl, budget
    exhaustion, unmatched terminal point) is Undetermined.  A cell's
    result does not depend on the batch it runs in: it is the orbit
    integrate_orbit gives from the cell center with the same budget.
    """
    if not 16 <= resolution <= 2048:
        raise ValueError("resolution must lie in [16, 2048]")
    field = field_for(family)
    eqs = equilibria_for(family)
    attractors = [eq for eq in eqs if eq.stability == ATTRACTOR]

    centers = [(i + 0.5) / resolution for i in range(resolution)]
    cells = []
    index = []
    for iy, y in enumerate(centers):
        for ix, x in enumerate(centers):
            if x > margin and y > margin and x + y < 1.0 - margin:
                cells.append((x, y))
                index.append((iy, ix))
    names = [a.matched_label or f"({a.position[0]:.9f},{a.position[1]:.9f})" for a in attractors]
    labels: list = [[None] * resolution for _ in range(resolution)]
    if cells:
        pos, _t, status, _steps, _ = _integrate_batch(
            field,
            cells,
            direction="forward",
            max_time=max_time,
            max_steps=max_steps,
        )
        # Chebyshev distance of every terminal point to every attractor;
        # index len(attractors) stands for Undetermined
        pick = np.full(len(cells), len(attractors))
        if attractors:
            apos = np.array([a.position for a in attractors])
            d = np.maximum(
                np.abs(apos[None, :, 0] - pos[:, None, 0]),
                np.abs(apos[None, :, 1] - pos[:, None, 1]),
            )
            j = np.argmin(d, axis=1)
            hit = np.isin(status, (STALLED, BOUNDARY)) & (d[np.arange(len(cells)), j] <= MATCH_TOL)
            pick[hit] = j[hit]
        choices = names + ["Undetermined"]
        for (iy, ix), k in zip(index, pick.tolist()):
            labels[iy][ix] = choices[k]
    return BasinGrid(
        family=family,
        resolution=resolution,
        labels=labels,
        xs=centers,
        ys=centers,
        attractor_labels=names,
    )


def _eigenvectors_2x2(field: ProjectedField, p) -> list:
    """Real eigenpairs (eigenvalue, unit vector) of the Jacobian at p."""
    jac = field.jacobian(np.array([p]), normalized=True)[0]
    a, b, c, d = jac[0, 0], jac[0, 1], jac[1, 0], jac[1, 1]
    tr, det = a + d, a * d - b * c
    disc = tr * tr / 4 - det
    if disc < 0:
        return []
    root = math.sqrt(disc)
    pairs = []
    for lam in (tr / 2 - root, tr / 2 + root):
        if abs(b) > 1e-14:
            vec = np.array([b, lam - a])
        elif abs(c) > 1e-14:
            vec = np.array([lam - d, c])
        else:
            vec = np.array([1.0, 0.0]) if abs(a - lam) < abs(d - lam) else np.array([0.0, 1.0])
        norm = math.hypot(vec[0], vec[1])
        if norm < 1e-300:
            continue
        pairs.append((lam, vec / norm))
    return pairs


def separatrices(family: FamilyDescriptor, offset: float = 1e-6) -> list:
    """Invariant manifolds of every saddle, traced to their limits.

    Four orbits per saddle: the unstable eigendirections forward, the
    stable ones backward, each launched offset away from the saddle.
    All launches of one direction run as one batch; since no kernel row
    depends on its batch, each separatrix is the orbit integrate_orbit
    gives from its start.
    """
    field = field_for(family)
    launches: list = []  # ((label, position, manifold, sign, eigenvalue), direction, start)
    for eq in equilibria_for(family):
        if eq.stability != SADDLE:
            continue
        pairs = _eigenvectors_2x2(field, eq.position)
        if len(pairs) != 2:
            continue
        label = eq.matched_label or f"({eq.position[0]:.6f},{eq.position[1]:.6f})"
        for lam, vec in pairs:
            manifold = "unstable" if lam > 0 else "stable"
            direction = "forward" if lam > 0 else "backward"
            for sgn in (1, -1):
                start = (
                    eq.position[0] + sgn * offset * vec[0],
                    eq.position[1] + sgn * offset * vec[1],
                )
                if not (
                    start[0] >= -1e-9
                    and start[1] >= -1e-9
                    and start[0] + start[1] <= 1.0 + 1e-9
                ):
                    continue
                head = (label, eq.position, manifold, sgn, float(lam))
                launches.append((head, direction, start))

    traced: dict = {}  # launch index -> (points, limit)
    for direction in ("forward", "backward"):
        group = [k for k, (_h, d, _s) in enumerate(launches) if d == direction]
        if not group:
            continue
        pos, t, status, _steps, samples = _integrate_batch(
            field, [launches[k][2] for k in group], direction=direction, record=True
        )
        for j, k in enumerate(group):
            points = [(x, y) for _t, x, y in samples[j]]
            traced[k] = (points, _terminal_outcome(family, pos[j], t[j], status[j]))
    return [Separatrix(*head, *traced[k]) for k, (head, _d, _s) in enumerate(launches)]


# ----------------------------------------------------------------------
# symbolic invariance identities


def _poly_divisible_by_var(poly, var_index: int) -> bool:
    return all(e[var_index] >= 1 for e in poly.terms)


def _restrict_line(poly, const: Fraction, slope: Fraction) -> dict:
    """Coefficients of p(x, const + slope*x) as a dict {power: Fraction}."""
    out: dict = {}
    for (a, b), c in poly.terms.items():
        # (const + slope x)^b expanded exactly
        for k in range(b + 1):
            coeff = (
                c
                * math.comb(b, k)
                * (const ** (b - k))
                * (slope ** k)
            )
            if coeff == 0:
                continue
            key = a + k
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


def _restrict_vertical(poly, x0: Fraction) -> dict:
    """Coefficients of p(x0, y) as a dict {power: Fraction}."""
    out: dict = {}
    for (a, b), c in poly.terms.items():
        coeff = c * (x0 ** a)
        if coeff == 0:
            continue
        out[b] = out.get(b, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


def edge_invariance_check(family: FamilyDescriptor, field: Optional[ProjectedField] = None) -> EdgeInvarianceReport:
    """Exact polynomial identities for the invariant segments.

    Boundary edges (three identities, every family): x divides u,
    y divides v, and u+v vanishes on the hypotenuse y = 1-x.  The
    three mid-segment identities (v on y=1/2, u on x=1/2, normal
    component on x+y=1/2) hold for the families with all-equal or
    paired summand dimensions and are only asserted there.
    """
    if field is None:
        field = field_for(family)
    u, v = field.u, field.v
    upv = u + v
    identities = [
        ("x_divides_u", _poly_divisible_by_var(u, 0)),
        ("y_divides_v", _poly_divisible_by_var(v, 1)),
        ("u_plus_v_on_hypotenuse", not _restrict_line(upv, Fraction(1), Fraction(-1))),
    ]
    if family.is_type_two:
        identities.extend(
            [
                ("v_on_segment_KL", not _restrict_line(v, Fraction(1, 2), Fraction(0))),
                ("u_on_segment_LM", not _restrict_vertical(u, Fraction(1, 2))),
                ("normal_on_segment_MK", not _restrict_line(upv, Fraction(1, 2), Fraction(-1))),
            ]
        )
    return EdgeInvarianceReport(family=family, identities=identities)


def random_interior_points(n: int, rng, margin: float = 1e-2) -> list:
    """n points uniform on the open simplex, margin away from the edges."""
    pts = []
    while len(pts) < n:
        x = rng.uniform(margin, 1.0 - margin)
        y = rng.uniform(margin, 1.0 - margin)
        if x + y < 1.0 - margin:
            pts.append((x, y))
    return pts


# distance-matrix elements per block of rows in the revisit scan
_REVISIT_BLOCK = 1 << 18


def _first_revisit(tv, xy, revisit_tol: float) -> Optional[float]:
    """Distance of the first revisit along one sampled orbit, or None.

    A periodic orbit returns within revisit_tol of a point it saw at
    least one time unit earlier AFTER leaving its neighborhood by more
    than REVISIT_EXCURSION; plain convergence clusters samples without
    any excursion and is exempt.  Pairs (i, j) are scanned in row-major
    order over blocks of rows, so memory stays bounded while the
    reported pair is the same as a full-matrix scan would give.
    """
    n = len(tv)
    rows = max(1, _REVISIT_BLOCK // max(n, 1))
    cols = np.arange(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        dist = np.maximum(
            np.abs(xy[None, :, 0] - xy[start:stop, None, 0]),
            np.abs(xy[None, :, 1] - xy[start:stop, None, 1]),
        )
        close = (dist < revisit_tol) & (tv[None, :] - tv[start:stop, None] >= 1.0)
        if not close.any():
            continue
        # reach[r, j] is the farthest the orbit got from sample i = start + r
        # over samples i..j
        reach = np.maximum.accumulate(
            np.where(cols[None, :] >= np.arange(start, stop)[:, None], dist, 0.0), axis=1
        )
        hits = np.argwhere(close & (reach > REVISIT_EXCURSION))
        if hits.size:
            r, j = hits[0]
            return float(dist[r, j])
    return None


def monotonicity_check(
    family: FamilyDescriptor,
    n_orbits: int,
    seed: int = 0,
    step_tol: float = 1e-10,
    revisit_tol: float = 1e-8,
) -> MonotonicityReport:
    """Gradient-like behavior along random interior orbits.

    The Lyapunov value must not increase between accepted steps by more
    than step_tol, and after one unit of time no orbit may return
    within revisit_tol of a point it already visited at least one time
    unit earlier (no periodic orbits).
    """
    if n_orbits < 1:
        raise ValueError("n_orbits must be at least 1")
    field = field_for(family)
    rng = np.random.default_rng(seed)
    pts = random_interior_points(n_orbits, rng)
    _pos, _t, _status, _steps, samples = _integrate_batch(
        field, pts, direction="forward", record=True
    )
    report = MonotonicityReport(family=family, n_orbits=n_orbits)
    for g, sam in enumerate(samples):
        if len(sam) < 2:
            continue
        arr = np.array(sam)
        tv, xy = arr[:, 0], arr[:, 1:3]
        lv = np.array([lyapunov_planar(family, s[1], s[2]) for s in sam])
        finite = np.isfinite(lv)
        dl = np.diff(lv[finite])
        worst = dl.max() if dl.size else 0.0
        if worst > step_tol:
            report.violations.append(
                (g, "lyapunov_increase", float(worst), tuple(pts[g]))
            )
        revisit = _first_revisit(tv, xy, revisit_tol)
        if revisit is not None:
            report.violations.append((g, "revisit", revisit, tuple(pts[g])))
    return report
