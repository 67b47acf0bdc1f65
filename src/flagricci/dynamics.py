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
does not depend on the batch it runs in.  A batch takes each row's
direction and step budget, the direction as the sign of its step: a
phase portrait's sample orbits and its forward and backward separatrices
run as one batch, and each equals its orbit integrated alone.  The
edges are invariant, so a trial step that leaves the closed simplex is
rejected like one whose error is too large (Shampine, Thompson,
Kierzenka & Byrne, Appl. Math. Comput. 170, 2005).
Orbit limits and basin labels come from one rule (_limits): a stalled
end within MATCH_TOL of a found equilibrium, or the attractor of the
sink trap that caught it.  A sink trap is a Lyapunov sublevel set
around a rational attractor, certified in Fractions to be forward
invariant and to drain to it (SinkTrap, sink_trap).  Only basin_map
passes traps: its cells stop on entering one instead of crawling the
exponential tail to a stall, 80-93% of the table families' accepted
steps.  Orbits, portraits, separatrices and the monotonicity check keep
the stall rule and their whole paths.  Basin labels name the attractors
among the limits, matched over all cells at once, and the revisit scan
of the monotonicity check walks its distance matrix in blocks of rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .catalog import ATTRACTOR, SADDLE, FamilyDescriptor
from .equilibria import EquilibriumList, find_equilibria, nearest
from .flowgen import BOUNDARY_EXIT_TOL, ProjectedField, keep_rows, lyapunov_planar, projected_field, row_max_abs
from .polyalg import restrict_to_line, sub, taylor_shift

STALL_TOL = 1e-9
# shortest step whose displacement alone can tell a stall (see _integrate_batch)
STALL_STEP = 1e-6
MATCH_TOL = 1e-6
# basin cells lie more than this inside every edge
BASIN_MARGIN = 1e-3
# random sample orbits start at least this far inside every edge
INTERIOR_MARGIN = 1e-2
# an orbit's default tolerances and time budget
ORBIT_RTOL, ORBIT_ATOL, ORBIT_MAX_TIME = 1e-10, 1e-12, 1e4
# the largest rtol or atol accepted; at 1e-6 a third or more of the table
# families' random orbits end Undetermined
TOL_MAX = 1e-7
# step budgets: an orbit or separatrix, a basin cell, a portrait's sample orbit
ORBIT_MAX_STEPS = 200000
BASIN_MAX_STEPS = 10000
PORTRAIT_MAX_STEPS = 4000
# larger budgets are cut to this one, which no run reaches, so every
# budget fits in an int64
_BUDGET_CAP = 1 << 62
# separatrices start this far from their saddle along an eigenvector
SEPARATRIX_OFFSET = 1e-6
# the monotonicity check allows the Lyapunov value to rise by at most
# LYAPUNOV_STEP_TOL per step and counts a return within REVISIT_TOL
LYAPUNOV_STEP_TOL = 1e-10
REVISIT_TOL = 1e-8
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
RUNNING, STALLED, UNDERFLOW, MAX_TIME, MAX_STEPS, TRAPPED = 0, 1, 2, 3, 4, 5
_REASONS = {
    STALLED: "stalled",
    UNDERFLOW: "underflow",
    MAX_TIME: "max_time",
    MAX_STEPS: "max_steps",
    TRAPPED: "trapped",
}
# sink traps bound dV/dt on 4 TRAP_N sectors of directions, in integers over 2^_TRAP_SCALE
TRAP_N = 64
_TRAP_SCALE = 128


@dataclass
class LimitOutcome:
    kind: str  # "Equilibrium" or "Undetermined"
    label: Optional[str]
    position: tuple
    distance: float
    time_elapsed: float
    reason: str


@dataclass
class Trajectory:
    samples: list  # (t, x, y, L)
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
    manifold: str  # "stable" or "unstable"
    sign: int
    eigenvalue: float
    points: list
    limit: LimitOutcome


class SinkTrap(NamedTuple):
    """A certified trap {V < level} around a rational attractor.

    V(w) = wᵀPw with w = (x, y) - center, and P = ((pxx, pxy), (pxy, pyy))
    solves AᵀP + PA = -I for the exact Jacobian A at the center.  On the
    set dV/dt < 0 except at the center, proved sector by sector of
    directions by signed bounds and a Bernstein sign test, so it is
    forward invariant and each orbit in it tends to the center (Khalil,
    Nonlinear Systems, §8.2); it lies within radius of the center.  The
    simplex edges are invariant, so its part in the closed simplex is too.
    index locates the attractor in equilibria_for; floats holds (cx, cy,
    pxx, 2 pxy, pyy, level) for the float test, with the level shrunk past
    that test's rounding error.
    """

    index: int
    center: tuple
    p: tuple
    radius: Fraction
    level: Fraction
    floats: tuple


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


@functools.cache
def field_for(family: FamilyDescriptor) -> ProjectedField:
    """The family's projected field, derived once per process."""
    return projected_field(family)


@functools.cache
def equilibria_for(family: FamilyDescriptor) -> EquilibriumList:
    """The family's computed zero set, searched once per process."""
    return find_equilibria(field_for(family))


def _sqrt_above(q: Fraction) -> Fraction:
    """A rational upper bound on sqrt(q), above it by at most 2^-40 / q.denominator."""
    return Fraction(math.isqrt(q.numerator * q.denominator << 80) + 1, q.denominator << 40)


def _dv_dt_parts(su, sv, p) -> dict:
    """The parts {g: {(i, j): coeff}} of degree g of W(w) = dV/dt = 2 wᵀP f(w),
    for V(w) = wᵀPw, P = (pxx, pxy, pyy), and f = (su, sv) shifted to the zero."""
    pxx, pxy, pyy = p
    parts: dict = {}
    for s, (a, b) in ((su, (pxx, pxy)), (sv, (pxy, pyy))):
        for (i, j), c in s.items():
            part = parts.setdefault(i + j + 1, {})
            part[i + 1, j] = part.get((i + 1, j), 0) + 2 * a * c
            part[i, j + 1] = part.get((i, j + 1), 0) + 2 * b * c
    return parts


def _trap_sectors(parts, p, lam_min) -> tuple:
    """Bounds on dV/dt and on dᵀPd over the 4n sectors of unit vectors d, n = TRAP_N.

    The directions sign ((n^2 - k^2), 2kn) / (n^2 + k^2), k = -n..n, sign = ±1,
    lie at most 2/n rad apart; sector i runs from k = i mod 2n - n to k + 1,
    with sign +1 for i < 2n.  Returns (q, m) in integers over 2^_TRAP_SCALE:
    q[0][i] = -1 and q[g - 2][i] >= W_g(d), signed, for g >= 3, so that
    dV/dt <= ρ^2 q_i(ρ), q_i(ρ) = sum_e q[e][i] ρ^e, along each ray ρd of
    sector i; m[i] <= dᵀPd there.  On an arc of width h a function of the
    angle exceeds its larger end value by at most h^2/8 sup|f''| (linear
    interpolation), and |W_g''| <= g^2 sum|coeffs of W_g| (Bernstein's
    inequality for trigonometric polynomials), |(dᵀPd)''| <= 2|pxx - pyy|
    + 4|pxy|; m is at least lam_min, a lower bound on λmin(P), rounded down.
    """
    n, one = TRAP_N, 1 << _TRAP_SCALE
    pxx, pxy, pyy = p
    polys = {2: {(2, 0): pxx, (1, 1): 2 * pxy, (0, 2): pyy}, **{g: w for g, w in parts.items() if g >= 3}}
    k = np.arange(-n, n + 1).astype(object)
    x, y, r = n * n - k * k, 2 * n * k, n * n + k * k
    q = np.zeros((max(polys) - 1, 4 * n), dtype=object)
    q[0] = -one
    for g, poly in polys.items():
        den = math.lcm(*(c.denominator for c in poly.values()))
        coeffs = [(e, int(c * den)) for e, c in poly.items()]
        num, div = sum(c * x**i * y**j for (i, j), c in coeffs) * one, den * r**g
        # floor and ceiling of one * poly(d) at each direction
        lo, hi = num // div, -(-num // div)
        if g == 2:
            slack = math.ceil((abs(pxx - pyy) + 2 * abs(pxy)) * one / (n * n))
            m = np.maximum(np.minimum(lo[:-1], lo[1:]) - slack, math.floor(lam_min * one))
            continue
        slack = math.ceil(Fraction(g * g * sum(abs(c) for _, c in coeffs) * one, 2 * den * n * n))
        # W_g(-d) = (-1)^g W_g(d), so on the negated sectors an odd part's bound is its floor negated
        back = np.maximum(hi[:-1], hi[1:]) if g % 2 == 0 else -np.minimum(lo[:-1], lo[1:])
        q[g - 2] = np.concatenate([np.maximum(hi[:-1], hi[1:]), back]) + slack
    return q, np.concatenate([m, m])


def _negative_on(q, a, b) -> np.ndarray:
    """Whether each column's Bernstein coefficients of sum_e q[e] ρ^e on
    [0, a/b] are all negative, which proves that polynomial negative there
    (Farouki & Rajan, CAGD 4, 1987); exact in integers.

    Times b^D D!/j!, D = len(q) - 1, the j-th coefficient is
    sum_{e <= j} (D-e)!/(j-e)! q[e] a^e b^(D-e).  On a subinterval the
    coefficients are convex combinations of these, so the test holds on
    [0, ρ'] wherever it holds on [0, ρ] ⊇ [0, ρ'].
    """
    top = len(q) - 1
    # (D-e)!/(j-e)!, and 0 for e > j
    weights = np.array([[math.perm(top - e, top - j) for e in range(top + 1)] for j in range(top + 1)])
    e = np.arange(top + 1)[:, None]
    return (weights @ (q * a**e * b ** (top - e)) < 0).all(axis=0)


def _certifies(sectors, level: Fraction) -> bool:
    """Whether the sector bounds prove dV/dt < 0 on {0 < V < level}, exactly.

    On a ray ρd of sector i, V < level gives ρ < sqrt(level / m[i]); the
    check takes a rational ρ = a/b above that root and proves q_i < 0 on
    [0, a/b] (_negative_on), in integers."""
    q, m = sectors
    den = level.denominator * m
    a, b = np.frompyfunc(math.isqrt, 1, 1)(level.numerator * (1 << _TRAP_SCALE) * den << 80) + 1, den << 40
    return bool(_negative_on(q, a, b).all())


def sink_trap(field: ProjectedField, center, index: int) -> SinkTrap:
    """The certified trap around the zero center (exact Fractions).

    center must be an attractor, its exact Jacobian A having trace < 0 < det.
    Shifted to center, dV/dt = -|w|^2 plus its parts W_g of degree g >= 3
    (_dv_dt_parts).  The level is the least of the sector levels m ρ^2
    (_trap_sectors), each ρ <= 2 the largest that passes _negative_on's
    test in a float bisection; their least is backed off by 2^-20 and
    checked exactly (_certifies), halved until it passes.  The radius is a
    rational upper bound on sqrt(level / λmin(P)), so V < level gives |w|
    below it.
    """
    su, sv = taylor_shift(field.u, center), taylor_shift(field.v, center)
    if su.get((0, 0)) or sv.get((0, 0)):
        raise ValueError(f"{center} is not a zero of the field")
    a, b, c, d = su.get((1, 0), 0), su.get((0, 1), 0), sv.get((1, 0), 0), sv.get((0, 1), 0)
    tr, det = a + d, a * d - b * c
    # P = -(det I + adj(A)ᵀ adj(A)) / (2 tr det)
    k = -2 * tr * det
    p = pxx, pxy, pyy = (det + c * c + d * d) / k, -(a * c + b * d) / k, (det + a * a + b * b) / k
    lam_max = (pxx + pyy) / 2 + _sqrt_above(((pxx - pyy) / 2) ** 2 + pxy**2)
    # λmin λmax = det P
    lam_min = (pxx * pyy - pxy**2) / lam_max
    sectors = q, m = _trap_sectors(_dv_dt_parts(su, sv, p), p, lam_min)
    # bisection in floats on the same test, for each sector's largest ρ
    one = 1 << _TRAP_SCALE
    qf = (q / one).astype(float)
    lo, hi = np.zeros(len(m)), np.full(len(m), 2.0)
    for _ in range(40):
        mid = (lo + hi) / 2
        below = _negative_on(qf, mid, 1.0)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    level = Fraction(float(((m / one).astype(float) * lo * lo).min()) * (1 - 2.0**-20))
    while not _certifies(sectors, level):
        level /= 2
    radius = _sqrt_above(level / lam_min)
    # V in floats at a point of the closed simplex (|w| <= sqrt 2) errs by
    # less than 16 2^-53 λmax |w|: under half the margin below up to
    # |w| = 2 radius, beyond which V > 4 level, so a float V below this
    # shrunk level puts the point inside the trap
    shrunk = level * (1 - Fraction(64, 1 << 53) * lam_max / (lam_min * radius))
    return SinkTrap(
        index=index,
        center=tuple(center),
        p=p,
        radius=radius,
        level=level,
        floats=tuple(float(v) for v in (*center, pxx, 2 * pxy, pyy, shrunk)),
    )


@functools.cache
def traps_for(family: FamilyDescriptor) -> tuple:
    """The certified traps of the family's rational attractors, built once per process.

    A rational zero is an attractor exactly when its Jacobian has trace < 0 < det
    (corner_class calls every degenerate corner a repeller), as sink_trap
    needs; an attractor at an irrational position has no trap.
    """
    field = field_for(family)
    attractors = [(j, eq.exact) for j, eq in enumerate(equilibria_for(family)) if eq.stability == ATTRACTOR]
    return tuple(sink_trap(field, center, j) for j, center in attractors if center is not None)


def _trap_of(traps, p: np.ndarray) -> np.ndarray:
    """Index into traps of the trap holding each row of the (n, 2) array p, -1 for none."""
    held = np.full(len(p), -1)
    for j, trap in enumerate(traps):
        cx, cy, pxx, pxy2, pyy, level = trap.floats
        dx, dy = p[:, 0] - cx, p[:, 1] - cy
        held[(pxx * dx + pxy2 * dy) * dx + pyy * dy * dy < level] = j
    return held


def _outside_simplex(p: np.ndarray) -> np.ndarray:
    """Rows of the (n, 2) array p outside the closed simplex, slack BOUNDARY_EXIT_TOL."""
    tol = BOUNDARY_EXIT_TOL
    return (p[:, 0] < -tol) | (p[:, 1] < -tol) | (p[:, 0] + p[:, 1] > 1.0 + tol)


def _dp_step(field: ProjectedField, p, k1, hs, rtol, atol):
    """One trial Dormand-Prince step for a batch of points.

    hs is each row's signed step: negative where the row runs backward.
    The stages are the unsigned field, k1 the field at p.  Negation is
    exact and rounding symmetric, so this gives bit for bit the step of
    the reversed field with an unsigned step size.  Returns the
    fifth-order result, the scaled error norm and the field at that
    result (k7), which is the next step's k1 when the step is accepted
    (first same as last).  Overflowing stages, and a step the error test
    would accept that lands outside the closed simplex (slack
    BOUNDARY_EXIT_TOL), read as infinite error: the step is rejected and
    the step size shrinks by the controller's least factor.
    """
    # step sizes at full (n, 2) shape: numpy broadcasts a column over a
    # length-2 axis several times slower than it multiplies equal shapes
    hc = np.repeat(hs, 2).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k2 = field.rhs(p + hc * (_A21 * k1))
        k3 = field.rhs(p + hc * (_A31 * k1 + _A32 * k2))
        k4 = field.rhs(p + hc * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = field.rhs(p + hc * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = field.rhs(p + hc * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y5 = p + hc * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = field.rhs(y5)
        err = hc * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        scale = atol + rtol * np.maximum(np.abs(p), np.abs(y5))
        errnorm = row_max_abs(err / scale)
        errnorm[(errnorm <= 1.0) & _outside_simplex(y5)] = np.inf
    errnorm = np.where(np.isfinite(errnorm), errnorm, np.inf)
    return y5, errnorm, k7


def _check_integration_input(pos, direction, rtol, atol, max_time, max_steps) -> None:
    """Reject starts outside the closed simplex, unknown directions,
    tolerances outside (0, TOL_MAX] and non-positive budgets; direction
    and max_steps are one value or one per start."""
    if not np.isfinite(pos).all():
        raise ValueError("start points must be finite")
    outside = _outside_simplex(pos)
    if outside.any():
        x, y = pos[np.flatnonzero(outside)[0]].tolist()
        raise ValueError(f"start point ({x!r}, {y!r}) lies outside the closed simplex")
    for d in [direction] if isinstance(direction, str) else direction:
        if d not in ("forward", "backward"):
            raise ValueError(f"direction must be forward or backward, got {d!r}")
    if not isinstance(direction, str) and len(direction) != len(pos):
        raise ValueError(f"direction has {len(direction)} entries for {len(pos)} start points")
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not 0 < value <= TOL_MAX:
            raise ValueError(f"{name} must lie in (0, {TOL_MAX!r}], got {value!r}")
    if not max_time > 0:
        raise ValueError(f"max_time must be positive, got {max_time!r}")
    budget = np.asarray(max_steps)
    if budget.ndim > 1 or (budget.size and budget.dtype.kind not in "iuO"):
        raise ValueError(f"max_steps must be an integer or one per start, got {max_steps!r}")
    if (budget <= 0).any():
        raise ValueError(f"max_steps must be positive, got {max_steps!r}")
    if budget.ndim and len(budget) != len(pos):
        raise ValueError(f"max_steps has {len(budget)} entries for {len(pos)} start points")


def _integrate_batch(
    field: ProjectedField,
    pts,
    direction="forward",
    rtol: float = ORBIT_RTOL,
    atol: float = ORBIT_ATOL,
    max_time: float = ORBIT_MAX_TIME,
    max_steps=ORBIT_MAX_STEPS,
    record: bool = False,
    traps=None,
):
    """Advance every point until stall, trap, or budget.

    direction ("forward" or "backward") and max_steps are one value for
    all points or one per point.  A point stops with status MAX_STEPS
    after max_steps accepted steps, or after 4 * max_steps trial steps
    of its own.  With traps (SinkTraps), a point that starts in a trap,
    or lands in one after an accepted step, stops there with status
    TRAPPED; its path up to then is the one it takes without traps.
    Returns (positions, times, status codes, step counts, samples) with
    samples a per-point list of (t, x, y) when record is set, else None.
    Raises ValueError for a start outside the closed simplex (slack
    BOUNDARY_EXIT_TOL), a non-finite start, an unknown direction, a
    tolerance outside (0, TOL_MAX], a non-positive budget, or a
    per-point list of the wrong length.
    """
    pos = np.array(pts, dtype=float).reshape(-1, 2).copy()
    _check_integration_input(pos, direction, rtol, atol, max_time, max_steps)
    n = len(pos)
    # the per-row extras are two 1-D arrays over all points: the sign of
    # each row's step and its budget (a scalar is broadcast without a
    # copy); the loop takes the running rows' entries when it needs them
    sign = np.broadcast_to(np.where(np.asarray(direction) == "forward", 1.0, -1.0), (n,))
    capped = np.minimum(np.asarray(max_steps, dtype=object), _BUDGET_CAP)
    budget = np.broadcast_to(np.array(capped, dtype=np.int64), (n,))
    t = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    status = np.full(n, RUNNING, dtype=np.int8)

    samples = [[(0.0, x, y)] for x, y in pos.tolist()] if record else None

    # the loop carries only the running points, in input order, so every
    # kernel call sees the same batch as a scan over all points would; a
    # point's results are written back when it stops
    ids = np.arange(n)
    if traps:
        caught = _trap_of(traps, pos) >= 0
        status[caught] = TRAPPED
        ids = ids[~caught]
    p, tp, sp = pos.take(ids, axis=0), t.take(ids), steps.take(ids)

    # k1 holds the field at each running point (first same as last)
    k1 = field.rhs(p)
    speed = np.maximum(row_max_abs(k1), 1e-300)
    h = np.clip(1e-2 / speed, 1e-6, H_MAX)
    h = np.minimum(h, max_time)

    for done in range(1, 4 * int(budget.max(initial=0)) + 1):
        if ids.size == 0:
            break
        y5, errnorm, k7 = _dp_step(field, p, k1, h * sign.take(ids), rtol, atol)

        accept = errnorm <= 1.0
        # a rejected step keeps its point and its first stage
        if not accept.all():
            rejected = (~accept).nonzero()[0]
            y5[rejected] = p[rejected]
            k7[rejected] = k1[rejected]
        disp = row_max_abs(y5 - p)
        p, k1 = y5, k7
        np.add(tp, h, out=tp, where=accept)
        sp += accept
        if record:
            moved = accept.nonzero()[0]
            for g, tg, (x, y) in zip(ids.take(moved).tolist(), tp.take(moved).tolist(), p.take(moved, axis=0).tolist()):
                samples[g].append((tg, x, y))
        # a step shortened by the controller or by the max_time cap must
        # not read as a stall: a short step counts only where the field is
        # so slow that a step of STALL_STEP would have stalled as well
        stalled = accept & (disp < STALL_TOL)
        if stalled.any():
            stalled &= ~((h < STALL_STEP) & (row_max_abs(k1) * STALL_STEP >= STALL_TOL))

        # step-size update, guarding the zero-error case; the two-sided
        # bound is np.clip's arithmetic without its call overhead
        factor = np.minimum(np.maximum(0.9 * np.maximum(errnorm, 1e-300) ** -0.2, 0.2), 5.0)
        rem = max_time - tp
        h = np.minimum(np.minimum(h * factor, H_MAX), rem)
        out_of_time = rem <= 1e-12
        underflow = h < H_MIN
        # out of accepted steps, or of trial steps: 4 * budget <= done
        out_of_steps = np.maximum(sp, done // 4) >= budget.take(ids)

        stop = stalled | out_of_time | underflow | out_of_steps
        if traps:
            trapped = _trap_of(traps, p) >= 0
            stop |= trapped
        if stop.any():
            # one reason per stopped row; a later assignment wins, so
            # TRAPPED > STALLED > MAX_TIME > UNDERFLOW > MAX_STEPS
            code = np.full(ids.size, MAX_STEPS, dtype=np.int8)
            for reason, rows in ((UNDERFLOW, underflow), (MAX_TIME, out_of_time), (STALLED, stalled)):
                code[rows] = reason
            if traps:
                code[trapped] = TRAPPED
            g = ids[stop]
            pos[g] = np.compress(stop, p, axis=0)
            t[g], steps[g], status[g] = tp[stop], sp[stop], code[stop]
            ids, p, k1, h, tp, sp = keep_rows(~stop, ids, p, k1, h, tp, sp)

    return pos, t, status, steps, samples


def _limits(family, pos, status, traps=None) -> tuple:
    """Each point's limit among the family's computed zero set.

    Returns its index into equilibria_for(family), -1 for none, and its
    distance to the nearest found equilibrium.  A TRAPPED point has the
    attractor of the trap (among traps) that holds it.  A stalled
    endpoint within MATCH_TOL of a found equilibrium has that limit;
    anything else has none, including a stall with no equilibrium nearby
    (which would mean the search missed a zero, and deserves suspicion
    rather than a made-up label).
    """
    idx, dist = nearest(pos, [eq.position for eq in equilibria_for(family)])
    hit = (status == STALLED) & (dist <= MATCH_TOL)
    lim = np.where(hit, idx, -1)
    if traps:
        held = _trap_of(traps, pos)
        caught = (status == TRAPPED) & (held >= 0)
        lim[caught] = np.array([trap.index for trap in traps])[held[caught]]
    return lim, dist


def _terminal_outcome(family, pos, t, code) -> LimitOutcome:
    """The terminal point's limit: an Equilibrium outcome carrying its
    label, or Undetermined (see _limits)."""
    p = (float(pos[0]), float(pos[1]))
    lim, dist = _limits(family, [p], np.array([code]))
    j = int(lim[0])
    return LimitOutcome(
        kind="Equilibrium" if j >= 0 else "Undetermined",
        label=equilibria_for(family)[j].name if j >= 0 else None,
        position=p,
        distance=float(dist[0]),
        time_elapsed=float(t),
        reason=_REASONS[int(code)],
    )


def integrate_orbit(
    field: ProjectedField,
    p0,
    direction: str = "forward",
    rtol: float = ORBIT_RTOL,
    atol: float = ORBIT_ATOL,
    max_time: float = ORBIT_MAX_TIME,
    max_steps: int = ORBIT_MAX_STEPS,
) -> Trajectory:
    """Single orbit of the cleared field with dense samples.

    Terminates on equilibrium proximity (accepted-step displacement
    below STALL_TOL) or an exhausted budget; every sample lies in the
    closed simplex, with slack BOUNDARY_EXIT_TOL.
    The terminal outcome is matched against the family's computed
    zero set, so a converged orbit arrives labeled.
    """
    pos, t, status, _steps, samples = _integrate_batch(
        field, [p0], direction=direction, rtol=rtol, atol=atol,
        max_time=max_time, max_steps=max_steps, record=True,
    )
    _t, x, y = np.array(samples[0]).T
    return Trajectory(
        samples=[s + (lv,) for s, lv in zip(samples[0], lyapunov_planar(field.family, x, y).tolist())],
        terminal=_terminal_outcome(field.family, pos[0], t[0], status[0]),
    )


def limit_of_orbit(field: ProjectedField, p0, direction: str = "forward") -> LimitOutcome:
    """Forward or backward limit: integrate_orbit's terminal outcome, without its samples."""
    pos, t, status, _steps, _ = _integrate_batch(field, [p0], direction=direction)
    return _terminal_outcome(field.family, pos[0], t[0], status[0])


def basin_map(family: FamilyDescriptor, resolution: int, margin: float = BASIN_MARGIN) -> BasinGrid:
    """Forward-limit label for every cell center strictly inside S.

    Labels name attractors only; anything else (saddle crawl, budget
    exhaustion, unmatched terminal point) is Undetermined.  A cell's
    label is its orbit's limit.  Its path is the one integrate_orbit
    gives from the cell center with the same budget, bit for bit, up to
    the step that enters a sink trap of traps_for(family).  It stops
    there and takes the trap's attractor, which the orbit from that
    point provably tends to.  No cell's result depends on the batch it
    runs in.
    Raises ValueError for a margin outside [0, 1/3) (a negative one puts
    cells outside S) or one that leaves no cell center at this resolution.
    """
    if not 16 <= resolution <= 2048:
        raise ValueError("resolution must lie in [16, 2048]")
    if not 0 <= margin < 1 / 3:
        raise ValueError(f"margin must be finite and in [0, 1/3), got {margin!r}")
    field = field_for(family)
    eqs = equilibria_for(family)
    # the name of each limit that is an attractor, Undetermined for the rest
    names = [eq.name if eq.stability == ATTRACTOR else "Undetermined" for eq in eqs]

    centers = (np.arange(resolution) + 0.5) / resolution
    # the cells strictly inside the margin, row by row (iy outer, ix inner)
    iy, ix = np.nonzero(
        (centers[None, :] > margin)
        & (centers[:, None] > margin)
        & (centers[None, :] + centers[:, None] < 1.0 - margin)
    )
    if not iy.size:
        raise ValueError(f"margin {margin!r} leaves no cell center inside S at resolution {resolution}")
    labels = np.full((resolution, resolution), None, dtype=object)
    cells = np.stack([centers[ix], centers[iy]], axis=1)
    traps = traps_for(family)
    pos, _t, status, _steps, _ = _integrate_batch(field, cells, max_steps=BASIN_MAX_STEPS, traps=traps)
    # the last entry, index -1, stands for no limit
    labels[iy, ix] = np.array(names + ["Undetermined"], dtype=object)[_limits(family, pos, status, traps)[0]]
    xs = centers.tolist()
    return BasinGrid(
        family=family,
        resolution=resolution,
        labels=labels.tolist(),
        xs=xs,
        ys=xs,
        attractor_labels=[eq.name for eq in eqs if eq.stability == ATTRACTOR],
    )


def _eigenvectors_2x2(field: ProjectedField, p) -> list:
    """The two real eigenpairs (eigenvalue, unit vector) of the Jacobian at a
    saddle p, where det < 0 makes the discriminant positive."""
    jac = field.jacobian(np.array([p]))[0] / field.scale
    a, b, c, d = jac[0, 0], jac[0, 1], jac[1, 0], jac[1, 1]
    tr, det = a + d, a * d - b * c
    root = math.sqrt(tr * tr / 4 - det)
    pairs = []
    for lam in (tr / 2 - root, tr / 2 + root):
        # each choice has a component above 1e-14, so its norm is too
        if abs(b) > 1e-14:
            vec = np.array([b, lam - a])
        elif abs(c) > 1e-14:
            vec = np.array([lam - d, c])
        else:
            vec = np.array([1.0, 0.0]) if abs(a - lam) < abs(d - lam) else np.array([0.0, 1.0])
        pairs.append((lam, vec / math.hypot(vec[0], vec[1])))
    return pairs


def separatrices(family: FamilyDescriptor) -> list:
    """Invariant manifolds of every saddle, traced to their limits.

    Four orbits per saddle: the unstable eigendirections forward, the
    stable ones backward, each launched SEPARATRIX_OFFSET away from the
    saddle; a launch outside the closed simplex is skipped.
    All launches run as one batch; since no kernel row depends on its
    batch, each separatrix is the orbit integrate_orbit gives from its
    start.
    """
    return phase_portrait(family, [])[1]


def phase_portrait(family: FamilyDescriptor, starts) -> tuple:
    """A phase portrait's sample orbits and separatrices, as one batch.

    Returns (orbits, separatrices): orbits[i] lists the points (x, y) of
    the forward orbit from starts[i], run for at most PORTRAIT_MAX_STEPS
    steps, and separatrices is what separatrices(family) gives.  Every
    orbit equals the one integrated alone from its start.
    """
    field = field_for(family)
    launches = list(starts)
    n = len(launches)
    heads, directions, budgets = [], ["forward"] * n, [PORTRAIT_MAX_STEPS] * n
    for eq in equilibria_for(family):
        if eq.stability != SADDLE:
            continue
        for lam, vec in _eigenvectors_2x2(field, eq.position):
            manifold = "unstable" if lam > 0 else "stable"
            for sgn in (1, -1):
                start = (
                    eq.position[0] + sgn * SEPARATRIX_OFFSET * vec[0],
                    eq.position[1] + sgn * SEPARATRIX_OFFSET * vec[1],
                )
                if _outside_simplex(np.array([start]))[0]:
                    continue
                heads.append((eq.name, manifold, sgn, float(lam)))
                directions.append("forward" if lam > 0 else "backward")
                budgets.append(ORBIT_MAX_STEPS)
                launches.append(start)

    pos, t, status, _steps, samples = _integrate_batch(
        field, launches, direction=directions, max_steps=budgets, record=True
    )
    paths = [[(x, y) for _t, x, y in sam] for sam in samples]
    seps = [
        Separatrix(*head, paths[k], _terminal_outcome(family, pos[k], t[k], status[k]))
        for k, head in enumerate(heads, start=n)
    ]
    return paths[:n], seps


# ----------------------------------------------------------------------
# symbolic invariance identities


def edge_invariance_check(family: FamilyDescriptor) -> EdgeInvarianceReport:
    """Exact polynomial identities for the invariant segments.

    Boundary edges (three identities, every family): x divides u,
    y divides v, and u+v vanishes on the hypotenuse y = 1-x.  The
    three mid-segment identities (v on y=1/2, u on x=1/2, normal
    component on x+y=1/2) hold for the families with all-equal or
    paired summand dimensions and are only asserted there.  Each is
    the restriction of u, v or u+v to its line vanishing identically;
    restriction is linear, so u+v vanishes where u restricts to -v.
    """
    field = field_for(family)
    u, v = field.u.in_y(), field.v.in_y()
    half = Fraction(1, 2)

    def sum_vanishes(point, direction):
        return restrict_to_line(u, point, direction) == sub([], restrict_to_line(v, point, direction))

    identities = [
        ("x_divides_u", not restrict_to_line(u, (0, 0), (0, 1))),
        ("y_divides_v", not restrict_to_line(v, (0, 0), (1, 0))),
        ("u_plus_v_on_hypotenuse", sum_vanishes((1, 0), (-1, 1))),
    ]
    if family.is_type_two:
        identities += [
            ("v_on_segment_KL", not restrict_to_line(v, (0, half), (1, 0))),
            ("u_on_segment_LM", not restrict_to_line(u, (half, 0), (0, 1))),
            ("normal_on_segment_MK", sum_vanishes((half, 0), (-1, 1))),
        ]
    return EdgeInvarianceReport(family=family, identities=identities)


def random_interior_points(n: int, rng) -> list:
    """n points uniform on the open simplex, INTERIOR_MARGIN away from the edges."""
    pts = []
    while len(pts) < n:
        x = rng.uniform(INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN)
        y = rng.uniform(INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN)
        if x + y < 1.0 - INTERIOR_MARGIN:
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


def monotonicity_check(family: FamilyDescriptor, n_orbits: int, seed: int = 0) -> MonotonicityReport:
    """Gradient-like behavior along random interior orbits.

    The Lyapunov value must not increase between accepted steps by more
    than LYAPUNOV_STEP_TOL, and after one unit of time no orbit may
    return within REVISIT_TOL of a point it already visited at least one
    time unit earlier (no periodic orbits).
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
        lv = lyapunov_planar(family, xy[:, 0], xy[:, 1])
        finite = np.isfinite(lv)
        dl = np.diff(lv[finite])
        worst = dl.max() if dl.size else 0.0
        if worst > LYAPUNOV_STEP_TOL:
            report.violations.append(
                (g, "lyapunov_increase", float(worst), tuple(pts[g]))
            )
        revisit = _first_revisit(tv, xy, REVISIT_TOL)
        if revisit is not None:
            report.violations.append((g, "revisit", revisit, tuple(pts[g])))
    return report
