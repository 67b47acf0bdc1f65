"""Orbit integration, limits, basins, sink traps, separatrices, and invariance reports."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagricci import (
    basin_map,
    dynamics,
    edge_invariance_check,
    family_from_id,
    integrate_orbit,
    limit_of_orbit,
    list_families,
    monotonicity_check,
    projected_field,
    random_interior_points,
    separatrices,
)
from flagricci.polyalg import restrict_to_line, taylor_shift
from polyoracle import QPoly, as_poly

SU211 = family_from_id("su", (2, 1, 1))
SU111 = family_from_id("su", (1, 1, 1))
SO6 = family_from_id("so", (6,))
G2 = family_from_id("g2u2")


def all_test_families():
    fams = [
        SU211,
        SU111,
        family_from_id("su", (3, 2, 1)),
        family_from_id("so", (4,)),
        SO6,
        family_from_id("e6so8u1u1"),
    ]
    fams += [
        family_from_id(fid)
        for fid in (
            "e8e6su2u1",
            "e8su8u1",
            "e7su5su3u1",
            "e7su6su2u1",
            "e6su3su3su2u1",
            "f4su3su2u1",
            "g2u2",
        )
    ]
    return fams


# ----------------------------------------------------------------------
# orbits and limits


def test_direction_validation():
    field = projected_field(SU211)
    with pytest.raises(ValueError):
        integrate_orbit(field, (0.3, 0.3), direction="sideways")


TWO_STARTS = [(0.3, 0.3), (0.2, 0.25)]


@pytest.mark.parametrize(
    "starts, kwargs, match",
    [
        ([(float("nan"), 0.3)], {}, "finite"),
        ([(0.3, float("inf"))], {}, "finite"),
        ([(2.0, 2.0)], {}, "outside the closed simplex"),
        ([(-1e-6, 0.5)], {}, "outside the closed simplex"),
        ([(0.3, 0.3)], {"rtol": -1.0}, "rtol"),
        ([(0.3, 0.3)], {"rtol": float("nan")}, "rtol"),
        ([(0.3, 0.3)], {"atol": 0.0}, "atol"),
        ([(0.3, 0.3)], {"atol": 1e300}, "atol"),
        ([(0.3, 0.3)], {"rtol": 2 * dynamics.TOL_MAX}, "rtol"),
        ([(0.3, 0.3)], {"max_time": 0.0}, "max_time"),
        ([(0.3, 0.3)], {"max_steps": 0}, "max_steps"),
        ([(0.3, 0.3)], {"max_steps": 2.5}, "max_steps"),
        ([(0.3, 0.3)], {"direction": "sideways"}, "direction"),
        (TWO_STARTS, {"direction": ["forward", "sideways"]}, "direction"),
        (TWO_STARTS, {"direction": ["backward"]}, "direction has 1 entries"),
        (TWO_STARTS, {"max_steps": [10, 0]}, "max_steps"),
        (TWO_STARTS, {"max_steps": [-3, 10]}, "max_steps"),
        (TWO_STARTS, {"max_steps": [10, 10, 10]}, "max_steps has 3 entries"),
    ],
    ids=[
        "nan-x",
        "inf-y",
        "outside",
        "below-edge",
        "negative-rtol",
        "nan-rtol",
        "zero-atol",
        "huge-atol",
        "rtol-above-ceiling",
        "zero-max-time",
        "zero-max-steps",
        "float-max-steps",
        "sideways",
        "sideways-row",
        "short-direction-list",
        "zero-max-steps-row",
        "negative-max-steps-row",
        "long-max-steps-list",
    ],
)
def test_integration_rejects_bad_input(starts, kwargs, match):
    from flagricci import dynamics

    field = projected_field(SU211)
    with pytest.raises(ValueError, match=match):
        dynamics._integrate_batch(field, starts, **kwargs)
    if len(starts) == 1 and all(np.ndim(v) == 0 for v in kwargs.values()):
        with pytest.raises(ValueError, match=match):
            integrate_orbit(field, starts[0], **kwargs)


# (start, direction, budget) rows of one batch
MIXED_ROWS = [
    ((0.3, 0.25), "forward", 4000),
    ((0.1, 0.7), "backward", 200000),
    ((0.55, 0.05), "forward", 50),
    ((0.2, 0.2), "backward", 7),
    ((0.4, 0.3), "forward", 3),
    ((1 / 6 + 1e-2, 1 / 3 - 1e-2), "backward", 200000),
]


@pytest.mark.parametrize("family", [SU211, G2], ids=lambda f: f"{f.id}{f.params}")
def test_mixed_batch_rows_equal_their_orbits_alone(family):
    from flagricci import dynamics

    field = projected_field(family)
    starts, dirs, budgets = (list(c) for c in zip(*MIXED_ROWS))
    pos, t, status, steps, samples = dynamics._integrate_batch(
        field, starts, direction=dirs, max_steps=budgets, record=True
    )
    for k, (start, direction, budget) in enumerate(MIXED_ROWS):
        alone = integrate_orbit(field, start, direction=direction, max_steps=budget)
        assert [s[:3] for s in alone.samples] == samples[k]
        assert alone.terminal.position == tuple(pos[k].tolist())
        assert alone.terminal.time_elapsed == t[k]
        assert alone.terminal.reason == dynamics._REASONS[int(status[k])]
        assert len(alone.samples) - 1 == steps[k]


def test_row_out_of_budget_stops_while_others_run_on():
    from flagricci import dynamics

    field = projected_field(SU211)
    starts, dirs, budgets = (list(c) for c in zip(*MIXED_ROWS))
    _pos, _t, status, steps, _samples = dynamics._integrate_batch(
        field, starts, direction=dirs, max_steps=budgets
    )
    short = budgets.index(3)
    assert status[short] == dynamics.MAX_STEPS and steps[short] == 3
    others = [k for k, b in enumerate(budgets) if b > 50]
    assert all(steps[k] > 3 and status[k] != dynamics.MAX_STEPS for k in others)


def test_trial_step_guard_is_per_row(monkeypatch):
    from flagricci import dynamics

    field = projected_field(SU211)
    starts = [(0.3, 0.25)] * 2
    # tolerances no step can meet: every trial step is rejected and the
    # step shrinks until it underflows after some 16 trials
    strict = {"rtol": 1e-300, "atol": 1e-300}
    _pos, _t, status, steps, _ = dynamics._integrate_batch(field, starts, max_steps=[2, 5], **strict)
    assert status.tolist() == [dynamics.MAX_STEPS, dynamics.UNDERFLOW]
    assert steps.tolist() == [0, 0]
    rows = []
    step = dynamics._dp_step

    def counting(field, p, *args):
        rows.append(len(p))
        return step(field, p, *args)

    monkeypatch.setattr(dynamics, "_dp_step", counting)
    dynamics._integrate_batch(field, starts, max_steps=[2, 3], **strict)
    assert rows == [2] * 8 + [1] * 4


def test_stop_reason_precedence_names_max_time_first():
    """One accepted step of length max_time uses up the time, leaves no
    step above H_MIN and spends the one-step budget: the row ends
    MAX_TIME, which outranks UNDERFLOW and MAX_STEPS."""
    from flagricci import dynamics

    field = projected_field(SU211)
    _pos, t, status, steps, _ = dynamics._integrate_batch(field, [(0.3, 0.25)], max_time=1e-9, max_steps=1)
    assert status.tolist() == [dynamics.MAX_TIME] and dynamics.MAX_TIME == 3
    assert steps.tolist() == [1] and t.tolist() == [1e-9]


def test_budget_beyond_int64_runs_like_the_default():
    field = projected_field(SU211)
    assert integrate_orbit(field, (0.3, 0.25), max_steps=10**20) == integrate_orbit(field, (0.3, 0.25))


def test_integration_accepts_starts_on_the_closed_simplex():
    field = projected_field(SU211)
    for start in ((0.0, 0.5), (0.5, 0.5), (-1e-10, 0.5), (0.5, 0.5 + 1e-10)):
        assert integrate_orbit(field, start, max_steps=50).samples[0][1:3] == start


def test_batch_step_reuses_last_stage(monkeypatch):
    """First same as last: 1 + 6 field evaluations per stepper iteration."""
    from flagricci import dynamics
    from flagricci.flowgen import ProjectedField

    calls = {"rhs": 0, "step": 0}
    rhs, step = ProjectedField.rhs, dynamics._dp_step

    def counting_rhs(self, *args, **kwargs):
        calls["rhs"] += 1
        return rhs(self, *args, **kwargs)

    def counting_step(*args, **kwargs):
        calls["step"] += 1
        return step(*args, **kwargs)

    field = projected_field(G2)
    monkeypatch.setattr(ProjectedField, "rhs", counting_rhs)
    monkeypatch.setattr(dynamics, "_dp_step", counting_step)
    pts = random_interior_points(20, np.random.default_rng(2))
    dynamics._integrate_batch(field, pts, max_steps=300)
    assert calls["step"] > 0
    assert calls["rhs"] == 1 + 6 * calls["step"]


@pytest.mark.parametrize(
    "family, start, direction, label, target",
    [
        (SU211, (0.49, 0.49), "forward", "L", (0.5, 0.5)),
        (SU211, (0.05, 0.05), "backward", "O", (0.0, 0.0)),
        (SU211, (3 / 8 + 1e-3, 3 / 8), "backward", "N", (3 / 8, 3 / 8)),
        (G2, (1 / 6 + 1e-2, 1 / 3 - 1e-2), "forward", "N", (1 / 6, 1 / 3)),
    ],
)
def test_limit_matches_reference(family, start, direction, label, target):
    field = projected_field(family)
    out = limit_of_orbit(field, start, direction=direction)
    assert out.kind == "Equilibrium"
    assert out.label == label
    assert abs(out.position[0] - target[0]) < 1e-6
    assert abs(out.position[1] - target[1]) < 1e-6


def test_vertex_orbit_is_constant():
    field = projected_field(SU211)
    out = limit_of_orbit(field, (0.0, 0.0))
    assert out.kind == "Equilibrium"
    assert out.label == "O"
    assert out.distance < 1e-12


def test_interior_equilibrium_orbit_is_constant():
    field = projected_field(SU111)
    traj = integrate_orbit(field, (1 / 3, 1 / 3))
    assert traj.terminal.kind == "Equilibrium"
    assert traj.terminal.label == "N"
    for _t, x, y, _lv in traj.samples:
        assert abs(x - 1 / 3) < 1e-9
        assert abs(y - 1 / 3) < 1e-9


@pytest.mark.parametrize("start", [(0.49, 0.49), (0.2, 0.3)])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_limit_of_orbit_skips_lyapunov_and_equals_the_orbit_terminal(monkeypatch, start, direction):
    field = projected_field(SU211)
    expected = integrate_orbit(field, start, direction=direction).terminal
    calls = []
    monkeypatch.setattr(dynamics, "lyapunov_planar", lambda *a: calls.append(a))
    assert limit_of_orbit(field, start, direction=direction) == expected
    assert calls == []


def test_terminal_outcome_shape():
    field = projected_field(SU211)
    out = limit_of_orbit(field, (0.49, 0.49))
    assert (out.kind, out.label, out.reason) == ("Equilibrium", "L", "stalled")
    assert len(out.position) == 2 and out.distance <= dynamics.MATCH_TOL
    assert out.time_elapsed > 0


@pytest.mark.parametrize(
    "family, start",
    [
        (SU211, (0.49, 0.49)),
        (SU211, (0.2, 0.3)),
        (SO6, (0.2, 0.3)),
        (family_from_id("e7su5su3u1"), (0.25, 0.2)),
    ],
)
def test_forward_samples_stay_in_simplex_and_descend(family, start):
    field = projected_field(family)
    traj = integrate_orbit(field, start)
    arr = np.array(traj.samples)
    t, x, y, lv = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    assert np.all(np.diff(t) >= 0)
    assert np.all(x >= -1e-9)
    assert np.all(y >= -1e-9)
    assert np.all(x + y <= 1 + 1e-9)
    finite = lv[np.isfinite(lv)]
    assert np.all(np.diff(finite) <= 1e-10)
    assert finite[-1] < finite[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from([SU211, SO6, G2, family_from_id("e7su5su3u1")]),
    x=st.floats(0.0, 1.0),
    share=st.floats(0.0, 1.0),
    rtol=st.floats(1e-12, dynamics.TOL_MAX),
    atol=st.floats(1e-14, dynamics.TOL_MAX),
    direction=st.sampled_from(["forward", "backward"]),
)
def test_samples_stay_in_the_closed_simplex_at_any_allowed_tolerance(family, x, share, rtol, atol, direction):
    # y = share (1 - x) puts every start, edges and corners included, in
    # the simplex; the stepper's own samples, without Lyapunov values
    pos, t, status, _steps, samples = dynamics._integrate_batch(
        dynamics.field_for(family), [(x, share * (1.0 - x))], direction=direction, rtol=rtol, atol=atol,
        max_steps=400, record=True,
    )
    reason = dynamics._terminal_outcome(family, pos[0], t[0], status[0]).reason
    assert reason != "boundary" and reason in dynamics._REASONS.values()
    assert not dynamics._outside_simplex(np.array(samples[0])[:, 1:3]).any()


def test_backward_samples_ascend():
    field = projected_field(SU211)
    traj = integrate_orbit(field, (0.05, 0.05), direction="backward")
    lv = np.array([s[3] for s in traj.samples])
    finite = lv[np.isfinite(lv)]
    assert np.all(np.diff(finite) >= -1e-10)
    assert finite[-1] > finite[0]


def test_exhausted_budget_is_undetermined():
    field = projected_field(SU211)
    traj = integrate_orbit(field, (0.3, 0.25), max_steps=3)
    assert traj.terminal.kind == "Undetermined"
    assert traj.terminal.label is None
    assert traj.terminal.reason == "max_steps"


def test_orbit_creeping_into_stiff_corner_stalls():
    # the backward orbit creeps into the corner Q = (1, 0), where the
    # controller holds the step below the step size a stall used to need
    field = projected_field(family_from_id("e8e6su2u1"))
    traj = integrate_orbit(field, (0.33, 0.33), direction="backward")
    assert traj.terminal.kind == "Equilibrium"
    assert traj.terminal.label == "Q"
    assert traj.terminal.reason == "stalled"
    assert len(traj.samples) < 1000


def test_step_cut_by_max_time_is_no_stall():
    field = projected_field(SU211)
    traj = integrate_orbit(field, (0.3, 0.25), max_time=1e-10)
    assert traj.terminal.reason == "max_time"
    assert len(traj.samples) == 2


def test_reversibility():
    field = projected_field(SU211)
    start = (0.3, 0.25)
    fwd = integrate_orbit(field, start, max_time=5.0)
    assert fwd.terminal.reason == "max_time"
    back = integrate_orbit(field, fwd.terminal.position, direction="backward", max_time=5.0)
    assert abs(back.terminal.position[0] - start[0]) < 1e-6
    assert abs(back.terminal.position[1] - start[1]) < 1e-6


# ----------------------------------------------------------------------
# the diagonal x = y


@pytest.mark.parametrize(
    "family",
    [
        family_from_id("su", (2, 2, 2)),
        family_from_id("su", (3, 3, 3)),
        SO6,
        family_from_id("e6so8u1u1"),
    ],
)
def test_diagonal_orbit_stays_on_diagonal(family):
    field = projected_field(family)
    traj = integrate_orbit(field, (0.4, 0.4))
    dev = max(abs(s[1] - s[2]) for s in traj.samples)
    assert dev < 1e-9
    assert traj.terminal.label == "L"


def _diagonal_residuals(field):
    """u(x,x) - v(x,x) at seven rational points, enough for degree 5."""
    points = [(Fraction(k, 11), Fraction(k, 11)) for k in range(1, 8)]
    return [field.u.eval(p) - field.v.eval(p) for p in points]


@pytest.mark.parametrize(
    "family",
    [
        SU111,
        SU211,
        family_from_id("su", (2, 2, 2)),
        family_from_id("so", (4,)),
        SO6,
        family_from_id("e6so8u1u1"),
    ],
)
def test_diagonal_identity_holds_for_equal_first_two_dimensions(family):
    assert family.dims[0] == family.dims[1]
    assert all(r == 0 for r in _diagonal_residuals(projected_field(family)))


@pytest.mark.parametrize(
    "family",
    [
        family_from_id("su", (3, 2, 1)),
        family_from_id("su", (2, 2, 1)),
        family_from_id("e7su5su3u1"),
    ],
)
def test_diagonal_identity_fails_otherwise(family):
    assert family.dims[0] != family.dims[1]
    assert any(r != 0 for r in _diagonal_residuals(projected_field(family)))


# ----------------------------------------------------------------------
# symbolic edge invariance


@pytest.mark.parametrize("family", all_test_families(), ids=lambda f: f.id + str(f.params))
def test_edge_invariance_all_families(family):
    report = edge_invariance_check(family)
    assert report.passed
    assert len(report.identities) == (6 if family.is_type_two else 3)


def test_edge_invariance_identity_names():
    names = [name for name, _ in edge_invariance_check(SU211).identities]
    assert names == [
        "x_divides_u",
        "y_divides_v",
        "u_plus_v_on_hypotenuse",
        "v_on_segment_KL",
        "u_on_segment_LM",
        "normal_on_segment_MK",
    ]
    names = [name for name, _ in edge_invariance_check(G2).identities]
    assert names == ["x_divides_u", "y_divides_v", "u_plus_v_on_hypotenuse"]


# the mid-segment lines of edge_invariance_check: the polynomial restricted
# (u, v or u + v), a point and a direction
MID_SEGMENTS = {
    "v_on_segment_KL": ("v", (0, Fraction(1, 2)), (1, 0)),
    "u_on_segment_LM": ("u", (Fraction(1, 2), 0), (0, 1)),
    "normal_on_segment_MK": ("u+v", (Fraction(1, 2), 0), (-1, 1)),
}


@pytest.mark.parametrize("family", all_test_families(), ids=lambda f: f.id + str(f.params))
def test_mid_segment_lines_are_invariant_exactly_for_type_two(family):
    """The mid-segment lines are invariant for every Type II family and no Type I one."""
    field = projected_field(family)
    polys = {"u": field.u, "v": field.v, "u+v": as_poly(QPoly(field.u.terms, 2) + field.v)}
    for name, (which, point, direction) in MID_SEGMENTS.items():
        assert bool(restrict_to_line(polys[which].in_y(), point, direction)) != family.is_type_two, name


# ----------------------------------------------------------------------
# monotonicity and random starts


@pytest.mark.parametrize("family", [SU211, G2], ids=lambda f: f.id)
def test_monotonicity_passes(family):
    report = monotonicity_check(family, 25)
    assert report.passed
    assert report.n_orbits == 25
    assert report.violations == []


def test_lyapunov_is_evaluated_once_per_orbit(monkeypatch):
    real = dynamics.lyapunov_planar
    calls = []

    def counting(family, x, y):
        calls.append(np.shape(x))
        return real(family, x, y)

    monkeypatch.setattr(dynamics, "lyapunov_planar", counting)
    traj = integrate_orbit(projected_field(SU211), (0.2, 0.3))
    assert calls == [(len(traj.samples),)]
    calls.clear()
    assert monotonicity_check(SU211, 5).passed
    assert len(calls) == 5 and all(len(shape) == 1 and shape[0] > 1 for shape in calls)


def test_monotonicity_rejects_empty_sample():
    with pytest.raises(ValueError):
        monotonicity_check(SU211, 0)


def _full_matrix_revisit(tv, xy, revisit_tol):
    """The revisit scan over the whole (n, n) distance matrix, as reference."""
    dt = tv[None, :] - tv[:, None]
    dist = np.abs(xy[None, :, :] - xy[:, None, :]).max(axis=2)
    close = (dist < revisit_tol) & (dt >= 1.0)
    for i, j in np.argwhere(close):
        if dist[i, i : j + 1].max() > 1e-4:
            return float(dist[i, j])
    return None


@pytest.mark.parametrize("family", [SU211, G2], ids=lambda f: f.id)
@pytest.mark.parametrize("block", [1 << 18, 7, 1])
def test_blocked_revisit_scan_matches_full_matrix(family, block, monkeypatch):
    from flagricci import dynamics

    monkeypatch.setattr(dynamics, "_REVISIT_BLOCK", block)
    pts = random_interior_points(4, np.random.default_rng(5))
    *_, samples = dynamics._integrate_batch(projected_field(family), pts, record=True, max_steps=400)
    found = 0
    for sam in samples:
        arr = np.array(sam)
        tv, xy = arr[:, 0], arr[:, 1:3]
        for tol in (1e-8, 1e-3, 3e-2):
            want = _full_matrix_revisit(tv, xy, tol)
            assert dynamics._first_revisit(tv, xy, tol) == want
            found += want is not None
    assert found > 0  # the looser tolerances do find revisits


@pytest.mark.parametrize("block", [1 << 18, 50, 1])
def test_revisit_scan_finds_periodic_orbit(block, monkeypatch):
    from flagricci import dynamics

    monkeypatch.setattr(dynamics, "_REVISIT_BLOCK", block)
    tv = np.arange(301) / 100.0  # three periods, t = 1.0 sampled exactly
    angle = 2.0 * np.pi * tv
    xy = np.stack([0.3 + 0.1 * np.cos(angle), 0.3 + 0.1 * np.sin(angle)], axis=-1)
    want = _full_matrix_revisit(tv, xy, 1e-8)
    assert want is not None and want < 1e-8
    assert dynamics._first_revisit(tv, xy, 1e-8) == want
    # a point resting on an equilibrium makes no excursion and is exempt
    rest = np.full_like(xy, 0.25)
    assert dynamics._first_revisit(tv, rest, 1e-8) is None


def test_random_interior_points_margin_and_determinism():
    pts = random_interior_points(50, np.random.default_rng(7))
    assert len(pts) == 50
    for x, y in pts:
        assert x >= 1e-2 and y >= 1e-2
        assert x + y < 1 - 1e-2
    again = random_interior_points(50, np.random.default_rng(7))
    assert pts == again


# ----------------------------------------------------------------------
# basins


def test_basin_resolution_validation():
    with pytest.raises(ValueError, match="resolution"):
        basin_map(SU211, 15)
    with pytest.raises(ValueError, match="resolution"):
        basin_map(SU211, 4096)


@pytest.mark.parametrize("resolution, margin", [(16, 1e-3), (37, 0.05), (64, 1 / 64), (16, 0.0), (37, 0.3)])
def test_basin_cells_follow_the_margin_rule(resolution, margin):
    grid = basin_map(SU211, resolution, margin=margin)
    centers = [(i + 0.5) / resolution for i in range(resolution)]
    assert grid.xs == centers and grid.ys == centers
    for iy, y in enumerate(centers):
        for ix, x in enumerate(centers):
            inside = x > margin and y > margin and x + y < 1.0 - margin
            assert (grid.labels[iy][ix] is not None) == inside


def test_basin_su211_labels():
    grid = basin_map(SU211, 24)
    assert grid.resolution == 24
    assert len(grid.labels) == 24 and all(len(row) == 24 for row in grid.labels)
    counts = grid.label_counts()
    assert set(counts) == {"K", "L", "M"}
    assert set(grid.attractor_labels) == {"K", "L", "M"}
    assert grid.undetermined_fraction == 0.0
    # the corner cell beyond the hypotenuse carries no label
    assert grid.labels[23][23] is None
    assert grid.labels[0][0] is not None


def test_basin_g2_labels():
    grid = basin_map(G2, 24)
    counts = grid.label_counts()
    assert set(counts) <= {"L", "M", "N", "Undetermined"}
    assert counts.get("N", 0) > 0
    assert grid.undetermined_fraction < 0.05


def test_basin_coarse_agrees_with_fine():
    coarse = basin_map(SU111, 16)
    fine = basin_map(SU111, 64)
    guard = [(p[0], p[1]) for s in separatrices(SU111) for p in s.points]
    gx = np.array([p[0] for p in guard])
    gy = np.array([p[1] for p in guard])
    compared = 0
    for iy in range(16):
        for ix in range(16):
            lab = coarse.labels[iy][ix]
            if lab is None:
                continue
            x, y = coarse.xs[ix], coarse.ys[iy]
            # the coarse center and the matching fine center differ by half
            # a fine cell, so skip cells that close to a separatrix, where
            # the two sample points may fall on opposite sides
            d = np.maximum(np.abs(gx - x), np.abs(gy - y))
            if d.size and d.min() < 1 / 64:
                continue
            jx, jy = int(x * 64), int(y * 64)
            assert fine.labels[jy][jx] == lab
            compared += 1
    assert compared >= 85


# ----------------------------------------------------------------------
# certified sink traps

TABLE_FAMILIES = [SU211, SU111, SO6] + [
    family_from_id(fid)
    for fid in (
        "e6so8u1u1", "e8e6su2u1", "e8su8u1", "e7su5su3u1", "e7su6su2u1", "e6su3su3su2u1", "f4su3su2u1", "g2u2",
    )
]


def _v(trap, w) -> Fraction:
    pxx, pxy, pyy = trap.p
    return pxx * w[0] ** 2 + 2 * pxy * w[0] * w[1] + pyy * w[1] ** 2


def _v_dot(field, trap, w) -> Fraction:
    """dV/dt = 2 wᵀP f(center + w), the field evaluated exactly."""
    pxx, pxy, pyy = trap.p
    point = (trap.center[0] + w[0], trap.center[1] + w[1])
    fu, fv = (q.eval(point) for q in (field.u, field.v))
    return 2 * ((pxx * w[0] + pxy * w[1]) * fu + (pxy * w[0] + pyy * w[1]) * fv)


def _unit_directions(n: int) -> list:
    """4n rational unit vectors around the circle, ((1 - s^2), 2s) / (1 + s^2) and their negatives."""
    half = [((1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)) for s in (Fraction(k, n) for k in range(-n, n))]
    return half + [(-x, -y) for x, y in half]


def _sqrt_below(q: Fraction) -> Fraction:
    return Fraction(math.isqrt(q.numerator * q.denominator << 100), q.denominator << 50)


@pytest.mark.parametrize("family", TABLE_FAMILIES, ids=lambda f: f.id + str(f.params))
def test_every_table_attractor_has_a_trap_solving_the_lyapunov_equation(family):
    field = dynamics.field_for(family)
    eqs = dynamics.equilibria_for(family)
    traps = dynamics.traps_for(family)
    assert sorted(t.index for t in traps) == [j for j, eq in enumerate(eqs) if eq.stability == "attractor"]
    assert len(traps) == 3
    for trap in traps:
        assert trap.center == eqs[trap.index].exact
        a, b, c, d = (q.eval(trap.center) for q in (field.du_dx, field.du_dy, field.dv_dx, field.dv_dy))
        pxx, pxy, pyy = trap.p
        # AᵀP + PA = -I
        assert 2 * (a * pxx + c * pxy) == -1 and 2 * (b * pxy + d * pyy) == -1
        assert b * pxx + (a + d) * pxy + c * pyy == 0
        # V >= (level / r^2) |w|^2: P - (level / r^2) I is positive semidefinite
        m = trap.level / trap.radius**2
        assert m > 0 and pxx >= m and (pxx - m) * (pyy - m) >= pxy**2
        assert 0 < trap.floats[-1] < trap.level


@pytest.mark.parametrize("family", TABLE_FAMILIES, ids=lambda f: f.id + str(f.params))
def test_trap_certificate_holds_exactly_on_its_boundary_and_inside(family):
    """dV/dt < 0, in Fractions, at rational points of each trap's boundary and of its inside."""
    field = dynamics.field_for(family)
    rng = random.Random(f"{family.id}{family.params}")
    for trap in dynamics.traps_for(family):
        points = []
        for d in _unit_directions(64):
            # the boundary point along d, moved inward by a rounding the next line bounds
            t = _sqrt_below(trap.level / _v(trap, d))
            points.append((t * d[0], t * d[1]))
            assert trap.level * (1 - Fraction(1, 1 << 40)) < _v(trap, points[-1]) <= trap.level
        inside = 0
        while inside < 24:
            w = tuple(trap.radius * Fraction(rng.randrange(-(1 << 20), 1 << 20), 1 << 20) for _ in range(2))
            if any(w) and _v(trap, w) < trap.level:
                points.append(w)
                inside += 1
        for w in points:
            assert _v_dot(field, trap, w) < 0, (family.id, trap.center, w)


def _sectors_of(field, trap):
    """The parts of dV/dt and the sector bounds that the trap's certificate uses."""
    su, sv = (taylor_shift(q, trap.center) for q in (field.u, field.v))
    parts = dynamics._dv_dt_parts(su, sv, trap.p)
    pxx, pxy, pyy = trap.p
    lam_min = (pxx * pyy - pxy**2) / ((pxx + pyy) / 2 + dynamics._sqrt_above(((pxx - pyy) / 2) ** 2 + pxy**2))
    return parts, dynamics._trap_sectors(parts, trap.p, lam_min)


@pytest.mark.parametrize("family", TABLE_FAMILIES, ids=lambda f: f.id + str(f.params))
def test_sector_bounds_hold_inside_each_sector(family):
    """Each sector's signed bound on W_g = the degree-g part of dV/dt, and
    its bound on dᵀPd, hold exactly at rational unit directions strictly
    inside the sector."""
    field = dynamics.field_for(family)
    n, one = dynamics.TRAP_N, 1 << dynamics._TRAP_SCALE
    rng = random.Random(f"{family.id}{family.params}")
    for trap in dynamics.traps_for(family):
        parts, (q, m) = _sectors_of(field, trap)
        # AᵀP + PA = -I makes the quadratic part of dV/dt exactly -|w|^2
        assert {e: c for e, c in parts[2].items() if c} == {(2, 0): -1, (0, 2): -1}
        assert len(q) == max(parts) - 1 and (q[0] == -one).all() and len(m) == 4 * n
        # the bounds are not clipped at 0: some sector bounds an odd part below 0
        assert (q[1] < 0).any()
        for sector in range(4 * n):
            sign, k = 1 if sector < 2 * n else -1, sector % (2 * n) - n
            for s in (Fraction(2 * k + 1, 2 * n), Fraction(k, n) + Fraction(rng.randrange(1, 1 << 16), n << 16)):
                # d = (x, y) / r, a unit vector in the sector
                a, b = s.numerator, s.denominator
                x, y, r = sign * (b * b - a * a), sign * 2 * a * b, a * a + b * b
                for g in range(3, len(q) + 1):
                    w_g = sum(c * x**i * y**j for (i, j), c in parts.get(g, {}).items())
                    assert w_g * one <= q[g - 2][sector] * r**g, (family.id, trap.index, sector, g)
                assert _v(trap, (x, y)) * one >= m[sector] * r * r, (family.id, trap.index, sector)
        assert dynamics._certifies((q, m), trap.level)


def test_bernstein_check_rejects_a_bump_between_negative_ends():
    """q(ρ) = -1 + 6ρ - 6ρ^2 is -1 at 0 and at 1 but 1/2 at ρ = 1/2: the check
    rejects [0, 1] and the level 1 that needs it, and accepts [0, 1/10]."""
    one = 1 << dynamics._TRAP_SCALE
    q = np.array([[-1], [6], [-6]], dtype=object)
    assert not dynamics._negative_on(q, 1, 1)[0] and dynamics._negative_on(q, 1, 10)[0]
    # one sector with dᵀPd >= 1, so V < level gives ρ < sqrt(level)
    sectors = q * one, np.array([one], dtype=object)
    assert not dynamics._certifies(sectors, Fraction(1))
    assert dynamics._certifies(sectors, Fraction(1, 100))
    # in floats, as the level search runs it
    assert dynamics._negative_on(q.astype(float), np.array([0.1, 0.3, 1.0]), 1.0).tolist() == [True, False, False]


def test_level_check_rejects_a_level_where_dv_dt_is_not_negative():
    """A rational point of g2u2 near M where dV/dt >= 0 lies below the level
    9e-5, just above the largest level at which dV/dt stayed negative on
    4000 sampled rays (8.98e-5); the exact check rejects that level and
    accepts the trap's, which is more than half of it."""
    field = dynamics.field_for(G2)
    eqs = dynamics.equilibria_for(G2)
    (trap,) = [t for t in dynamics.traps_for(G2) if eqs[t.index].name == "M"]
    w, level = (Fraction(27, 2500), Fraction(147, 2000)), Fraction(9, 10**5)
    assert _v(trap, w) < level and _v_dot(field, trap, w) >= 0
    _parts, sectors = _sectors_of(field, trap)
    assert not dynamics._certifies(sectors, level)
    assert dynamics._certifies(sectors, trap.level) and 2 * trap.level > level


def _radius_bound_level(field, trap) -> Fraction:
    """The level of the C_k radius bound, the reference the sector certificate replaced.

    C_k is the sum of the absolute coefficients of degree k of both shifted
    components, r the largest multiple of 2^-32 in (0, 1] with
    2 λmax sum_k C_k r^(k-1) < 1, and the level λmin r^2 (rational bounds).
    """
    su, sv = (taylor_shift(q, trap.center) for q in (field.u, field.v))
    bound: dict = {}
    for s in (su, sv):
        for (i, j), coeff in s.items():
            if i + j >= 2:
                bound[i + j] = bound.get(i + j, 0) + abs(coeff)
    pxx, pxy, pyy = trap.p
    lam_max = (pxx + pyy) / 2 + dynamics._sqrt_above(((pxx - pyy) / 2) ** 2 + pxy**2)
    lo, hi = 0, 1 << 32
    while hi - lo > 1:
        mid = (lo + hi) // 2
        r = Fraction(mid, 1 << 32)
        lo, hi = (mid, hi) if 2 * lam_max * sum(c * r ** (k - 1) for k, c in bound.items()) < 1 else (lo, mid)
    return (pxx * pyy - pxy**2) / lam_max * Fraction(lo, 1 << 32) ** 2


@pytest.mark.parametrize("family", TABLE_FAMILIES, ids=lambda f: f.id + str(f.params))
def test_sector_levels_are_at_least_four_times_the_radius_bound(family):
    field = dynamics.field_for(family)
    for trap in dynamics.traps_for(family):
        assert trap.level >= 4 * _radius_bound_level(field, trap), (family.id, trap.index)


def _clipped_sector_level(field, trap) -> float:
    """The level of the first sector certificate, the reference the signed one replaced.

    On each of the 4n sectors, n = 64, W_g is bounded by its larger end
    value plus g sum|coeffs of W_g| / n, clipped at 0, and dᵀPd below by
    its smaller end value minus (|pxx - pyy| + 2|pxy|) / n, but not below
    λmin.  With bounds U_g >= 0, -1 + sum_g U_g ρ^(g-2) is nondecreasing;
    its root ρ (at most 2) gives the sector level m ρ^2, and the level is
    the least, backed off by 2^-20.  Floats throughout.
    """
    n = 64
    su, sv = (taylor_shift(q, trap.center) for q in (field.u, field.v))
    parts = dynamics._dv_dt_parts(su, sv, trap.p)
    pxx, pxy, pyy = (float(c) for c in trap.p)
    s = np.arange(-n, n + 1) / n
    x, y = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
    pd = pxx * x * x + 2 * pxy * x * y + pyy * y * y
    lam_min = (pxx + pyy) / 2 - math.hypot((pxx - pyy) / 2, pxy)
    m = np.maximum(np.minimum(pd[:-1], pd[1:]) - (abs(pxx - pyy) + 2 * abs(pxy)) / n, lam_min)
    columns = []
    for g, part in parts.items():
        if g >= 3:
            w = sum(float(c) * x**i * y**j for (i, j), c in part.items())
            back = np.maximum(w[:-1], w[1:]) if g % 2 == 0 else -np.minimum(w[:-1], w[1:])
            slope = g * sum(abs(float(c)) for c in part.values()) / n
            columns.append((g - 2, np.maximum(np.concatenate([np.maximum(w[:-1], w[1:]), back]) + slope, 0)))
    lo, hi = np.zeros(4 * n), np.full(4 * n, 2.0)
    for _ in range(40):
        mid = (lo + hi) / 2
        below = sum(u * mid**e for e, u in columns) < 1
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return float((np.concatenate([m, m]) * lo * lo).min()) * (1 - 2.0**-20)


@pytest.mark.parametrize("family", TABLE_FAMILIES, ids=lambda f: f.id + str(f.params))
def test_signed_sector_levels_are_at_least_the_clipped_ones(family):
    """Every trap's level is at least that of the clipped first-order
    certificate, and g2u2's L, where the clip bound most, is 4 times it."""
    field = dynamics.field_for(family)
    eqs = dynamics.equilibria_for(family)
    for trap in dynamics.traps_for(family):
        factor = 4 if family == G2 and eqs[trap.index].name == "L" else 1
        assert trap.level >= factor * _clipped_sector_level(field, trap), (family.id, eqs[trap.index].name)


@pytest.mark.parametrize("family", [SU211, SO6, G2, family_from_id("e8su8u1"), family_from_id("e8e6su2u1")],
                         ids=lambda f: f.id)
def test_float_trap_test_admits_only_points_inside_the_trap(family):
    """Float points within 1e-12 of each trap boundary: every one that the
    float test admits has exact V < level, and both sides are sampled."""
    rng = np.random.default_rng(5)
    traps = dynamics.traps_for(family)
    for j, trap in enumerate(traps):
        cx, cy, pxx, pxy2, pyy, _ = trap.floats
        theta = rng.uniform(0, 2 * np.pi, 4000)
        d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        rho = np.sqrt(float(trap.level) / (pxx * d[:, 0] ** 2 + pxy2 * d[:, 0] * d[:, 1] + pyy * d[:, 1] ** 2))
        p = np.array([cx, cy]) + (rho + rng.uniform(-1e-12, 1e-12, 4000))[:, None] * d
        p = p[~dynamics._outside_simplex(p)]
        admitted = dynamics._trap_of([trap], p) == 0
        assert 0 < admitted.sum() < len(p)
        for x, y in p[admitted]:
            assert _v(trap, (Fraction(x) - trap.center[0], Fraction(y) - trap.center[1])) < trap.level


def test_start_inside_a_trap_takes_zero_steps(monkeypatch):
    from flagricci.flowgen import ProjectedField

    field = dynamics.field_for(G2)
    traps = dynamics.traps_for(G2)
    starts = []
    for trap in traps:
        cx, cy = (float(c) for c in trap.center)
        # a quarter radius from the attractor, toward the centroid of S
        dx, dy = 1 / 3 - cx, 1 / 3 - cy
        k = float(trap.radius) / 4 / math.hypot(dx, dy)
        starts.append((cx + k * dx, cy + k * dy))
    # no field evaluation at all for a batch of trapped starts
    evaluated = []
    rhs = ProjectedField.rhs
    monkeypatch.setattr(ProjectedField, "rhs", lambda self, pts: evaluated.append(len(pts)) or rhs(self, pts))
    _pos, _t, status, steps, _ = dynamics._integrate_batch(field, starts, traps=traps)
    monkeypatch.undo()
    assert sum(evaluated) == 0 and steps.tolist() == [0, 0, 0]
    starts.append((0.3, 0.3))
    pos, t, status, steps, _ = dynamics._integrate_batch(field, starts, traps=traps)
    assert status.tolist()[:3] == [dynamics.TRAPPED] * 3
    assert steps.tolist()[:3] == [0, 0, 0] and t.tolist()[:3] == [0.0, 0.0, 0.0]
    assert pos[:3].tolist() == [list(p) for p in starts[:3]]
    assert steps[3] > 0 and status[3] == dynamics.TRAPPED
    lim, _ = dynamics._limits(G2, pos, status, traps)
    assert lim.tolist() == [trap.index for trap in traps] + [lim[3]]
    assert dynamics._terminal_outcome(G2, pos[0], t[0], status[0]).reason == "trapped"


def test_a_row_that_stalls_inside_a_trap_ends_trapped(monkeypatch):
    """TRAPPED outranks STALLED: a start on the attractor (1/2, 1/2) stalls
    on its first trial step, and with the start check blind to it that
    step ends in a trap."""
    field = dynamics.field_for(G2)
    traps = dynamics.traps_for(G2)
    center = [(0.5, 0.5)]
    assert center[0] in [tuple(float(c) for c in trap.center) for trap in traps]
    _pos, _t, status, steps, _ = dynamics._integrate_batch(field, center)
    assert status.tolist() == [dynamics.STALLED] and steps.tolist() == [1]
    trap_of, checks = dynamics._trap_of, []

    def blind_at_start(traps, p):
        checks.append(len(p))
        return np.full(len(p), -1) if len(checks) == 1 else trap_of(traps, p)

    monkeypatch.setattr(dynamics, "_trap_of", blind_at_start)
    _pos, _t, status, steps, _ = dynamics._integrate_batch(field, center, traps=traps)
    assert checks == [1, 1]
    assert status.tolist() == [dynamics.TRAPPED] and steps.tolist() == [1]


@pytest.mark.parametrize("family", [SU211, G2], ids=lambda f: f.id)
def test_trapped_path_is_the_free_path_up_to_trap_entry(family):
    field = dynamics.field_for(family)
    starts = random_interior_points(6, np.random.default_rng(11))
    *_, free = dynamics._integrate_batch(field, starts, record=True)
    _pos, _t, status, steps, caught = dynamics._integrate_batch(
        field, starts, record=True, traps=dynamics.traps_for(family)
    )
    assert (status == dynamics.TRAPPED).all()
    for k in range(len(starts)):
        assert len(caught[k]) == steps[k] + 1 < len(free[k])
        assert caught[k] == free[k][: len(caught[k])]


@pytest.mark.parametrize(
    "family, resolution",
    [(SU211, 64), (SO6, 64), (G2, 64), (family_from_id("e8su8u1"), 64), (SU211, 128)],
    ids=lambda v: v.id if hasattr(v, "id") else str(v),
)
def test_basin_map_with_traps_equals_free_integration(family, resolution, monkeypatch):
    results = []
    integrate = dynamics._integrate_batch

    def keeping(*args, **kwargs):
        results.append(integrate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(dynamics, "_integrate_batch", keeping)
    grid = basin_map(family, resolution)
    monkeypatch.undo()
    # every cell of these families ends in a trap
    assert (results[0][2] == dynamics.TRAPPED).all()
    cells = [(x, y) for y, row in zip(grid.ys, grid.labels) for x, lab in zip(grid.xs, row) if lab is not None]
    pos, _t, status, _steps, _ = dynamics._integrate_batch(
        dynamics.field_for(family), cells, max_steps=dynamics.BASIN_MAX_STEPS
    )
    eqs = dynamics.equilibria_for(family)
    names = [eq.name if eq.stability == "attractor" else "Undetermined" for eq in eqs] + ["Undetermined"]
    free = [names[j] for j in dynamics._limits(family, pos, status)[0]]
    assert [lab for row in grid.labels for lab in row if lab is not None] == free


def test_g2u2_basin_cells_at_res_64_take_at_most_71000_steps(monkeypatch):
    """A deterministic work guard: the basin cells of g2u2 at res 64 take
    67,582 accepted row-steps with the signed sector traps (102,455 with
    the clipped ones), so a change that shrinks the traps fails here."""
    results = []
    integrate = dynamics._integrate_batch

    def keeping(*args, **kwargs):
        results.append(integrate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(dynamics, "_integrate_batch", keeping)
    basin_map(G2, 64)
    monkeypatch.undo()
    ((_pos, _t, status, steps, _),) = results
    assert (status == dynamics.TRAPPED).all() and steps.sum() <= 71000


# ----------------------------------------------------------------------
# separatrices


def test_separatrices_su211():
    seps = separatrices(SU211)
    assert len(seps) == 12
    per_saddle: dict = {}
    for s in seps:
        per_saddle.setdefault(s.saddle_label, []).append(s)
        assert s.limit.kind == "Equilibrium"
        assert len(s.points) >= 2
    assert set(per_saddle) == {"R", "S", "T"}
    assert all(len(v) == 4 for v in per_saddle.values())
    r_unstable = {s.limit.label for s in per_saddle["R"] if s.manifold == "unstable"}
    r_stable = {s.limit.label for s in per_saddle["R"] if s.manifold == "stable"}
    assert r_unstable == {"K", "M"}
    assert r_stable == {"N", "O"}


def test_separatrices_g2():
    seps = separatrices(G2)
    assert len(seps) == 8
    saddles = {s.saddle_label for s in seps}
    assert saddles == {"R", "S"}
    for s in seps:
        assert s.limit.kind == "Equilibrium"
        if s.manifold == "unstable":
            assert s.limit.label in {"L", "M", "N"}
        else:
            assert s.limit.label in {"O", "P", "Q"}


def test_separatrix_into_a_nonhyperbolic_corner_stalls_inside_the_simplex():
    # S's stable separatrix toward P = (0, 1) has trial steps that the
    # error test accepts but that land beyond an edge; they are rejected,
    # and it stalls at P
    (sep,) = [
        s for s in separatrices(family_from_id("e7su5su3u1"))
        if (s.saddle_label, s.manifold, s.sign) == ("S", "stable", -1)
    ]
    assert (sep.limit.kind, sep.limit.label, sep.limit.reason) == ("Equilibrium", "P", "stalled")
    assert len(sep.points) == 465
    assert not dynamics._outside_simplex(np.array(sep.points)).any()


def _separatrix_direction(s) -> str:
    return "forward" if s.manifold == "unstable" else "backward"


@pytest.mark.parametrize("family", [SU211, G2], ids=lambda f: f"{f.id}{f.params}")
def test_separatrix_integrated_once_with_its_own_limit(family, monkeypatch):
    from flagricci import dynamics

    batches = []
    integrate = dynamics._integrate_batch

    def counting(field, pts, *args, **kwargs):
        batches.append(list(pts))
        return integrate(field, pts, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_batch", counting)
    seps = separatrices(family)
    monkeypatch.undo()
    # one batch for both directions, holding every start once
    assert len(batches) == 1
    starts = [p for batch in batches for p in batch]
    assert sorted(starts) == sorted(s.points[0] for s in seps)
    # a second run from the same start reaches the very limit the record
    # carries, not another separatrix's
    field = projected_field(family)
    for s in seps:
        assert limit_of_orbit(field, s.points[0], direction=_separatrix_direction(s)) == s.limit


@pytest.mark.parametrize("family", [SU211, SO6, G2, family_from_id("e8su8u1")],
                         ids=lambda f: f"{f.id}{f.params}")
def test_batched_separatrix_equals_its_orbit_alone(family):
    field = projected_field(family)
    for s in separatrices(family):
        alone = integrate_orbit(field, s.points[0], direction=_separatrix_direction(s))
        assert [(x, y) for _t, x, y, _l in alone.samples] == s.points
        assert alone.terminal == s.limit


@pytest.mark.parametrize("family", [SU211, family_from_id("e8su8u1")], ids=lambda f: f.id)
def test_separatrix_eigenvalue_is_the_saddle_eigenvalue_over_the_field_scale(family):
    """The eigenvectors come from the Jacobian divided by field.scale (up to
    7.4e7 for e8su8u1), so each launch's eigenvalue is a real eigenvalue of
    the raw Jacobian at its saddle over the scale."""
    field = dynamics.field_for(family)
    saddles = {eq.name: eq for eq in dynamics.equilibria_for(family) if eq.stability == "saddle"}
    seps = separatrices(family)
    assert {s.saddle_label for s in seps} == set(saddles)
    for s in seps:
        eq = saddles[s.saddle_label]
        eigs = [e.real for e in eq.eigenvalues]
        assert min(abs(s.eigenvalue * field.scale - e) / abs(e) for e in eigs) < 1e-9
        assert (s.eigenvalue > 0) == (s.manifold == "unstable")


def test_scaled_jacobian_has_a_negative_determinant_at_every_saddle():
    """_eigenvectors_2x2 takes the square root of tr^2/4 - det of the scaled
    float Jacobian, which det < 0 keeps positive: every saddle of
    list_families(6, 12) (the 11 table families among them) gets two real
    eigenpairs, one per sign, with unit vectors."""
    saddles = 0
    for family in list_families(6, 12):
        field = dynamics.field_for(family)
        for eq in dynamics.equilibria_for(family):
            if eq.stability != "saddle":
                continue
            saddles += 1
            (a, b), (c, d) = field.jacobian(np.array([eq.position]))[0] / field.scale
            assert a * d - b * c < 0, (family.id, family.params, eq.name)
            pairs = dynamics._eigenvectors_2x2(field, eq.position)
            assert [lam > 0 for lam, _v in pairs] == [False, True]
            assert all(abs(math.hypot(*vec) - 1) < 1e-15 for _lam, vec in pairs)
    assert saddles == 212  # 3 per Type II family (56 su, 9 so, e6), 2 per Type I


def test_separatrix_tangent_to_invariant_segment():
    field = projected_field(SO6)
    jac = field.jacobian(np.array([(3 / 14, 0.5)]))[0] / field.scale
    eigvals, eigvecs = np.linalg.eig(jac)
    tangencies = [
        abs(eigvecs[1, i]) / np.hypot(eigvecs[0, i], eigvecs[1, i]) for i in range(2)
    ]
    assert min(tangencies) < 1e-12
    # the along-segment launches never leave y = 1/2
    for s in separatrices(SO6):
        if s.saddle_label == "S" and s.manifold == "unstable":
            assert max(abs(p[1] - 0.5) for p in s.points) < 1e-9
            assert s.limit.label in {"K", "L"}


def test_portrait_integrates_one_batch(monkeypatch):
    from flagricci import dynamics
    from flagricci.render import portrait_svg

    calls = []
    integrate = dynamics._integrate_batch

    def counting(field, pts, *args, **kwargs):
        calls.append(len(pts))
        return integrate(field, pts, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_integrate_batch", counting)
    svg = portrait_svg(G2, seed=3)
    # 12 sample orbits and the 8 separatrices of g2u2
    assert calls == [12 + 8]
    assert svg.count("<polyline") == 12 + 8


def test_phase_portrait_orbits_and_separatrices_equal_their_parts():
    from flagricci import dynamics

    field = projected_field(SO6)
    starts = random_interior_points(5, np.random.default_rng(4))
    orbits, seps = dynamics.phase_portrait(SO6, starts)
    for start, orbit in zip(starts, orbits):
        alone = integrate_orbit(field, start, max_steps=dynamics.PORTRAIT_MAX_STEPS)
        assert [(x, y) for _t, x, y, _l in alone.samples] == orbit
    assert seps == separatrices(SO6)
    assert dynamics.phase_portrait(SO6, []) == ([], seps)
