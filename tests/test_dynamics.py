"""Orbit integration, limits, basins, separatrices, and invariance reports."""

from fractions import Fraction

import numpy as np
import pytest

from flagricci import (
    basin_map,
    dynamics,
    edge_invariance_check,
    family_from_id,
    integrate_orbit,
    limit_of_orbit,
    monotonicity_check,
    projected_field,
    random_interior_points,
    separatrices,
)
from flagricci.polyalg import restrict_to_line

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
    d = out.as_dict()
    assert set(d) == {"kind", "label", "position", "distance", "time_elapsed", "reason"}
    assert d["reason"] == "stalled"
    assert d["time_elapsed"] > 0


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
    diff = field.u - field.v
    return [diff.eval((Fraction(k, 11), Fraction(k, 11))) for k in range(1, 8)]


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
    polys = {"u": field.u, "v": field.v, "u+v": field.u + field.v}
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
    pts = random_interior_points(50, np.random.default_rng(7), margin=1e-2)
    assert len(pts) == 50
    for x, y in pts:
        assert x >= 1e-2 and y >= 1e-2
        assert x + y < 1 - 1e-2
    again = random_interior_points(50, np.random.default_rng(7), margin=1e-2)
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


def test_separatrix_tangent_to_invariant_segment():
    field = projected_field(SO6)
    jac = field.jacobian(np.array([(3 / 14, 0.5)]), normalized=True)[0]
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
