"""Orbit integration, limits, basins, separatrices, and invariance reports."""

from fractions import Fraction

import numpy as np
import pytest

from flagricci import (
    basin_map,
    edge_invariance_check,
    family_from_id,
    integrate_orbit,
    limit_of_orbit,
    monotonicity_check,
    projected_field,
    random_interior_points,
    separatrices,
)
from flagricci.polyalg import poly_eval

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


@pytest.mark.parametrize(
    "start, kwargs, match",
    [
        ((float("nan"), 0.3), {}, "finite"),
        ((0.3, float("inf")), {}, "finite"),
        ((2.0, 2.0), {}, "outside the closed simplex"),
        ((-1e-6, 0.5), {}, "outside the closed simplex"),
        ((0.3, 0.3), {"rtol": -1.0}, "rtol"),
        ((0.3, 0.3), {"rtol": float("nan")}, "rtol"),
        ((0.3, 0.3), {"atol": 0.0}, "atol"),
        ((0.3, 0.3), {"max_time": 0.0}, "max_time"),
        ((0.3, 0.3), {"max_steps": 0}, "max_steps"),
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
    ],
)
def test_integration_rejects_bad_input(start, kwargs, match):
    field = projected_field(SU211)
    with pytest.raises(ValueError, match=match):
        integrate_orbit(field, start, **kwargs)


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
    return [poly_eval(diff, (Fraction(k, 11), Fraction(k, 11))) for k in range(1, 8)]


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


# ----------------------------------------------------------------------
# monotonicity and random starts


@pytest.mark.parametrize("family", [SU211, G2], ids=lambda f: f.id)
def test_monotonicity_passes(family):
    report = monotonicity_check(family, 25)
    assert report.passed
    assert report.n_orbits == 25
    assert report.violations == []


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
    # one batch per direction, and every start runs in exactly one
    assert len(batches) <= 2
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
