"""Equilibrium search, classification, and catalog verification."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from flagricci.catalog import so_family, su_family, type1_family
from flagricci.equilibria import (
    DEDUPE_TOL,
    _greedy_dedupe,
    classify_equilibrium,
    find_equilibria,
    jacobian_eigen,
    order_key,
    radial_probe,
    verify_catalog,
)
from flagricci.flowgen import projected_field


def test_classify_equilibrium_branches():
    assert classify_equilibrium((1.0, 2.0)) == "repeller"
    assert classify_equilibrium((-1.0, -2.0)) == "attractor"
    assert classify_equilibrium((-1.0, 2.0)) == "saddle"
    assert classify_equilibrium((2.0, -1.0)) == "saddle"
    assert classify_equilibrium((0.0, 1.0)) == "nonhyperbolic"
    assert classify_equilibrium((1e-9, 1.0)) == "nonhyperbolic"
    assert classify_equilibrium((complex(-1, 2), complex(-1, -2))) == "attractor"
    assert classify_equilibrium((complex(1, 5), complex(1, -5))) == "repeller"


def test_jacobian_eigen_exact_double_root_at_K():
    """At K the linearization has an exact double eigenvalue -(m+n)/2.

    Evaluating at the exact rational position keeps the discriminant at
    exactly zero; any float perturbation would split the pair by the
    square root of the error and ruin relative comparisons.
    """
    field = projected_field(su_family(2, 1, 1))
    eigs = jacobian_eigen(field, (Fraction(0), Fraction(1, 2)))
    assert eigs == (Fraction(-3, 2), Fraction(-3, 2))


def test_jacobian_eigen_at_so_vertex():
    field = projected_field(so_family(6))
    eigs = jacobian_eigen(field, (Fraction(0), Fraction(1)))
    assert eigs == (6, 8)


def test_find_equilibria_su211_complete():
    field = projected_field(su_family(2, 1, 1))
    found = find_equilibria(field)
    assert len(found) == 10
    labels = sorted(e.matched_label for e in found)
    assert labels == ["K", "L", "M", "N", "O", "P", "Q", "R", "S", "T"]
    assert found.seeds_tried > 0
    assert found.seeds_converged > 0
    for e in found:
        assert e.residual < 1e-11
    by_label = {e.matched_label: e for e in found}
    assert by_label["K"].stability == "attractor"
    assert by_label["N"].stability == "repeller"
    assert by_label["R"].stability == "saddle"
    assert by_label["O"].boundary_flag
    assert not by_label["N"].boundary_flag


@pytest.mark.parametrize("fam", [su_family(1, 1, 1), type1_family("g2u2")],
                         ids=lambda f: f"{f.id}{f.params}")
def test_equilibrium_order_ignores_rounding_noise(fam):
    """Equilibria sharing a coordinate (R and T at x = 1/4, L, M and S at
    x = 1/2, O, K and P at x = 0) keep their order under 1e-15 noise."""
    found = find_equilibria(projected_field(fam))
    xs = sorted(e.position[0] for e in found)
    assert any(b - a < 1e-12 for a, b in zip(xs, xs[1:])), "no shared coordinate to test"
    labels = [e.matched_label for e in found]
    rng = random.Random(0)
    for _trial in range(50):
        noisy = [
            (tuple(c + rng.choice((-1e-15, 1e-15)) for c in e.position), e.matched_label)
            for e in found
        ]
        assert [lab for _p, lab in sorted(noisy, key=lambda t: order_key(t[0]))] == labels


def test_find_equilibria_type1_vertices_polished():
    """Corner roots are degenerate; the local polish must still land on
    them to full precision."""
    field = projected_field(type1_family("g2u2"))
    found = find_equilibria(field)
    assert len(found) == 8
    by_label = {e.matched_label: e for e in found}
    for label, exact in [("O", (0.0, 0.0)), ("P", (0.0, 1.0)), ("Q", (1.0, 0.0))]:
        ex, ey = exact
        fx, fy = by_label[label].position
        assert abs(fx - ex) < 1e-9
        assert abs(fy - ey) < 1e-9


def test_radial_probe_classifies_degenerate_points():
    g2 = projected_field(type1_family("g2u2"))
    assert radial_probe(g2, (0.0, 0.0)) == "repeller"
    assert radial_probe(g2, (0.5, 0.5)) == "attractor"
    su = projected_field(su_family(2, 1, 1))
    assert radial_probe(su, (0.0, 0.5)) == "attractor"
    # a saddle shows both signs, so the probe declines to answer
    assert radial_probe(su, (0.25, 0.25)) is None


@pytest.mark.parametrize("fam", [su_family(2, 1, 1), so_family(6), type1_family("g2u2"),
                                 type1_family("e8su8u1")],
                         ids=lambda f: f"{f.id}{f.params}")
def test_verify_catalog_passes(fam):
    report = verify_catalog(fam)
    assert report.passed, [c.label for c in report.checks if not c.passed]
    assert not report.extras
    expected_rows = 10 if fam.is_type_two else 8
    assert len(report.checks) == expected_rows


def test_verify_report_dict_shape():
    report = verify_catalog(su_family(1, 1, 1))
    doc = report.as_dict()
    assert doc["family"] == "su"
    assert doc["params"] == [1, 1, 1]
    assert doc["passed"] is True
    assert len(doc["checks"]) == 10
    row = doc["checks"][0]
    for key in ("label", "expected_position", "position_error", "position_tol",
                "expected_class", "found_class", "passed", "note"):
        assert key in row


def test_found_equilibrium_as_dict():
    field = projected_field(su_family(2, 1, 1))
    found = find_equilibria(field)
    doc = found[0].as_dict()
    assert set(doc) == {"position", "residual", "eigenvalues", "class",
                        "matched_label", "boundary"}
    assert isinstance(doc["eigenvalues"][0], list)
    assert len(doc["eigenvalues"][0]) == 2


def _sequential_greedy(points, tol):
    """Reject a point if an earlier accepted one is within tol (reference)."""
    kept = []
    for i, (x, y) in enumerate(points):
        if any(math.hypot(x - points[k][0], y - points[k][1]) <= tol for k in kept):
            continue
        kept.append(i)
    return kept


_unit = st.floats(0.0, 1.0)
_offset = st.floats(-2.0, 2.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    centers=st.lists(st.tuples(_unit, _unit), min_size=1, max_size=4),
    members=st.lists(st.tuples(st.integers(0, 3), _offset, _offset), min_size=1, max_size=40),
)
def test_vectorised_dedupe_matches_sequential_greedy(centers, members):
    """Clusters of points within a few DEDUPE_TOL, in arbitrary order."""
    pts = np.array(
        [
            (centers[k % len(centers)][0] + dx * DEDUPE_TOL, centers[k % len(centers)][1] + dy * DEDUPE_TOL)
            for k, dx, dy in members
        ]
    )
    # np.hypot and math.hypot may round a distance differently in the last
    # place, so distances within a few ulps of the tolerance are skipped
    d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
    assume(not np.any(np.abs(d - DEDUPE_TOL) <= 1e-12 * DEDUPE_TOL))
    assert _greedy_dedupe(pts) == _sequential_greedy(pts, DEDUPE_TOL)
