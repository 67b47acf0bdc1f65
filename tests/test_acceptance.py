"""Acceptance gate: one timed criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines;
each criterion also fails its test on any violated bound, including the
runtime budget.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flagricci import (
    basin_map,
    classify_limit,
    edge_invariance_check,
    family_from_id,
    monotonicity_check,
    projected_field,
    random_interior_points,
    symmetric_pair_check,
)
from flagricci.catalog import (
    TYPE1_IDS,
    bracket_table,
    gh_catalog,
    reference_equilibria,
)
from flagricci.dynamics import field_for
from flagricci.equilibria import verify_catalog
from polyoracle import QPoly

X = QPoly.variable("x", 2)
Y = QPoly.variable("y", 2)
ONE = QPoly.constant(1, 2)


def C(c):
    return QPoly.constant(c, 2)


def table_families():
    """The eleven families whose theorem tables are reproduced."""
    fams = [
        family_from_id("su", (2, 1, 1)),
        family_from_id("su", (1, 1, 1)),
        family_from_id("so", (6,)),
        family_from_id("e6so8u1u1"),
    ]
    fams += [family_from_id(fid) for fid in TYPE1_IDS]
    return fams


def invariance_families():
    fams = table_families()
    fams += [
        family_from_id("su", (3, 2, 1)),
        family_from_id("su", (5, 3, 2)),
        family_from_id("so", (4,)),
        family_from_id("so", (9,)),
    ]
    return fams


def gh_families():
    fams = [
        family_from_id("su", (m, n, p))
        for m in range(1, 4)
        for n in range(1, m + 1)
        for p in range(1, n + 1)
    ]
    fams += [family_from_id("so", (ell,)) for ell in range(4, 8)]
    fams.append(family_from_id("e6so8u1u1"))
    fams += [family_from_id(fid) for fid in TYPE1_IDS]
    return fams


@contextmanager
def criterion(number, name, budget):
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - t0
        ok = not failed and elapsed < budget
        verdict = "PASS" if ok else "FAIL"
        print(
            f"ACCEPTANCE {number} {name}: {verdict} "
            f"({elapsed:.2f}s / budget {budget:.0f}s)"
        )
    if elapsed >= budget:
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
        )


def test_criterion_1_field_reproduction():
    with criterion(1, "symbolic field reproduction", 1.0):
        f = projected_field(family_from_id("su", (2, 1, 1)))
        u_ex = X * (
            X * X * (C(6) - C(32) * Y)
            + X * (C(-32) * Y * Y + C(50) * Y - C(9))
            + C(16) * Y * Y - C(17) * Y + C(3)
        )
        v_ex = -Y * (C(2) * Y - ONE) * (
            C(16) * X * X + X * (C(16) * Y - C(17)) - C(3) * Y + C(3)
        )
        assert f.u == u_ex and f.v == v_ex

        f = projected_field(family_from_id("so", (6,)))
        u_ex = -X * (C(2) * X - ONE) * (
            C(6) * (X * (C(8) * Y - ONE) + C(8) * Y * Y - C(7) * Y + ONE)
            - C(4) * Y * (C(2) * X + C(2) * Y - ONE)
        )
        v_ex = -Y * (C(2) * Y - ONE) * (
            C(6) * (C(8) * X * X + X * (C(8) * Y - C(7)) - Y + ONE)
            - C(4) * X * (C(2) * X + C(2) * Y - ONE)
        )
        assert f.u == u_ex and f.v == v_ex

        f = projected_field(family_from_id("e8su8u1"))
        u_ex = -X * (
            C(4) * X**3 * (C(55) * Y - C(12))
            + X * X * (C(210) * Y * Y - C(370) * Y + C(72))
            + X * (C(-100) * Y * Y + C(135) * Y - C(24))
            + C(10) * (Y * Y - ONE) * Y * Y
        )
        v_ex = -Y * (
            C(20) * X**3 * (C(11) * Y - C(5))
            + C(2) * X * X * (C(105) * Y * Y - C(178) * Y + C(59))
            - C(27) * X * (C(2) * Y * Y - C(3) * Y + ONE)
            + C(10) * (Y - ONE) * (Y - ONE) * Y * Y
        )
        ratios = set()
        for mine, printed in ((f.u, u_ex), (f.v, v_ex)):
            assert set(mine.terms) == set(printed.terms)
            for key, coeff in printed.terms.items():
                ratios.add(mine.terms[key] / coeff)
        assert len(ratios) == 1
        assert ratios.pop() > 0


def test_criterion_2_equilibrium_tables():
    with criterion(2, "equilibrium tables", 30.0):
        for fam in table_families():
            report = verify_catalog(fam)
            expected = len(reference_equilibria(fam))
            assert len(report.checks) == expected, fam.id
            assert report.passed, (fam.id, fam.params, report.as_dict())


def test_criterion_3_invariance_suite():
    with criterion(3, "segment invariance identities", 5.0):
        for fam in invariance_families():
            report = edge_invariance_check(fam)
            assert report.passed, (fam.id, fam.params)
            assert len(report.identities) == (6 if fam.is_type_two else 3)


def test_criterion_4_gradient_like_behavior():
    with criterion(4, "Lyapunov monotonicity, no periodic orbits", 60.0):
        for fam in table_families():
            report = monotonicity_check(fam, 100, seed=2024)
            assert report.passed, (fam.id, fam.params, report.violations)


def test_criterion_5_basin_structure():
    with criterion(5, "basin label sets at 64x64", 300.0):
        for fam in table_families():
            grid = basin_map(fam, 64)
            counts = grid.label_counts()
            found = set(counts) - {"Undetermined"}
            if fam.is_type_two:
                assert found == {"K", "L", "M"}, (fam.id, fam.params, counts)
            else:
                assert found <= {"L", "M", "N"}, (fam.id, counts)
                assert counts.get("N", 0) > 0, (fam.id, counts)
            assert grid.undetermined_fraction < 0.05, (fam.id, counts)


def test_criterion_6_gh_classification():
    with criterion(6, "collapse limit classification", 1.0):
        points = {
            frozenset({1}): (0.0, 0.37),
            frozenset({2}): (0.37, 0.0),
            frozenset({3}): (0.6, 0.4),
            frozenset({1, 2}): (0.0, 0.0),
            frozenset({1, 3}): (0.0, 1.0),
            frozenset({2, 3}): (1.0, 0.0),
        }
        cases = 0
        for fam in gh_families():
            catalog = gh_catalog(fam)
            for pattern, point in points.items():
                assert classify_limit(fam, point) == catalog[pattern], (
                    fam.id,
                    fam.params,
                    sorted(pattern),
                )
                cases += 1
        assert cases >= 84
        for fid in TYPE1_IDS:
            table = bracket_table(family_from_id(fid))
            assert symmetric_pair_check(table, frozenset({2})) is True
            assert symmetric_pair_check(table, frozenset({3})) is False


def test_criterion_7_jacobian_correctness():
    with criterion(7, "symbolic Jacobian vs finite differences", 5.0):
        h = 1e-6
        for fam in invariance_families():
            field = field_for(fam)
            rng = np.random.default_rng(99)
            pts = np.array(random_interior_points(50, rng))
            jac = field.jacobian(pts) / field.scale
            fd = np.empty_like(jac)
            for axis in (0, 1):
                step = np.zeros(2)
                step[axis] = h
                hi = field.rhs(pts + step) / field.scale
                lo = field.rhs(pts - step) / field.scale
                fd[:, :, axis] = (hi - lo) / (2 * h)
            scale = np.maximum(np.abs(jac).max(axis=(1, 2)), 1.0)
            err = np.abs(fd - jac).max(axis=(1, 2)) / scale
            assert err.max() < 1e-5, (fam.id, fam.params, float(err.max()))
