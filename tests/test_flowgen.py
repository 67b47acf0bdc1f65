"""Field derivation against the printed polynomial systems.

The projected field (u, v) of every family is pinned against the general
closed forms printed for each Type class, and the three fully expanded
example systems.  Since the derivation here starts from the Ricci
components and clears denominators independently, agreement is a real
cross-check, not a tautology.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from flagricci import dynamics
from flagricci.catalog import (
    DEGENERATE,
    TYPE1_IDS,
    e6_family,
    list_families,
    reference_equilibria,
    so_family,
    su_family,
    type1_family,
)
from flagricci.flowgen import (
    _BLOCK,
    BOUNDARY_EXIT_TOL,
    cleared_field,
    lyapunov_planar,
    lyapunov_value,
    outside_simplex,
    projected_field,
    ricci_components,
    scalar_curvature,
)
from flagricci.polyalg import Poly
from polyoracle import QPoly, as_poly

X = QPoly.variable("x", 2)
Y = QPoly.variable("y", 2)
ONE = QPoly.constant(1, 2)


def C(c):
    return QPoly.constant(c, 2)


# ----------------------------------------------------------------------
# printed general forms, entered from their factored shape


def su_printed(m, n, p):
    u = -X * (C(2) * X - ONE) * (
        C(m) * (C(4) * Y - ONE) * (X + Y - ONE)
        + C(n) * Y * (C(4) * X + C(4) * Y - C(3))
        + C(p) * (X * (C(4) * Y - ONE) + (ONE - C(2) * Y) * (ONE - C(2) * Y))
    )
    v = -Y * (C(2) * Y - ONE) * (
        C(m) * (C(4) * X - ONE) * (X + Y - ONE)
        + C(n) * (Y * (C(4) * X - ONE) + (ONE - C(2) * X) * (ONE - C(2) * X))
        + C(p) * X * (C(4) * X + C(4) * Y - C(3))
    )
    return u, v


def so_printed(ell):
    u = -X * (C(2) * X - ONE) * (
        C(ell) * (X * (C(8) * Y - ONE) + C(8) * Y * Y - C(7) * Y + ONE)
        - C(4) * Y * (C(2) * X + C(2) * Y - ONE)
    )
    v = -Y * (C(2) * Y - ONE) * (
        C(ell) * (C(8) * X * X + X * (C(8) * Y - C(7)) - Y + ONE)
        - C(4) * X * (C(2) * X + C(2) * Y - ONE)
    )
    return u, v


def type1_printed(d1, d2, d3):
    u = X * (
        C(-4 * d2 * d2 * d3) * (
            C(2) * X**3 * (Y - ONE) - (Y - ONE) * Y * Y
            + X * X * (C(3) - C(4) * Y + C(3) * Y * Y)
            + X * (-ONE + C(2) * Y - C(4) * Y * Y + Y**3)
        )
        - C(2 * d1 * d1) * (
            C(2 * d3) * (Y - ONE) * Y * (X * (Y - ONE) + Y * Y)
            + C(d2) * (
                (Y - ONE) * Y**3 + X**3 * (C(-4) + C(8) * Y)
                + C(2) * X * X * (C(3) - C(9) * Y + C(4) * Y * Y)
                + X * (C(-2) + C(8) * Y - C(6) * Y * Y + Y**3)
            )
        )
        + C(2 * d1 * d2) * (
            C(-2 * d2) * (
                (Y - ONE) * Y * Y + C(2) * X**3 * (C(-1) + C(7) * Y)
                + X * X * (C(3) - C(22) * Y + C(13) * Y * Y)
                - X * (ONE - C(7) * Y + C(4) * Y * Y + Y**3)
            )
            + C(d3) * (
                X**3 * (C(4) - C(64) * Y)
                + X * X * (C(-6) + C(86) * Y - C(60) * Y * Y)
                + Y * Y * (C(4) - C(5) * Y + Y * Y)
                + X * (C(2) - C(24) * Y + C(18) * Y * Y + C(5) * Y**3)
            )
        )
    )
    v = Y * (
        C(-4 * d2 * d2 * d3) * X * (
            C(2) * X * X * (Y - ONE) + (Y - ONE) * Y * Y
            + X * (ONE - C(2) * Y + C(3) * Y * Y)
        )
        - C(2 * d1 * d1) * (
            C(2 * d3) * (Y - ONE) * (Y - ONE) * (X * (Y - ONE) + Y * Y)
            + C(d2) * (
                (Y - ONE) * (Y - ONE) * Y * Y + X**3 * (C(-4) + C(8) * Y)
                + C(2) * X * X * (C(3) - C(8) * Y + C(4) * Y * Y)
                + X * (C(-2) + C(6) * Y - C(5) * Y * Y + Y**3)
            )
        )
        + C(2 * d1 * d2) * (
            C(2 * d2) * X * (
                ONE + X * X * (C(6) - C(14) * Y) - C(3) * Y + Y * Y + Y**3
                + X * (C(-7) + C(22) * Y - C(13) * Y * Y)
            )
            + C(d3) * (
                X**3 * (C(28) - C(64) * Y) + (Y - ONE) * (Y - ONE) * Y * Y
                + X * X * (C(-26) + C(88) * Y - C(60) * Y * Y)
                + X * (C(2) - C(6) * Y - Y * Y + C(5) * Y**3)
            )
        )
    )
    return u, v


@pytest.mark.parametrize("mnp", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (5, 3, 2), (4, 4, 4)])
def test_su_field_matches_printed_general_form(mnp):
    f = projected_field(su_family(*mnp))
    u, v = su_printed(*mnp)
    assert f.u == u
    assert f.v == v


@pytest.mark.parametrize("ell", [4, 5, 6, 9])
def test_so_field_matches_printed_general_form(ell):
    f = projected_field(so_family(ell))
    u, v = so_printed(ell)
    assert f.u == u
    assert f.v == v


@pytest.mark.parametrize("fid", TYPE1_IDS)
def test_type1_field_matches_printed_general_form(fid):
    fam = type1_family(fid)
    f = projected_field(fam)
    u, v = type1_printed(*fam.dims)
    assert f.u == u
    assert f.v == v


def test_e6_field_equals_su111_field():
    assert projected_field(e6_family()).u == projected_field(su_family(1, 1, 1)).u
    assert projected_field(e6_family()).v == projected_field(su_family(1, 1, 1)).v


# ----------------------------------------------------------------------
# the three expanded example systems


def test_su4_example_system_exact():
    f = projected_field(su_family(2, 1, 1))
    u_ex = X * (
        X * X * (C(6) - C(32) * Y)
        + X * (C(-32) * Y * Y + C(50) * Y - C(9))
        + C(16) * Y * Y - C(17) * Y + C(3)
    )
    v_ex = -Y * (C(2) * Y - ONE) * (
        C(16) * X * X + X * (C(16) * Y - C(17)) - C(3) * Y + C(3)
    )
    assert f.u == u_ex
    assert f.v == v_ex


def test_so12_example_system_exact():
    f = projected_field(so_family(6))
    u, v = so_printed(6)
    assert f.u == u
    assert f.v == v


def test_e8_su8_example_proportional_by_positive_rational():
    f = projected_field(type1_family("e8su8u1"))
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
    scalar = ratios.pop()
    assert scalar > 0
    d1, d2, d3 = type1_family("e8su8u1").dims
    assert scalar == 2 * d1 * d2 * d3


# ----------------------------------------------------------------------
# structural properties of the derivation


def all_test_families():
    fams = [su_family(2, 1, 1), su_family(1, 1, 1), su_family(3, 2, 1),
            so_family(4), so_family(6), e6_family()]
    fams.extend(type1_family(fid) for fid in TYPE1_IDS)
    return fams


@pytest.mark.parametrize("fam", all_test_families(), ids=lambda f: f"{f.id}{f.params}")
def test_cleared_field_divisibility(fam):
    fp, gp, hp = cleared_field(fam)
    assert all(e[0] >= 1 for e in fp.terms), "x divides the first component"
    assert all(e[1] >= 1 for e in gp.terms), "y divides the second component"
    assert all(e[2] >= 1 for e in hp.terms), "z divides the third component"


def test_fields_have_integer_terms():
    """For every family, the cleared field, u, v and the four Jacobian
    entries hold int coefficients only."""
    for fam in list_families(6, 12):
        f = projected_field(fam)
        polys = (*cleared_field(fam), f.u, f.v, f.du_dx, f.du_dy, f.dv_dx, f.dv_dy)
        assert all(type(c) is int for p in polys for c in p.terms.values()), fam


@pytest.mark.parametrize("fam", all_test_families(), ids=lambda f: f"{f.id}{f.params}")
def test_projected_degree(fam):
    f = projected_field(fam)
    expected = 4 if fam.is_type_two else 5
    assert f.degree() == expected


@pytest.mark.parametrize("fam", all_test_families(), ids=lambda f: f"{f.id}{f.params}")
def test_projection_identity(fam):
    """u and v really are A and B with z eliminated."""
    fp, gp, hp = (QPoly(p.terms, 3) for p in cleared_field(fam))
    total = fp + gp + hp
    xv = QPoly.variable("x", 3)
    yv = QPoly.variable("y", 3)
    a = fp - total * xv
    b = gp - total * yv
    f = projected_field(fam)
    assert f.u == a.substitute_z()
    assert f.v == b.substitute_z()


@pytest.mark.parametrize("fam", all_test_families(), ids=lambda f: f"{f.id}{f.params}")
def test_field_vanishes_exactly_at_exact_reference_equilibria(fam):
    f = projected_field(fam)
    for rec in reference_equilibria(fam):
        if not rec.position_exact:
            continue
        u0, v0 = f.u.eval(rec.position), f.v.eval(rec.position)
        assert u0 == 0, f"{rec.label}: u != 0"
        assert v0 == 0, f"{rec.label}: v != 0"


# ----------------------------------------------------------------------
# Ricci components, scalar curvature, Lyapunov quantity


SAMPLE_METRICS = [
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    (Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)),
    (Fraction(1), Fraction(2), Fraction(3)),
]


@pytest.mark.parametrize("fam", all_test_families(), ids=lambda f: f"{f.id}{f.params}")
def test_ricci_scaling_degree_minus_one(fam):
    """Ric(c g) = Ric(g) forces r_i(c m) = r_i(m) / c, exactly."""
    c = Fraction(5, 3)
    for m in SAMPLE_METRICS:
        base = ricci_components(fam, m)
        scaled = ricci_components(fam, tuple(c * v for v in m))
        assert scaled == tuple(r / c for r in base)


@pytest.mark.parametrize("fam", all_test_families(), ids=lambda f: f"{f.id}{f.params}")
def test_scalar_curvature_positive_and_scales(fam):
    for m in SAMPLE_METRICS:
        s = scalar_curvature(fam, m)
        assert s > 0
        assert scalar_curvature(fam, tuple(2 * v for v in m)) == s / 2


@pytest.mark.parametrize("fam", all_test_families(), ids=lambda f: f"{f.id}{f.params}")
def test_lyapunov_scale_invariant(fam):
    for m in SAMPLE_METRICS:
        base = lyapunov_value(fam, m)
        scaled = lyapunov_value(fam, tuple(Fraction(7, 2) * v for v in m))
        assert math.isfinite(base) and base < 0
        assert scaled == pytest.approx(base, rel=1e-12)


def test_lyapunov_value_exact_beyond_the_float_range_of_its_parts():
    """A coordinate of 10^-400 underflows as a float and S there overflows
    one, yet -S vol is finite: it matches the value taken in logarithms.
    Where -S vol itself is beyond the float range, it is infinite."""
    tiny, half, third = Fraction(1, 10**400), Fraction(1, 2), Fraction(1, 3)
    su, g2 = su_family(2, 1, 1), type1_family("g2u2")
    for fam, m in [(su, (tiny, half, half - tiny)), (su, (third, tiny, 2 * third - tiny)),
                   (g2, (third, 2 * third - tiny, tiny))]:
        got = lyapunov_value(fam, m)
        s = scalar_curvature(fam, m)
        logs = [math.log(v.numerator) - math.log(v.denominator) for v in m]
        log_vol = sum(d * lg for d, lg in zip(fam.dims, logs)) / fam.total_dim
        want = math.exp(math.log(abs(s.numerator)) - math.log(s.denominator) + log_vol) * (-1 if s > 0 else 1)
        assert math.isfinite(got) and abs(got - want) <= 1e-12 * abs(want), (m, got, want)
    # about 10^639
    assert math.isinf(lyapunov_value(g2, (tiny, half, half - tiny)))


@pytest.mark.parametrize("fid", ["g2u2", "e8su8u1"])
def test_lyapunov_planar_infinite_at_small_normal_x(fid):
    """At x = 10^-300 and at the least normal x, y/x^2 overflows in floats
    and -S vol lies beyond the float range: exact S gives +inf, with no
    RuntimeWarning (which the suite turns into an error)."""
    fam = type1_family(fid)
    for x in (1e-300, 2.2250738585072014e-308):
        assert lyapunov_planar(fam, x, 0.5) == math.inf


@pytest.mark.parametrize("fam", [su_family(2, 1, 1), type1_family("g2u2"), type1_family("e8e6su2u1")],
                         ids=lambda f: f.id)
def test_lyapunov_value_float_rows_near_the_exact_threshold(fam):
    """Rows whose least coordinate lies just above 2^-257 (float S) and at or
    just below it (exact S) match the value at the same coordinates taken
    as Fractions."""
    small = [math.ldexp(1.0, -257) * f for f in (1 + 2.0**-52, 1.0, 1 - 2.0**-53, 0.75, 1.5)]
    for v in small:
        for m in [(v, 0.5, 0.5 - v), (0.25, v, 0.75 - v), (0.5, 0.5 - v, v)]:
            want = lyapunov_value(fam, tuple(Fraction(c) for c in m))
            assert lyapunov_value(fam, m) == pytest.approx(want, rel=1e-12), m
    xs = np.array(small)
    got = lyapunov_value(fam, (xs, np.full(len(xs), 0.5), 0.5 - xs))
    want = [lyapunov_value(fam, (Fraction(v), Fraction(1, 2), Fraction(1, 2) - Fraction(v))) for v in small]
    assert got == pytest.approx(want, rel=1e-12)


def test_lyapunov_planar_degenerate_conventions():
    fam = su_family(2, 1, 1)
    assert math.isfinite(lyapunov_planar(fam, 0.3, 0.3))
    assert lyapunov_planar(fam, 0.0, 0.5) == -math.inf
    assert lyapunov_planar(fam, 0.5, 0.5) == -math.inf
    assert lyapunov_planar(fam, 0.0, 0.0) == math.inf
    assert lyapunov_planar(fam, 0.0, 1.0) == math.inf


@pytest.mark.parametrize("fam", [su_family(2, 1, 1), type1_family("e8e6su2u1")], ids=lambda f: f.id)
def test_lyapunov_planar_ignores_argument_type(fam):
    """Python floats and numpy scalars give the same value, also on underflow."""
    for x, y in [(0.3, 0.3), (0.1, 0.7), (1e-200, 0.5), (0.99999, 5e-324)]:
        py = lyapunov_planar(fam, x, y)
        nps = lyapunov_planar(fam, np.float64(x), np.float64(y))
        assert py == nps and math.isfinite(py)
    z = 1.0 - 0.1 - 0.7
    assert lyapunov_planar(fam, 0.1, 0.7) == lyapunov_value(fam, (0.1, 0.7, z))


# interior points, points one or two of whose coordinates are <= 0, and
# points where a coordinate or a power of one under- or overflows
_PLANAR_POINTS = [
    (0.3, 0.3), (0.1, 0.7), (0.2, 0.5), (0.0, 0.5), (0.5, 0.5), (0.0, 0.0),
    (0.0, 1.0), (1e-200, 0.5), (0.5, 1e-200), (0.99999, 5e-324),
]


def test_lyapunov_planar_rejects_points_off_the_simplex():
    """A finite point more than BOUNDARY_EXIT_TOL outside the closed simplex
    raises ValueError, alone or in an array; orbit samples in the slack keep
    their edge value."""
    fam = su_family(2, 1, 1)
    for x, y in ((-0.1, 0.4), (1.2, -0.2), (2.0, 0.5), (-1.0, -1.0), (-2e-9, 0.5), (0.5, 0.5 + 2e-9)):
        with pytest.raises(ValueError, match="closed simplex"):
            lyapunov_planar(fam, x, y)
        with pytest.raises(ValueError, match="closed simplex"):
            lyapunov_planar(fam, np.array([0.3, x]), np.array([0.3, y]))
    assert dynamics.outside_simplex is outside_simplex and BOUNDARY_EXIT_TOL == 1e-9
    assert lyapunov_planar(fam, -5e-10, 0.5) == -math.inf


@pytest.mark.parametrize(
    "fam", [su_family(2, 1, 1), type1_family("g2u2"), type1_family("e8e6su2u1")], ids=lambda f: f.id
)
def test_lyapunov_planar_array_equals_elementwise_calls(fam):
    """An array call gives bit for bit the values of one call per point, at any shape."""
    rng = np.random.default_rng(5)
    pts = np.vstack([_PLANAR_POINTS, rng.dirichlet([1, 1, 1], 500)[:, :2]])
    alone = [lyapunov_planar(fam, x, y) for x, y in pts.tolist()]
    assert all(type(v) is float for v in alone)
    bits = np.array(alone).view(np.int64)
    for x, y, want in zip(pts[:, 0], pts[:, 1], bits):
        got = lyapunov_planar(fam, np.asarray(x), np.asarray(y))
        assert type(got) is float and np.float64(got).view(np.int64) == want
    # strided columns, a contiguous copy and two 2-d layouts
    for xs, ys in [
        (pts[:, 0], pts[:, 1]),
        (pts[:, 0].copy(), pts[:, 1].copy()),
        (pts[:, 0].reshape(2, -1), pts[:, 1].reshape(2, -1)),
        (pts[:, 0].reshape(-1, 2), pts[:, 1].reshape(-1, 2)),
    ]:
        got = lyapunov_planar(fam, xs, ys)
        assert got.shape == xs.shape
        assert np.array_equal(got.ravel().view(np.int64), bits)


@pytest.mark.parametrize(
    "fam",
    [su_family(2, 1, 1), type1_family("g2u2"), type1_family("e8su8u1"), type1_family("e8e6su2u1")],
    ids=lambda f: f.id,
)
def test_lyapunov_planar_near_the_edges_matches_exact_scalar_curvature(fam):
    """Within 1e-12 relative of -S vol, S exact at the float points 1e-3 and 1e-4 from an edge.

    S cancels near an edge: a polynomial in (x, y) for the cleared S,
    expanded after z = 1 - x - y, misses this by 1e-10 and more.
    """
    d1, d2, d3 = fam.dims
    t = np.linspace(0.01, 0.99, 50)
    for delta in (1e-3, 1e-4):
        pts = np.vstack([
            np.stack([t * (1 - delta), (1 - t) * (1 - delta)], axis=1),
            np.stack([np.full_like(t, delta), t * (1 - delta)], axis=1),
            np.stack([t * (1 - delta), np.full_like(t, delta)], axis=1),
        ])
        values = lyapunov_planar(fam, pts[:, 0], pts[:, 1])
        for (x, y), got in zip(pts.tolist(), values.tolist()):
            z = 1.0 - x - y
            s = float(scalar_curvature(fam, (Fraction(x), Fraction(y), Fraction(z))))
            want = -s * math.exp((d1 * math.log(x) + d2 * math.log(y) + d3 * math.log(z)) / fam.total_dim)
            assert abs(got - want) <= 1e-12 * abs(want), (delta, x, y)


def test_einstein_condition_at_exact_reference_equilibria():
    """r_x = r_y = r_z exactly at every exact Einstein metric of the tables."""
    checked = 0
    for fam in list_families(4, 9):
        for rec in reference_equilibria(fam):
            if not rec.position_exact or rec.metric_kind == DEGENERATE:
                continue
            x, y = rec.position
            rx, ry, rz = ricci_components(fam, (x, y, 1 - x - y))
            assert rx == ry == rz, (fam.id, fam.params, rec.label)
            checked += 1
    assert checked == 115


@pytest.mark.parametrize("fam", list_families(3, 7), ids=lambda f: f"{f.id}{f.params}")
def test_cleared_field_is_positive_multiple_of_ricci_field(fam):
    """F/(-2x r_x) = G/(-2y r_y) = H/(-2z r_z) > 0: one positive clearing factor."""
    for m in SAMPLE_METRICS:
        values = [p.eval(m) for p in cleared_field(fam)]
        ratios = {v / (-2 * mi * ri) for v, mi, ri in zip(values, m, ricci_components(fam, m))}
        assert len(ratios) == 1
        assert ratios.pop() > 0


def test_ricci_rejects_nonpositive_metrics():
    fam = su_family(2, 1, 1)
    with pytest.raises(ValueError):
        ricci_components(fam, (Fraction(0), Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        lyapunov_value(fam, (Fraction(-1), Fraction(1), Fraction(1)))
    # floats and arrays are checked too, and the message gives the input
    for m in [(-1.0, 0.5, 1.5), (0.0, 0.5, 0.5), (np.array([0.2, -0.1]), np.array([0.3, 0.3]), np.array([0.5, 0.8]))]:
        with pytest.raises(ValueError, match="must be positive"):
            lyapunov_value(fam, m)
    with pytest.raises(ValueError, match=r"got \(-1\.0, 0\.5, 1\.5\)"):
        lyapunov_value(fam, (-1.0, 0.5, 1.5))


_NONFINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", _NONFINITE, ids=("nan", "inf", "-inf"))
@pytest.mark.parametrize("fn", (ricci_components, scalar_curvature, lyapunov_value), ids=lambda f: f.__name__)
def test_metric_functions_reject_nonfinite_components(fn, bad):
    """A nan or infinite component, as a scalar or inside an array, raises
    the ValueError of a nonpositive one instead of returning nan."""
    fam = su_family(2, 1, 1)
    for slot in range(3):
        scalars = [0.5, 0.5, 0.5]
        scalars[slot] = bad
        arrays = [np.array([0.2, 0.3]), np.array([0.3, 0.3]), np.array([0.5, 0.4])]
        arrays[slot] = np.array([0.2, bad])
        for m in (tuple(scalars), tuple(arrays)):
            with pytest.raises(ValueError, match="must be positive and finite"):
                fn(fam, m)


@pytest.mark.parametrize("bad", _NONFINITE, ids=("nan", "inf", "-inf"))
def test_lyapunov_planar_rejects_nonfinite_points(bad):
    fam = su_family(2, 1, 1)
    for x, y in ((bad, 0.5), (0.25, bad), (np.array([0.2, bad]), np.array([0.3, 0.3])),
                 (np.array([0.2, 0.3]), np.array([bad, 0.3]))):
        with pytest.raises(ValueError, match="must be finite"):
            lyapunov_planar(fam, x, y)
    # the finite points around them keep their values
    assert np.isfinite(lyapunov_planar(fam, np.array([0.2, 0.3]), np.array([0.3, 0.3]))).all()


# ----------------------------------------------------------------------
# fast numeric evaluation agrees with the exact polynomials


@pytest.mark.parametrize("fam", [su_family(2, 1, 1), so_family(6), type1_family("g2u2")],
                         ids=lambda f: f"{f.id}{f.params}")
def test_compiled_rhs_and_jacobian_match_exact(fam):
    f = projected_field(fam)
    pts = np.array([[0.2, 0.3], [0.1, 0.7], [0.45, 0.45], [0.61, 0.11]])
    raw = f.rhs(pts)
    for k, (x, y) in enumerate(pts):
        ue = float(f.u.eval((x, y)))
        ve = float(f.v.eval((x, y)))
        assert raw[k, 0] == pytest.approx(ue, rel=1e-12, abs=1e-9)
        assert raw[k, 1] == pytest.approx(ve, rel=1e-12, abs=1e-9)
    jac = f.jacobian(pts)
    for k, (x, y) in enumerate(pts):
        assert jac[k, 0, 0] == pytest.approx(float(f.du_dx.eval((x, y))), rel=1e-12, abs=1e-9)
        assert jac[k, 0, 1] == pytest.approx(float(f.du_dy.eval((x, y))), rel=1e-12, abs=1e-9)
        assert jac[k, 1, 0] == pytest.approx(float(f.dv_dx.eval((x, y))), rel=1e-12, abs=1e-9)
        assert jac[k, 1, 1] == pytest.approx(float(f.dv_dy.eval((x, y))), rel=1e-12, abs=1e-9)
    assert f.scale == max(
        max(abs(c) for c in f.u.terms.values()),
        max(abs(c) for c in f.v.terms.values()),
    )


def test_replaced_field_derives_its_numerics_from_u_and_v():
    """dataclasses.replace(field, u=..., v=...) derives the Jacobian entries,
    the scale and the compiled kernels from the new u and v."""
    f = dataclasses.replace(projected_field(type1_family("g2u2")), u=as_poly(X * (X - Y)),
                            v=as_poly(Y * (2 * X - ONE)))
    pts = np.array([[0.3, 0.2], [0.1, 0.7], [0.45, 0.45]])
    x, y = pts[:, 0], pts[:, 1]
    assert f.rhs(pts) == pytest.approx(np.stack([x * (x - y), y * (2 * x - 1)], axis=1), abs=1e-15)
    assert np.array([(f.u.eval(p), f.v.eval(p)) for p in pts], dtype=float) == pytest.approx(f.rhs(pts), abs=1e-15)
    # du/dx = 2x - y, du/dy = -x, dv/dx = 2y, dv/dy = 2x - 1
    jac = np.stack([2 * x - y, -x, 2 * y, 2 * x - 1], axis=1).reshape(-1, 2, 2)
    assert f.jacobian(pts) == pytest.approx(jac, abs=1e-15)
    exact = [[q.eval(p) for q in (f.du_dx, f.du_dy, f.dv_dx, f.dv_dy)] for p in pts]
    assert np.array(exact, dtype=float).reshape(-1, 2, 2) == pytest.approx(jac, abs=1e-15)
    assert f.scale == 2.0
    with pytest.raises(ValueError):
        dataclasses.replace(f, scale=1.0)


def test_fields_compare_and_print_by_family_u_and_v():
    """Equality and repr cover family, u and v, not the derived numerics;
    a field stays unhashable, as its polynomials are."""
    g2u2 = type1_family("g2u2")
    f = projected_field(g2u2)
    assert f == projected_field(g2u2) and f is not projected_field(g2u2)
    assert f != dataclasses.replace(f, v=as_poly(Y * (2 * X - ONE)))
    assert f != projected_field(su_family(2, 1, 1))
    text = repr(f)
    assert text.startswith("ProjectedField(family=") and "u=" in text and "v=" in text
    assert "array" not in text and "du_dx" not in text and "scale" not in text
    with pytest.raises(TypeError):
        hash(f)


@pytest.mark.parametrize("v", [Poly({}, 2), Poly({(0, 0): 3}, 2)], ids=["zero", "three"])
def test_constant_field_has_a_zero_jacobian(v):
    """A constant u and v leave the Jacobian group without monomials: rhs
    is the constant and jacobian zero, for a batch and a lone point."""
    f = dataclasses.replace(projected_field(type1_family("g2u2")), u=as_poly(ONE), v=v)
    pts = np.array([[0.3, 0.2], [0.1, 0.7], [0.45, 0.45]])
    value = [1.0, float(v.eval((0, 0)))]
    assert f.rhs(pts).tolist() == [value] * 3 and f.rhs(pts[0]).tolist() == value
    assert f.jacobian(pts).tolist() == [[[0.0, 0.0], [0.0, 0.0]]] * 3
    assert f.jacobian(pts[0]).tolist() == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("fam", [su_family(2, 1, 1), so_family(6), type1_family("g2u2"),
                                 type1_family("e8su8u1")], ids=lambda f: f"{f.id}{f.params}")
def test_equal_polys_evaluate_bit_identically(fam):
    """Term order is canonical: a derived polynomial and its parsed copy
    add the same terms in the same order at a float point."""
    f = projected_field(fam)
    pts = simplex_points(20)
    for p in (f.u, f.v, f.du_dx, f.dv_dy):
        q = as_poly(QPoly.parse(p.to_text(), 2))
        assert q == p
        for x, y in pts:
            assert q.eval((x, y)) == p.eval((x, y))


# ----------------------------------------------------------------------
# the blocked kernel at every batch shape and across block boundaries


def simplex_points(n: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    pts = rng.random((n, 2))
    over = pts.sum(axis=1) > 1.0
    pts[over] = 1.0 - pts[over]
    return pts


def assert_close(got, want):
    """Elementwise pytest.approx(want, rel=1e-12, abs=1e-9), shapes equal."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * np.abs(want), 1e-9))


@pytest.fixture(scope="module",
                params=[su_family(2, 1, 1), so_family(6), e6_family(), type1_family("g2u2")],
                ids=lambda f: f"{f.id}{f.params}")
def kernel_case(request):
    """A field, 2B+3 simplex points, and Poly.eval's rhs and Jacobian there."""
    f = projected_field(request.param)
    pts = simplex_points(2 * _BLOCK + 3)
    polys = (f.u, f.v, f.du_dx, f.du_dy, f.dv_dx, f.dv_dy)
    exact = np.array([[float(p.eval((x, y))) for p in polys] for x, y in pts])
    return f, pts, exact[:, :2], exact[:, 2:].reshape(-1, 2, 2)


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_kernel_matches_exact_at_every_batch_size(kernel_case, n):
    f, pts, rhs, jac = kernel_case
    assert_close(f.rhs(pts[:n]), rhs[:n])
    assert_close(f.jacobian(pts[:n]), jac[:n])


def reference_kernel(polys, pts):
    """The kernel's arithmetic written plainly: the powers of x and of y by
    repeated multiplication, a gather per exponent column, their product
    and the same np.matmul per block, a lone row evaluated as two."""
    monos = sorted(set().union(*(p.terms for p in polys)))
    exps = np.array(monos, dtype=np.intp).reshape(-1, 2)
    coeffs = np.array([[float(p.terms.get(m, 0)) for p in polys] for m in monos]).reshape(-1, len(polys))
    deg = max(1, int(exps.max(initial=0)))
    out = np.empty((len(pts), len(polys)))
    for start in range(0, len(pts), _BLOCK):
        rows = pts[start : start + _BLOCK]
        block = rows if len(rows) > 1 else np.concatenate([rows, rows])
        table = []
        for col in block.T:
            powers = [np.ones(len(block)), col.copy()]
            for _ in range(2, deg + 1):
                powers.append(powers[-1] * col)
            table.append(np.array(powers))
        values = np.matmul((table[0][exps[:, 0]] * table[1][exps[:, 1]]).T, coeffs)
        out[start : start + len(rows)] = values[: len(rows)]
    return out


@pytest.mark.parametrize("n", [0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_kernel_equals_the_plain_reference_bit_for_bit(kernel_case, n):
    """Every float operation of the kernel is the reference's, so a
    refactor that moves one last bit anywhere fails here."""
    f, pts, _rhs, _jac = kernel_case
    assert np.array_equal(f.rhs(pts[:n]), reference_kernel((f.u, f.v), pts[:n]))
    jac = reference_kernel((f.du_dx, f.du_dy, f.dv_dx, f.dv_dy), pts[:n])
    assert np.array_equal(f.jacobian(pts[:n]), jac.reshape(-1, 2, 2))


def test_kernel_single_point_and_nested_batch(kernel_case):
    f, pts, rhs, jac = kernel_case
    assert_close(f.rhs(pts[0]), rhs[0])
    assert_close(f.jacobian(pts[0]), jac[0])
    nested = pts[:15].reshape(3, 5, 2)
    assert_close(f.rhs(nested), rhs[:15].reshape(3, 5, 2))
    assert_close(f.jacobian(nested), jac[:15].reshape(3, 5, 2, 2))


def test_kernel_point_alone_matches_point_in_batch(kernel_case):
    f, pts, _rhs, _jac = kernel_case
    batch_rhs, batch_jac = f.rhs(pts), f.jacobian(pts)
    for k in (0, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 2):
        assert np.array_equal(f.rhs(pts[k]), batch_rhs[k])
        assert np.array_equal(f.jacobian(pts[k]), batch_jac[k])
    # batches whose last block holds a single row
    for n in (_BLOCK + 1, 2 * _BLOCK + 1):
        assert np.array_equal(f.rhs(pts[:n]), batch_rhs[:n])
        assert np.array_equal(f.jacobian(pts[:n]), batch_jac[:n])
