"""Equilibrium search, classification, and catalog verification."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagricci import equilibria, polyalg
from flagricci.catalog import (
    TYPE1_IDS,
    EquilibriumRecord,
    family_from_id,
    list_families,
    reference_equilibria,
    so_family,
    su_family,
    type1_family,
)
from flagricci.equilibria import (
    FoundEquilibrium,
    classify_equilibrium,
    corner_class,
    find_equilibria,
    nearest,
    verify_catalog,
)
from flagricci.flowgen import projected_field
from flagricci.polyalg import Poly, scaled_at_xy, taylor_shift
from polyoracle import QPoly, as_poly, variables

TABLE_FAMILIES = [su_family(2, 1, 1), su_family(1, 1, 1), so_family(6), family_from_id("e6so8u1u1")]
TABLE_FAMILIES += [family_from_id(fid) for fid in TYPE1_IDS]


def test_classify_equilibrium_branches():
    assert classify_equilibrium((1.0, 2.0)) == "repeller"
    assert classify_equilibrium((-1.0, -2.0)) == "attractor"
    assert classify_equilibrium((-1.0, 2.0)) == "saddle"
    assert classify_equilibrium((2.0, -1.0)) == "saddle"
    assert classify_equilibrium((0.0, 1.0)) == "nonhyperbolic"
    assert classify_equilibrium((1e-9, 1.0)) == "nonhyperbolic"
    assert classify_equilibrium((complex(-1, 2), complex(-1, -2))) == "attractor"
    assert classify_equilibrium((complex(1, 5), complex(1, -5))) == "repeller"


def test_sign_class_branches():
    """The exact class from (trace, determinant): a tiny exact trace still
    decides, where a float real part below NONHYP_TOL would not."""
    sign_class = equilibria._sign_class
    assert sign_class(Fraction(1), Fraction(-1)) == "saddle"
    assert sign_class(Fraction(0), Fraction(-1)) == "saddle"
    assert sign_class(Fraction(0), Fraction(1)) == "nonhyperbolic"
    assert sign_class(Fraction(-1), Fraction(0)) == "nonhyperbolic"
    assert sign_class(Fraction(0), Fraction(0)) == "nonhyperbolic"
    assert sign_class(Fraction(3), Fraction(2)) == "repeller"
    assert sign_class(Fraction(-3), Fraction(2)) == "attractor"
    assert sign_class(Fraction(1, 10**30), Fraction(1, 10**70)) == "repeller"


def test_exact_classes_match_float_eigenvalue_classes():
    """On every zero of list_families(6, 12), the class find_equilibria takes
    from exact signs (rational zeros) or float eigenvalues (irrational ones)
    equals the float eigenvalue class at the zero; at the 14 degenerate
    corners, where both are nonhyperbolic, it equals corner_class's."""
    zeros = rational = degenerate = 0
    for fam in list_families(6, 12):
        field = projected_field(fam)
        for eq in find_equilibria(field):
            zeros += 1
            rational += eq.exact is not None
            expected = classify_equilibrium(eq.eigenvalues)
            if expected == "nonhyperbolic" and eq.exact is not None:
                degenerate += 1
                expected = corner_class(field, eq.exact)
            assert eq.stability == expected, (fam.id, fam.params, eq.position)
    assert (zeros, rational, degenerate) == (716, 702, 14)


def _zero_at(family, exact):
    return next(eq for eq in find_equilibria(projected_field(family)) if eq.exact == exact)


def test_jacobian_eigen_exact_double_root_at_K():
    """At K the linearization has an exact double eigenvalue -(m+n)/2.

    Evaluating at the exact rational position keeps the discriminant at
    exactly zero; any float perturbation would split the pair by the
    square root of the error and ruin relative comparisons.
    """
    eigs = _zero_at(su_family(2, 1, 1), (Fraction(0), Fraction(1, 2))).eigenvalues
    assert eigs == (Fraction(-3, 2), Fraction(-3, 2))


def test_jacobian_eigen_at_so_vertex():
    assert _zero_at(so_family(6), (Fraction(0), Fraction(1))).eigenvalues == (6, 8)


@pytest.mark.parametrize("family", TABLE_FAMILIES, ids=lambda f: f"{f.id}{f.params}")
def test_jacobian_entries_by_integer_horner_equal_fraction_eval(family):
    field = projected_field(family)
    rng = random.Random(f"{family.id}{family.params}")
    points = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 3)), (3, Fraction(-5, 11))]
    points += [
        (Fraction(rng.randint(-99, 99), rng.randint(1, 10**6)), Fraction(rng.randint(-99, 99), rng.randint(1, 10**6)))
        for _ in range(20)
    ]
    points += [eq.exact for eq in find_equilibria(field) if eq.exact is not None]
    top = field.degree()
    for q in (field.du_dx, field.du_dy, field.dv_dx, field.dv_dy):
        rows = q.in_y()
        for x, y in points:
            scale = (Fraction(x).denominator * Fraction(y).denominator) ** top
            assert Fraction(scaled_at_xy(rows, x, y, top), scale) == q.eval((x, y))


def test_find_equilibria_su211_complete():
    field = projected_field(su_family(2, 1, 1))
    found = find_equilibria(field)
    assert len(found) == 10
    labels = sorted(e.matched_label for e in found)
    assert labels == ["K", "L", "M", "N", "O", "P", "Q", "R", "S", "T"]
    assert found.seeds_tried == found.seeds_converged == 10
    for e in found:
        assert e.residual < 1e-11
    by_label = {e.matched_label: e for e in found}
    assert by_label["K"].stability == "attractor"
    assert by_label["N"].stability == "repeller"
    assert by_label["R"].stability == "saddle"
    assert by_label["O"].boundary_flag
    assert not by_label["N"].boundary_flag


def test_residuals_are_relative_to_the_field_scale():
    # e8su8u1 has the largest coefficients (7.4e7); the raw field at its
    # zeros reaches ~2.5e-10, the field divided by its scale ~3e-18
    field = projected_field(type1_family("e8su8u1"))
    for e in find_equilibria(field):
        raw = max(abs(c) for c in field.rhs(e.position).tolist())
        assert e.residual == raw / field.scale
        assert e.residual < 1e-15


def test_equilibria_ascend_in_x_then_y():
    """Elimination yields the zeros in ascending (x, y) order, also where
    they share a coordinate (R and T at x = 1/4, L, M and S at x = 1/2,
    O, K and P at x = 0)."""
    for fam in list_families(6, 12):
        positions = [e.position for e in find_equilibria(projected_field(fam))]
        assert all(a < b for a, b in zip(positions, positions[1:])), f"{fam.id}{fam.params}"


@pytest.mark.parametrize("fam, labels", [(su_family(1, 1, 1), "OKPRTNMSLQ"), (type1_family("g2u2"), "OPNRSMLQ")],
                         ids=["su(1, 1, 1)", "g2u2()"])
def test_equilibrium_label_order(fam, labels):
    assert "".join(e.matched_label for e in find_equilibria(projected_field(fam))) == labels


def test_find_equilibria_type1_corners_exact():
    """The field vanishes to high order at the corners, which elimination
    still finds as exact rational points; the off-table saddles are
    irrational and carry float positions only."""
    field = projected_field(type1_family("g2u2"))
    found = find_equilibria(field)
    assert len(found) == 8
    assert (found.seeds_tried, found.seeds_converged) == (9, 8)
    by_label = {e.matched_label: e for e in found}
    for label, exact in [("O", (0, 0)), ("P", (0, 1)), ("Q", (1, 0))]:
        assert by_label[label].exact == exact
        assert by_label[label].position == exact
    assert by_label["N"].exact == (Fraction(1, 6), Fraction(1, 3))
    assert by_label["R"].exact is None and by_label["S"].exact is None


def test_find_equilibria_rejects_fields_without_isolated_zeros():
    """A common factor makes a curve of zeros; two zeros over one
    irrational x leave no linear gcd to read y from."""
    field = projected_field(su_family(1, 1, 1))
    x, y = variables(2)
    with pytest.raises(ArithmeticError, match="share a factor"):
        find_equilibria(dataclasses.replace(field, v=as_poly(field.u * (x + y + 1))))
    with pytest.raises(ArithmeticError, match="line x = 1/2"):
        find_equilibria(dataclasses.replace(field, u=as_poly(field.u * (2 * x - 1)), v=as_poly(field.v * (2 * x - 1))))
    # zeros (1/sqrt(2), 1/2) and (1/sqrt(2), -1/2)
    with pytest.raises(ArithmeticError, match="not linear"):
        find_equilibria(dataclasses.replace(field, u=as_poly((2 * x * x - 1) * (y + 1)), v=as_poly(4 * y * y - 1)))
    # u of degree 0 in y vanishes on x = 1/sqrt(2), where v is quadratic in y
    with pytest.raises(ArithmeticError, match="not linear"):
        find_equilibria(dataclasses.replace(field, u=as_poly(2 * x * x - 1), v=as_poly(4 * y * y + x - 1)))


def test_find_equilibria_with_a_constant_or_zero_component():
    """A nonzero constant u or v has no zeros, so no equilibria; a zero u
    or v vanishes wherever the other does and is rejected."""
    field = projected_field(type1_family("g2u2"))
    one, three, zero = Poly({(0, 0): 1}, 2), Poly({(0, 0): 3}, 2), Poly({}, 2)
    for u, v in [(one, zero), (one, three), (field.u, three), (zero, Poly({(0, 0): -3}, 2))]:
        found = find_equilibria(dataclasses.replace(field, u=u, v=v))
        assert (list(found), found.seeds_tried, found.seeds_converged) == ([], 0, 0)
    for u, v in [(zero, field.v), (field.u, zero), (zero, zero)]:
        with pytest.raises(ArithmeticError, match="u or v is zero"):
            find_equilibria(dataclasses.replace(field, u=u, v=v))


def test_every_sign_is_certified_and_one_elimination_runs_per_call(monkeypatch):
    """Over the table families and list_families(6, 12), sign_at's bound
    decides every sign, without a Sturm-Tarski sequence, and
    find_equilibria computes the subresultants of u and v once."""
    def fallback(*args):
        raise AssertionError("a sign reached the Sturm-Tarski fallback")

    monkeypatch.setattr(polyalg, "_tarski_sign", fallback)
    eliminations = []
    monkeypatch.setattr(equilibria, "subresultants", lambda *a: eliminations.append(a) or polyalg.subresultants(*a))
    families = list_families(6, 12)
    assert all(f in families for f in TABLE_FAMILIES)
    for i, fam in enumerate(families):
        find_equilibria(projected_field(fam))
        assert len(eliminations) == i + 1, fam


def test_find_equilibria_when_u_and_v_have_degree_one_in_y():
    """No degree-1 subresultant exists then; over an irrational x the linear
    gcd is u or v itself, and rational zeros never need it."""
    field = projected_field(type1_family("g2u2"))
    x, y = variables(2)
    found = find_equilibria(dataclasses.replace(field, u=as_poly(x * (x - y)), v=as_poly(y * (2 * x - 1))))
    assert [(eq.exact, eq.stability) for eq in found] == [
        ((0, 0), "nonhyperbolic"), ((Fraction(1, 2), Fraction(1, 2)), "repeller")
    ]
    # y = x / 2 and 4x^2 + 2x - 1 = 0: x = (sqrt 5 - 1) / 4, where det J = -4 - 16x < 0
    (eq,) = find_equilibria(dataclasses.replace(field, u=as_poly(2 * y - x), v=as_poly(4 * y + 4 * x * x - 1)))
    root = (math.sqrt(5) - 1) / 4
    assert eq.exact is None and eq.stability == "saddle"
    assert eq.position == pytest.approx((root, root / 2), abs=1e-12) and eq.residual < 1e-15
    # v of degree 0 in y: the zeros over x = 1/sqrt 2 are those of u there
    (eq,) = find_equilibria(dataclasses.replace(field, u=as_poly(4 * y - 1 + x), v=as_poly(2 * x * x - 1)))
    assert eq.position == pytest.approx((math.sqrt(0.5), (1 - math.sqrt(0.5)) / 4), abs=1e-12)


@pytest.mark.parametrize("fid", ["g2u2", "e8su8u1"])
def test_corner_class_repeller_at_degenerate_corners(fid):
    """O and P have a zero linear part and a positive quadratic radial form
    on their open wedges.  At e8su8u1's P, with x = X and y = 1 - s, that
    cubic has mixed-sign coefficients yet is positive for 0 < X < s."""
    field = projected_field(type1_family(fid))
    by_label = {e.matched_label: e for e in find_equilibria(field)}
    for label in ("O", "P"):
        assert by_label[label].stability == "repeller"
        assert corner_class(field, by_label[label].exact) == "repeller"
    if fid == "e8su8u1":
        su, sv = taylor_shift(field.u, (0, 1)), taylor_shift(field.v, (0, 1))
        # R_2(X, -s) by the power of X
        cubic: dict = {}
        for shifted, (di, dj) in ((su, (1, 0)), (sv, (0, 1))):
            for (i, j), c in shifted.items():
                if i + j == 2:
                    cubic[i + di] = cubic.get(i + di, 0) + c * (-1) ** (j + dj)
        assert cubic == {3: -2207744, 2: -1605632, 1: 5419008, 0: 2007040}


def test_corner_class_declines_off_degenerate_corners():
    """None at hyperbolic zeros, at points other than corners, and where the
    lowest radial form has a root inside the wedge; a radial form that
    vanishes identically passes the decision to the next degree."""
    g2 = projected_field(type1_family("g2u2"))
    su = projected_field(su_family(2, 1, 1))
    g2_classes = {e.exact: e.stability for e in find_equilibria(g2)}
    su_classes = {e.exact: e.stability for e in find_equilibria(su)}
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    assert g2_classes[half, half] == "attractor" and corner_class(g2, (half, half)) is None
    assert g2_classes[1, 0] == "repeller" and corner_class(g2, (1, 0)) is None
    assert su_classes[0, half] == "attractor" and corner_class(su, (0, half)) is None
    assert su_classes[quarter, quarter] == "saddle" and corner_class(su, (quarter, quarter)) is None
    assert su_classes[0, 0] == "repeller" and corner_class(su, (0, 0)) is None
    x, y = variables(2)
    # R_2 = x^2 (x - 2y) vanishes at x = 2y, inside the wedge at O
    assert corner_class(dataclasses.replace(g2, u=as_poly(x * x - 2 * x * y), v=Poly({}, 2)), (0, 0)) is None
    # R_2 = 0 for the rotation part; R_3 = x^4 + y^4 decides
    spin_u, spin_v = -y * (x + y) + x**3, x * (x + y) + y**3
    spin = dataclasses.replace(g2, u=as_poly(spin_u), v=as_poly(spin_v))
    assert corner_class(spin, (0, 0)) == "repeller"
    assert corner_class(dataclasses.replace(spin, u=as_poly(-spin_u), v=as_poly(-spin_v)), (0, 0)) == "attractor"
    # a corner at which the field does not vanish
    assert corner_class(dataclasses.replace(g2, u=as_poly(QPoly(g2.u.terms, 2) + 1)), (0, 0)) is None


@pytest.mark.parametrize("fam", [su_family(2, 1, 1), so_family(6), type1_family("g2u2"),
                                 type1_family("e8su8u1")],
                         ids=lambda f: f"{f.id}{f.params}")
def test_verify_catalog_passes(fam):
    report = verify_catalog(fam)
    assert report.passed, [c.label for c in report.checks if not c.passed]
    assert not report.extras
    expected_rows = 10 if fam.is_type_two else 8
    assert len(report.checks) == expected_rows


@pytest.mark.parametrize("ell", range(4, 13))
def test_so_saddle_reference_eigenvalues_are_exact(ell):
    """The S and T rows carry Fractions whose sum and product are the exact
    trace and determinant of the Jacobian there, checked at the default
    1e-7 eigenvalue tolerance."""
    fam = so_family(ell)
    field = projected_field(fam)
    for rec in reference_equilibria(fam):
        if rec.label not in ("S", "T"):
            continue
        lo, hi = rec.eigenvalues
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction) and rec.eigen_rel_tol == 1e-7
        a, b, c, d = (q.eval(rec.position) for q in (field.du_dx, field.du_dy, field.dv_dx, field.dv_dy))
        assert (a + d, a * d - b * c) == (lo + hi, lo * hi)


@pytest.mark.parametrize("mnp", [(2, 2, 1), (3, 3, 1), (4, 1, 1), (5, 2, 2), (6, 6, 3), (24, 24, 1), (24, 1, 1),
                                 (14, 13, 12)])
def test_su_interior_reference_eigenvalues_are_exact_at_square_discriminants(mnp):
    """For m = n or n = p, and su(14, 13, 12) too, the discriminant at N is
    a rational square: the N row carries Fractions whose sum and product
    are the exact trace and determinant of the Jacobian there."""
    fam = su_family(*mnp)
    field = projected_field(fam)
    (rec,) = [r for r in reference_equilibria(fam) if r.label == "N"]
    lo, hi = rec.eigenvalues
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction) and lo < hi and rec.eigen_rel_tol == 1e-7
    a, b, c, d = (q.eval(rec.position) for q in (field.du_dx, field.du_dy, field.dv_dx, field.dv_dy))
    assert (a + d, a * d - b * c) == (lo + hi, lo * hi)


def test_a_zero_is_a_record_exactly_within_its_position_tol():
    """On list_families(6, 12), the 11 table families among them, a found
    zero takes its nearest record's label exactly when it lies within that
    record's position_tol, and equilibria and verify name the same zeros."""
    labelled = 0
    for fam in list_families(6, 12):
        refs = reference_equilibria(fam)
        found = find_equilibria(projected_field(fam))
        idx, dist = nearest([eq.position for eq in found], [r.position_float() for r in refs])
        for eq, i, d in zip(found, idx.tolist(), dist.tolist()):
            assert eq.matched_label == (refs[i].label if d <= refs[i].position_tol else None), (fam, eq.position)
            labelled += eq.matched_label is not None
        report = verify_catalog(fam)
        named = {c.found_position: c.label for c in report.checks if c.position_error <= c.position_tol}
        assert named == {eq.position: eq.matched_label for eq in found if eq.matched_label}, fam
        assert not [eq for eq in report.extras if eq.matched_label], fam
    assert labelled == 716


def test_verify_catalog_reports_a_record_with_no_zero(monkeypatch):
    bogus = EquilibriumRecord("X", (Fraction(1, 5), Fraction(1, 5)), "Degenerate", "saddle")
    monkeypatch.setattr(equilibria, "reference_equilibria", lambda f: reference_equilibria(f) + [bogus])
    report = verify_catalog(su_family(1, 1, 1))
    assert not report.passed
    *rows, check = report.checks
    assert all(c.passed for c in rows) and len(rows) == 10
    assert (check.label, check.passed, check.note) == ("X", False, "no zero within position tolerance")
    assert check.found_class is None and check.eigen_error is None
    assert check.found_position is not None and check.position_error > check.position_tol


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


def _brute_nearest(points, targets):
    """First target at the least math.hypot distance (reference)."""
    out = []
    for px, py in points:
        best, best_d = -1, math.inf
        for k, (tx, ty) in enumerate(targets):
            d = math.hypot(px - tx, py - ty)
            if d < best_d:
                best, best_d = k, d
        out.append((best, best_d))
    return out


_grid = st.integers(0, 4).map(lambda k: k / 4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    points=st.lists(st.tuples(_grid, _grid), max_size=12),
    targets=st.lists(st.tuples(_grid, _grid), max_size=6),
)
def test_nearest_matches_brute_force(points, targets):
    """Coarse grid coordinates make exact ties and duplicate targets common;
    an empty target list gives index -1 at distance inf."""
    idx, dist = nearest(points, targets)
    want = _brute_nearest(points, targets)
    assert list(zip(idx.tolist(), dist.tolist())) == want


def test_found_equilibrium_name():
    def eq(label):
        return FoundEquilibrium((0.25, 1 / 3), 0.0, (), "saddle", label, False)

    assert eq("R").name == "R"
    assert eq(None).name == "(0.250000000,0.333333333)"


_families = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)).map(
        lambda t: su_family(*sorted(t, reverse=True))
    ),
    st.integers(4, 12).map(so_family),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fam=_families)
def test_exact_reference_equilibria_found_exactly(fam):
    """Every exact reference record is found at the float of its exact
    position, and u and v vanish exactly at every rational zero found."""
    field = projected_field(fam)
    found = find_equilibria(field)
    positions = [e.position for e in found]
    for rec in reference_equilibria(fam):
        if rec.position_exact:
            assert rec.position_float() in positions, rec.label
    for e in found:
        if e.exact is not None:
            assert field.u.eval(e.exact) == 0 and field.v.eval(e.exact) == 0
            assert e.position == tuple(float(c) for c in e.exact)
