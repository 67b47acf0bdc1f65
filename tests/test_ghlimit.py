"""Collapse classification: kernels, closures, symmetric pairs, named limits."""

import itertools

import pytest

from flagricci import (
    NotDegenerate,
    classify_limit,
    family_from_id,
    kernel_summands,
    limit_of_orbit,
    projected_field,
    random_interior_points,
    subalgebra_closure,
    symmetric_pair_check,
)
from flagricci.catalog import (
    BOREL_DE_SIEBENTHAL,
    SYMMETRIC_PAIR,
    bracket_table,
    gh_catalog,
)

import numpy as np

SU211 = family_from_id("su", (2, 1, 1))
G2 = family_from_id("g2u2")

TYPE1_IDS = (
    "e8e6su2u1",
    "e8su8u1",
    "e7su5su3u1",
    "e7su6su2u1",
    "e6su3su3su2u1",
    "f4su3su2u1",
    "g2u2",
)


def catalog_families():
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


# a boundary point whose lifted coordinates vanish exactly on the pattern
_PATTERN_POINT = {
    frozenset({1}): (0.0, 0.37),
    frozenset({2}): (0.37, 0.0),
    frozenset({3}): (0.6, 0.4),
    frozenset({1, 2}): (0.0, 0.0),
    frozenset({1, 3}): (0.0, 1.0),
    frozenset({2, 3}): (1.0, 0.0),
}


# ----------------------------------------------------------------------
# kernels


def test_kernel_reference_points():
    assert set(kernel_summands((0.0, 0.5))) == {1}
    assert set(kernel_summands((0.5, 0.5))) == {3}
    assert set(kernel_summands((0.0, 0.0))) == {1, 2}


def test_kernel_iterates_sorted():
    assert list(kernel_summands((0.0, 0.0))) == [1, 2]
    assert list(kernel_summands((1.0, 0.0))) == [2, 3]


def test_kernel_threshold():
    assert set(kernel_summands((1e-7, 0.5))) == {1}
    with pytest.raises(NotDegenerate):
        kernel_summands((1e-5, 0.5))
    assert set(kernel_summands((1e-5, 0.5), eps=1e-4)) == {1}


def test_interior_point_raises():
    with pytest.raises(NotDegenerate):
        kernel_summands((0.3, 0.3))


@pytest.mark.parametrize(
    "point",
    [(5.0, 0.5), (-3.0, 0.0), (0.5, -2e-6), (0.6, 0.400002), (float("nan"), 0.0), (0.0, float("inf"))],
    ids=["far-right", "negative-x", "just-below-y", "just-past-hypotenuse", "nan", "inf"],
)
def test_kernel_rejects_points_off_the_closed_simplex(point):
    with pytest.raises(ValueError) as info:
        kernel_summands(point)
    assert not isinstance(info.value, NotDegenerate)
    with pytest.raises(ValueError):
        classify_limit(G2, point)


def test_kernel_accepts_points_within_slack_of_the_simplex():
    assert set(kernel_summands((-5e-7, 0.5))) == {1}
    assert set(kernel_summands((0.6, 0.4000005))) == {3}


# ----------------------------------------------------------------------
# closures


def test_closure_type_two_singletons_are_closed():
    table = bracket_table(SU211)
    for i in (1, 2, 3):
        closure = subalgebra_closure(table, kernel_summands(_PATTERN_POINT[frozenset({i})]))
        assert closure.summands == frozenset({i})
        assert not closure.is_all


def test_closure_type_two_pairs_generate_everything():
    table = bracket_table(SU211)
    for pair in ({1, 2}, {1, 3}, {2, 3}):
        closure = subalgebra_closure(table, kernel_summands(_PATTERN_POINT[frozenset(pair)]))
        assert closure.is_all


def test_closure_type_one():
    table = bracket_table(G2)
    assert subalgebra_closure(table, kernel_summands((0.0, 0.37))).is_all
    assert subalgebra_closure(table, kernel_summands((0.37, 0.0))).summands == frozenset({2})
    assert subalgebra_closure(table, kernel_summands((0.6, 0.4))).summands == frozenset({3})
    assert subalgebra_closure(table, kernel_summands((1.0, 0.0))).is_all


def test_closure_rejects_empty_kernel():
    from flagricci.ghlimit import KernelPattern

    table = bracket_table(SU211)
    with pytest.raises(ValueError):
        subalgebra_closure(table, KernelPattern(vanished=frozenset()))


@pytest.mark.parametrize("family", catalog_families(), ids=lambda f: f.id + str(f.params))
def test_closure_monotone_and_idempotent(family):
    from flagricci.ghlimit import KernelPattern, SubalgebraClosure

    table = bracket_table(family)
    subsets = [
        frozenset(s)
        for r in (1, 2, 3)
        for s in itertools.combinations((1, 2, 3), r)
    ]
    closures = {
        s: subalgebra_closure(table, KernelPattern(vanished=s)).summands for s in subsets
    }
    for a in subsets:
        assert a <= closures[a]
        closed = subalgebra_closure(table, KernelPattern(vanished=closures[a]))
        assert closed.summands == closures[a]
        for b in subsets:
            if a <= b:
                assert closures[a] <= closures[b]


# ----------------------------------------------------------------------
# symmetric pairs


def test_symmetric_pair_type_one():
    table = bracket_table(G2)
    assert symmetric_pair_check(table, frozenset({2})) is True
    assert symmetric_pair_check(table, frozenset({3})) is False


def test_symmetric_pair_type_two():
    table = bracket_table(SU211)
    assert symmetric_pair_check(table, frozenset({1})) is True


def test_symmetric_pair_rejects_bad_input():
    table = bracket_table(G2)
    with pytest.raises(ValueError):
        symmetric_pair_check(table, frozenset({4}))
    with pytest.raises(ValueError, match="bracket-closed"):
        symmetric_pair_check(table, frozenset({1}))


def test_type_one_lemma_holds_for_every_family():
    for fid in TYPE1_IDS:
        table = bracket_table(family_from_id(fid))
        assert symmetric_pair_check(table, frozenset({2})) is True
        assert symmetric_pair_check(table, frozenset({3})) is False


# ----------------------------------------------------------------------
# classification


def test_classify_reference_cases():
    su = classify_limit(SU211, (0.0, 0.5))
    assert su.name == "Gr_3(C^4)" and su.dim == 6

    so = classify_limit(family_from_id("so", (6,)), (0.5, 0.5))
    assert so.name == "SO(12)/(SO(10)xSO(2))" and so.dim == 20

    f4 = classify_limit(family_from_id("f4su3su2u1"), (0.5, 0.5))
    assert f4.name == "F4/(SU(3)xSU(3))" and f4.dim == 36
    assert f4.space_class == BOREL_DE_SIEBENTHAL

    e6 = classify_limit(family_from_id("e6so8u1u1"), (0.0, 0.5))
    assert e6.space_class == SYMMETRIC_PAIR and e6.dim == 32

    g2 = classify_limit(G2, (0.0, 0.5))
    assert g2.kind == "Point"


def test_classify_interior_raises():
    with pytest.raises(NotDegenerate):
        classify_limit(SU211, (0.3, 0.3))


def test_classify_eps_passthrough():
    lab = classify_limit(SU211, (1e-5, 0.5), eps=1e-4)
    assert lab.name == "Gr_3(C^4)"


@pytest.mark.parametrize("family", catalog_families(), ids=lambda f: f.id + str(f.params))
def test_classify_agrees_with_catalog_for_every_pattern(family):
    catalog = gh_catalog(family)
    for pattern, point in _PATTERN_POINT.items():
        assert classify_limit(family, point) == catalog[pattern]


def test_exhaustive_case_count():
    assert len(catalog_families()) * len(_PATTERN_POINT) >= 84


# ----------------------------------------------------------------------
# end to end: orbit limits feed the classifier


@pytest.mark.parametrize("family", [SU211, G2], ids=lambda f: f.id)
def test_orbit_limits_classify_consistently(family):
    field = projected_field(family)
    catalog = gh_catalog(family)
    rng = np.random.default_rng(11)
    starts = random_interior_points(20, rng)
    checked = 0
    for start in starts:
        for direction in ("forward", "backward"):
            out = limit_of_orbit(field, start, direction=direction)
            if out.kind != "Equilibrium":
                continue
            try:
                pattern = kernel_summands(out.position, eps=1e-5)
            except NotDegenerate:
                continue
            assert classify_limit(family, out.position, eps=1e-5) == catalog[
                frozenset(pattern)
            ]
            checked += 1
    assert checked >= 20
