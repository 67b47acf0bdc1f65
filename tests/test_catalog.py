"""Family descriptors, reference tables, bracket tables, limit catalog."""

from collections import Counter
from fractions import Fraction

import pytest

from flagricci.catalog import (
    ELL_BOUND_MAX,
    TYPE1_IDS,
    bracket_table,
    e6_family,
    family_from_id,
    gh_catalog,
    list_families,
    reference_equilibria,
    so_family,
    su_family,
    type1_family,
)
from flagricci.flowgen import ricci_terms


def test_su_family_dims_and_validation():
    fam = su_family(2, 1, 1)
    assert fam.dims == (4, 4, 2)
    assert fam.total_dim == 10
    assert fam.group_name == "SU(4)"
    with pytest.raises(ValueError):
        su_family(1, 2, 1)
    with pytest.raises(ValueError):
        su_family(2, 1, 0)


def test_so_family_dims_and_validation():
    fam = so_family(6)
    assert fam.dims == (10, 10, 20)
    assert fam.group_name == "SO(12)"
    with pytest.raises(ValueError):
        so_family(3)


def test_e6_family_dims():
    assert e6_family().dims == (16, 16, 16)
    assert e6_family().total_dim == 48


@pytest.mark.parametrize("fid", TYPE1_IDS)
def test_type1_first_dim_is_twice_second(fid):
    fam = type1_family(fid)
    d1, d2, d3 = fam.dims
    assert d1 == 2 * d2
    assert not fam.is_type_two


def test_type1_specific_dims():
    assert type1_family("e8e6su2u1").dims == (108, 54, 4)
    assert type1_family("e8su8u1").dims == (112, 56, 16)
    assert type1_family("e7su5su3u1").dims == (60, 30, 10)
    assert type1_family("e7su6su2u1").dims == (60, 30, 4)
    assert type1_family("e6su3su3su2u1").dims == (36, 18, 4)
    assert type1_family("f4su3su2u1").dims == (24, 12, 4)
    assert type1_family("g2u2").dims == (4, 2, 4)


def test_family_from_id_param_rules():
    assert family_from_id("su", (3, 2, 1)).params == (3, 2, 1)
    assert family_from_id("so", (5,)).params == (5,)
    assert family_from_id("g2u2").id == "g2u2"
    with pytest.raises(ValueError):
        family_from_id("su")
    with pytest.raises(ValueError):
        family_from_id("so", (5, 6))
    with pytest.raises(ValueError):
        family_from_id("g2u2", (1,))
    with pytest.raises(ValueError):
        family_from_id("nosuch")


def test_list_families_bounds():
    base = list_families()
    assert [f.id for f in base] == ["e6so8u1u1"] + list(TYPE1_IDS)
    more = list_families(mnp_bound=2, ell_bound=5)
    su_params = [f.params for f in more if f.id == "su"]
    assert su_params == [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]
    assert [f.params for f in more if f.id == "so"] == [(4,), (5,)]
    with pytest.raises(ValueError):
        list_families(mnp_bound=0)
    assert len(list_families(mnp_bound=24, ell_bound=1000)) == 2600 + 997 + 8
    for bounds in ({"mnp_bound": 25}, {"ell_bound": 1001}, {"mnp_bound": 10**9}):
        with pytest.raises(ValueError, match=f"{next(iter(bounds))} must be at most"):
            list_families(**bounds)


# ----------------------------------------------------------------------
# reference equilibria

def test_su_reference_table_labels_and_positions():
    recs = {r.label: r for r in reference_equilibria(su_family(2, 1, 1))}
    assert sorted(recs) == ["K", "L", "M", "N", "O", "P", "Q", "R", "S", "T"]
    assert recs["K"].position == (Fraction(0), Fraction(1, 2))
    assert recs["L"].position == (Fraction(1, 2), Fraction(1, 2))
    assert recs["M"].position == (Fraction(1, 2), Fraction(0))
    # interior Einstein non-Kahler point at ((m+n)/2s, (m+p)/2s)
    assert recs["N"].position == (Fraction(3, 8), Fraction(3, 8))
    assert recs["N"].expected_class == "repeller"
    # attractor rows carry exact double eigenvalues
    assert recs["K"].eigenvalues == (Fraction(-3, 2), Fraction(-3, 2))
    assert recs["L"].eigenvalues == (Fraction(-1), Fraction(-1))
    assert recs["M"].eigenvalues == (Fraction(-3, 2), Fraction(-3, 2))


def test_su_vertex_rows_are_repellers():
    for fam in [su_family(2, 1, 1), su_family(4, 2, 1)]:
        recs = {r.label: r for r in reference_equilibria(fam)}
        for label in "OPQ":
            assert recs[label].expected_class == "repeller"


def test_so_reference_table():
    ell = 6
    recs = {r.label: r for r in reference_equilibria(so_family(ell))}
    assert sorted(recs) == ["K", "L", "M", "N", "O", "P", "Q", "R", "S", "T"]
    nu = Fraction(ell, 4 * (ell - 1))
    assert recs["N"].position == (nu, nu)
    assert recs["R"].position == (Fraction(1, 4), Fraction(1, 4))
    assert recs["R"].eigenvalues == (Fraction(-1, 2), Fraction(ell, 4))
    assert recs["S"].position == (Fraction(ell, 6 * ell - 8), Fraction(1, 2))
    # -2l(l-2)^2/(3l-4)^2 and l(l-2)/(3l-4): -0.97959 and 1.71429 at l = 6
    assert recs["S"].eigenvalues == recs["T"].eigenvalues == (Fraction(-48, 49), Fraction(12, 7))
    # P and Q are mirror images under swapping x and y (the first two
    # summand dimensions agree), so they must carry the same spectrum
    assert recs["P"].eigenvalues == recs["Q"].eigenvalues
    assert recs["P"].eigenvalues == (Fraction(ell), Fraction(2 * (ell - 2)))


def test_so_is_su_with_x_and_z_exchanged():
    """so(l) is su(l - 2, l - 2, 2) under (x, y) -> (1 - x - y, y): its Ricci
    term tables are the su ones with x and z exchanged, monomial for
    monomial, and its records the su ones moved and renamed O<->Q, K<->L,
    R->T, S->R, T->S, in the order O P Q K L M N R S T."""
    renamed = {"O": "Q", "Q": "O", "K": "L", "L": "K", "R": "T", "S": "R", "T": "S"}
    for ell in range(4, ELL_BOUND_MAX + 1):
        so, su = so_family(ell), su_family(ell - 2, ell - 2, 2)
        so_k, so_table = ricci_terms(so)
        su_k, su_table = ricci_terms(su)
        assert so_k == su_k == 4 * (ell - 1)
        for so_r, su_r in zip(so_table, reversed(su_table)):
            assert Counter(so_r) == Counter((c, (e, b, a)) for c, (a, b, e) in su_r), ell
        so_recs = reference_equilibria(so)
        assert "".join(r.label for r in so_recs) == "OPQKLMNRST"
        so_recs = {r.label: r for r in so_recs}
        for r in reference_equilibria(su):
            x, y = r.position
            mapped = so_recs[renamed.get(r.label, r.label)]
            assert mapped.position == (1 - x - y, y), (ell, r.label)
            assert (mapped.expected_class, mapped.metric_kind) == (r.expected_class, r.metric_kind)
            assert mapped.eigenvalues == r.eigenvalues and all(isinstance(e, Fraction) for e in r.eigenvalues)


def test_e6_reference_matches_su111():
    e6 = reference_equilibria(e6_family())
    su = reference_equilibria(su_family(1, 1, 1))
    assert [(r.label, r.position, r.expected_class) for r in e6] == [
        (r.label, r.position, r.expected_class) for r in su
    ]


@pytest.mark.parametrize("fid", TYPE1_IDS)
def test_type1_reference_table(fid):
    recs = {r.label: r for r in reference_equilibria(type1_family(fid))}
    assert sorted(recs) == ["L", "M", "N", "O", "P", "Q", "R", "S"]
    assert recs["N"].position == (Fraction(1, 6), Fraction(1, 3))
    assert recs["N"].expected_class == "attractor"
    assert recs["L"].expected_class == "attractor"
    assert recs["M"].expected_class == "attractor"
    for label in "OPQ":
        assert recs[label].expected_class == "repeller"
    for label in "RS":
        assert recs[label].expected_class == "saddle"
        assert not recs[label].position_exact


# ----------------------------------------------------------------------
# bracket tables

def test_bracket_tables_are_symmetric():
    for fam in [su_family(2, 1, 1), type1_family("g2u2")]:
        t = bracket_table(fam)
        for i in range(1, 4):
            for j in range(1, 4):
                assert t.entry(i, j) == t.entry(j, i)


def test_type2_bracket_cyclic_structure():
    t = bracket_table(su_family(2, 1, 1))
    # entries hold summand indices; k is implicit, so [m_i, m_i] lists nothing
    assert t.entry(1, 1) == frozenset()
    assert t.entry(2, 2) == frozenset()
    assert t.entry(3, 3) == frozenset()
    assert t.entry(1, 2) == frozenset({3})
    assert t.entry(1, 3) == frozenset({2})
    assert t.entry(2, 3) == frozenset({1})


def test_type1_bracket_structure():
    t = bracket_table(type1_family("f4su3su2u1"))
    assert t.entry(1, 1) == frozenset({2})
    assert t.entry(2, 2) == frozenset()
    assert t.entry(3, 3) == frozenset()
    assert t.entry(1, 2) == frozenset({1, 3})
    assert t.entry(1, 3) == frozenset({2})
    assert t.entry(2, 3) == frozenset({1})


def test_e6_uses_type2_table():
    assert bracket_table(e6_family()) is bracket_table(su_family(1, 1, 1))


# ----------------------------------------------------------------------
# collapsed-limit catalog

ALL_PATTERNS = [
    frozenset({1}),
    frozenset({2}),
    frozenset({3}),
    frozenset({1, 2}),
    frozenset({1, 3}),
    frozenset({2, 3}),
    frozenset({1, 2, 3}),
]


def test_gh_catalog_covers_all_patterns():
    for fam in list_families(mnp_bound=2, ell_bound=5):
        cat = gh_catalog(fam)
        assert sorted(cat, key=lambda s: (len(s), sorted(s))) == sorted(
            ALL_PATTERNS, key=lambda s: (len(s), sorted(s))
        )
        for pattern in ALL_PATTERNS:
            if len(pattern) >= 2:
                assert cat[pattern].kind == "Point"


def test_su_gh_entries():
    cat = gh_catalog(su_family(2, 1, 1))
    assert cat[frozenset({1})].name == "Gr_3(C^4)"
    assert cat[frozenset({1})].dim == 6
    assert cat[frozenset({2})].name == "Gr_3(C^4)"
    assert cat[frozenset({2})].dim == 6
    assert cat[frozenset({3})].name == "Gr_2(C^4)"
    assert cat[frozenset({3})].dim == 8
    # collapsing summand i leaves the total dimension minus dim m_i
    fam = su_family(2, 1, 1)
    for i in (1, 2, 3):
        assert cat[frozenset({i})].dim == fam.total_dim - fam.dims[i - 1]


def test_so_gh_entries():
    cat = gh_catalog(so_family(6))
    assert cat[frozenset({1})].name == "SO(12)/U(6)"
    assert cat[frozenset({1})].dim == 30
    assert cat[frozenset({2})] == cat[frozenset({1})]
    assert cat[frozenset({3})].name == "SO(12)/(SO(10)xSO(2))"
    assert cat[frozenset({3})].dim == 20


def test_e6_gh_entries():
    cat = gh_catalog(e6_family())
    for i in (1, 2, 3):
        rec = cat[frozenset({i})]
        assert rec.name == "E6/(SO(10)xU(1))"
        assert rec.dim == 32
        assert rec.space_class == "SymmetricPair"


@pytest.mark.parametrize("fid", TYPE1_IDS)
def test_type1_gh_entries(fid):
    fam = type1_family(fid)
    cat = gh_catalog(fam)
    assert cat[frozenset({1})].kind == "Point"
    assert cat[frozenset({2})].space_class == "SymmetricPair"
    assert cat[frozenset({3})].space_class == "BorelDeSiebenthal"
    assert cat[frozenset({2})].dim > 0
    assert cat[frozenset({3})].dim > 0


def test_g2_gh_dims():
    cat = gh_catalog(type1_family("g2u2"))
    assert (cat[frozenset({2})].name, cat[frozenset({2})].dim) == ("G2/SO(4)", 8)
    assert (cat[frozenset({3})].name, cat[frozenset({3})].dim) == ("G2/SU(3)", 6)


def test_gh_labels_carry_normal_metric():
    for fam in list_families():
        for label in gh_catalog(fam).values():
            assert label.metric == "normal"
