"""Exact polynomial arithmetic, serialization, and calculus."""

from fractions import Fraction

import pytest

from flagricci.polyalg import Poly, variables


def test_construction_drops_zero_coefficients():
    p = Poly({(1, 0): 3, (0, 1): 0, (2, 0): Fraction(0)}, 2)
    assert set(p.terms) == {(1, 0)}
    assert p.terms[(1, 0)] == Fraction(3)


def test_construction_merges_duplicate_keys_is_not_needed_but_sums():
    p = Poly({(1, 1): Fraction(1, 2)}, 2) + Poly({(1, 1): Fraction(1, 2)}, 2)
    assert p.terms == {(1, 1): Fraction(1)}


def test_construction_rejects_floats():
    with pytest.raises(TypeError):
        Poly({(1, 0): 0.5}, 2)


def test_construction_rejects_bad_arity_and_exponents():
    with pytest.raises(ValueError):
        Poly({}, 1)
    with pytest.raises(ValueError):
        Poly({(1,): 1}, 2)
    with pytest.raises(ValueError):
        Poly({(-1, 0): 1}, 2)


def test_immutability():
    p = Poly({(1, 0): 1}, 2)
    with pytest.raises(AttributeError):
        p.terms = {}


def test_binomial_square():
    x, y = variables(2)
    p = (x + y) * (x + y)
    assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_mixed_arity_arithmetic_rejected():
    x2 = Poly.variable("x", 2)
    x3 = Poly.variable("x", 3)
    with pytest.raises(ValueError):
        x2 + x3


def test_degree():
    x, y = variables(2)
    assert (x * x * y - y).degree() == 3
    assert Poly.zero(2).degree() == -1
    assert Poly.constant(5, 2).degree() == 0


def test_diff_exact():
    x, y = variables(2)
    p = Poly({(3, 2): Fraction(1, 3)}, 2)
    assert p.diff("x") == Poly({(2, 2): 1}, 2)
    assert p.diff("y") == Poly({(3, 1): Fraction(2, 3)}, 2)
    assert Poly.constant(7, 2).diff("x") == Poly.zero(2)


def test_eval_exact_fraction_point():
    x, y = variables(2)
    p = x * x + y
    got = p.eval((Fraction(1, 2), Fraction(1, 3)))
    assert got == Fraction(7, 12)
    assert isinstance(got, Fraction)


def test_eval_float_point_returns_float():
    x, y = variables(2)
    assert (x + y).eval((0.25, 0.5)) == pytest.approx(0.75)


def test_substitute_z_eliminates_third_variable():
    x, y, z = variables(3)
    p = x * z + z * z
    q = p.substitute_z()
    assert q.arity == 2
    # x(1-x-y) + (1-x-y)^2 at (x, y) = (2, 3)
    assert q.eval((2, 3)) == Fraction(2 * (1 - 2 - 3) + (1 - 2 - 3) ** 2)


def test_substitute_z_requires_arity_three():
    with pytest.raises(ValueError):
        Poly.variable("x", 2).substitute_z()


def test_shift_recenters_exactly():
    x, y = variables(2)
    p = x * x * y - Poly.constant(2, 2) * x + y * y
    q = p.shift((Fraction(1, 3), Fraction(-1, 2)))
    for pt in [(0, 0), (1, 2), (Fraction(2, 7), Fraction(5, 3))]:
        u, v = Fraction(pt[0]), Fraction(pt[1])
        assert q.eval((u, v)) == p.eval((u + Fraction(1, 3), v - Fraction(1, 2)))


def test_shift_rejects_float_origin_and_arity_three():
    p = Poly.variable("x", 2)
    with pytest.raises(TypeError):
        p.shift((0.1, 0))
    with pytest.raises(ValueError):
        Poly.variable("x", 3).shift((0, 0))


def test_to_text_descending_graded_lex():
    p = Poly(
        {(3, 1): -32, (3, 0): 6, (2, 1): 50, (1, 2): 16, (2, 0): -9, (1, 1): -17, (1, 0): 3},
        2,
    )
    assert p.to_text() == "-32*x^3*y + 6*x^3 + 50*x^2*y + 16*x*y^2 - 9*x^2 - 17*x*y + 3*x"


def test_to_text_special_cases():
    assert Poly.zero(2).to_text() == "0"
    assert Poly.constant(Fraction(1, 3), 2).to_text() == "1/3"
    assert Poly({(1, 0): -1}, 2).to_text() == "-x"
    assert Poly({(1, 1): 1, (0, 0): -2}, 2).to_text() == "x*y - 2"


def test_parse_round_trip_hand_cases():
    for text in [
        "-32*x^3*y + 6*x^3 + 50*x^2*y + 16*x*y^2 - 9*x^2 - 17*x*y + 3*x",
        "x*y - 2",
        "0",
        "1/3",
        "-x",
    ]:
        p = Poly.parse(text, 2)
        assert p.to_text() == text


def test_parse_round_trip_random(rng_polys):
    for p in rng_polys:
        assert Poly.parse(p.to_text(), p.arity) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Poly.parse("2*w", 2)
    with pytest.raises(ValueError):
        Poly.parse("x**2", 2)


def test_parse_merges_repeated_variables():
    assert Poly.parse("x*x", 2) == Poly({(2, 0): 1}, 2)


@pytest.fixture
def rng_polys():
    """A deterministic batch of random small polynomials."""
    import random

    r = random.Random(20240817)
    polys = []
    for arity in (2, 3):
        for _ in range(25):
            terms = {}
            for _ in range(r.randint(1, 8)):
                exps = tuple(r.randint(0, 4) for _ in range(arity))
                terms[exps] = Fraction(r.randint(-40, 40), r.randint(1, 9))
            polys.append(Poly(terms, arity))
    return polys
