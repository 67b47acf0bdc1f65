"""Exact polynomial arithmetic, serialization, and calculus.

The ring operations, parse and substitute_z run on the test oracle's
QPoly (polyoracle); the package's Poly holds integer terms."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flagricci import polyalg
from flagricci.polyalg import (
    Poly,
    _mul,
    gcd,
    primitive,
    pseudo_rem,
    real_roots,
    restrict_to_line,
    scaled_at_xy,
    sign_at,
    squarefree,
    subresultants,
    taylor_shift,
    value_at,
)
from polyoracle import QPoly, as_poly, variables


def test_construction_drops_zero_coefficients():
    p = Poly({(1, 0): 3, (0, 1): 0, (2, 0): 0}, 2)
    assert set(p.terms) == {(1, 0)}
    assert p.terms[(1, 0)] == 3 and type(p.terms[(1, 0)]) is int


def test_construction_merges_duplicate_keys_is_not_needed_but_sums():
    p = QPoly({(1, 1): Fraction(1, 2)}, 2) + QPoly({(1, 1): Fraction(1, 2)}, 2)
    assert p.terms == {(1, 1): Fraction(1)}


def test_construction_rejects_floats():
    """Poly takes ints only, an integral Fraction included; the oracle
    takes ints and Fractions."""
    for c in (0.5, Fraction(1, 2), Fraction(2)):
        with pytest.raises(TypeError):
            Poly({(1, 0): c}, 2)
    with pytest.raises(TypeError):
        QPoly({(1, 0): 0.5}, 2)


def test_as_poly_takes_integral_polynomials_only():
    x, y = variables(2)
    assert as_poly(2 * x * y - 3) == Poly({(1, 1): 2, (0, 0): -3}, 2)
    assert all(type(c) is int for c in as_poly(Fraction(4, 2) * x).terms.values())
    with pytest.raises(ValueError):
        as_poly(Fraction(1, 2) * x)


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
    x2 = QPoly.variable("x", 2)
    x3 = QPoly.variable("x", 3)
    with pytest.raises(ValueError):
        x2 + x3


def test_degree():
    x, y = variables(2)
    assert as_poly(x * x * y - y).degree() == 3
    assert Poly({}, 2).degree() == -1
    assert Poly({(0, 0): 5}, 2).degree() == 0


def test_diff_exact():
    p = Poly({(3, 2): 3}, 2)
    assert p.diff("x") == Poly({(2, 2): 9}, 2)
    assert p.diff("y") == Poly({(3, 1): 6}, 2)
    assert Poly({(0, 0): 7}, 2).diff("x") == Poly({}, 2)


def test_eval_exact_fraction_point():
    x, y = variables(2)
    p = as_poly(x * x + y)
    got = p.eval((Fraction(1, 2), Fraction(1, 3)))
    assert got == Fraction(7, 12)
    assert isinstance(got, Fraction)


def test_eval_float_point_returns_float():
    x, y = variables(2)
    assert as_poly(x + y).eval((0.25, 0.5)) == pytest.approx(0.75)


def test_substitute_z_eliminates_third_variable():
    x, y, z = variables(3)
    p = x * z + z * z
    q = p.substitute_z()
    assert q.arity == 2
    # x(1-x-y) + (1-x-y)^2 at (x, y) = (2, 3)
    assert as_poly(q).eval((2, 3)) == Fraction(2 * (1 - 2 - 3) + (1 - 2 - 3) ** 2)


def test_substitute_z_requires_arity_three():
    with pytest.raises(ValueError):
        QPoly.variable("x", 2).substitute_z()


def test_to_text_descending_graded_lex():
    p = Poly(
        {(3, 1): -32, (3, 0): 6, (2, 1): 50, (1, 2): 16, (2, 0): -9, (1, 1): -17, (1, 0): 3},
        2,
    )
    assert p.to_text() == "-32*x^3*y + 6*x^3 + 50*x^2*y + 16*x*y^2 - 9*x^2 - 17*x*y + 3*x"


def test_to_text_special_cases():
    assert Poly({}, 2).to_text() == "0"
    assert QPoly.constant(Fraction(1, 3), 2).to_text() == "1/3"
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
        p = QPoly.parse(text, 2)
        assert p.to_text() == text


def test_parse_round_trip_random(rng_polys):
    for p in rng_polys:
        assert QPoly.parse(p.to_text(), p.arity) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        QPoly.parse("2*w", 2)
    with pytest.raises(ValueError):
        QPoly.parse("x**2", 2)


def test_parse_merges_repeated_variables():
    assert QPoly.parse("x*x", 2) == QPoly({(2, 0): 1}, 2)


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
            polys.append(QPoly(terms, arity))
    return polys


_coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _sparse_polys(arity):
    exps = st.tuples(*[st.integers(0, 5)] * arity)
    return st.dictionaries(exps, _coeffs, max_size=8).map(lambda t: QPoly(t, arity))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.one_of(_sparse_polys(2), _sparse_polys(3)))
def test_parse_round_trip_hypothesis(p):
    assert QPoly.parse(p.to_text(), p.arity) == p


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=_sparse_polys(3))
def test_substitute_z_matches_the_product_expansion(p):
    """The trinomial expansion gives the terms, in the same order, of the
    sum over p's terms of c x^a y^b times (1 - x - y)^e built by products."""
    one_minus = QPoly({(0, 0): 1, (1, 0): -1, (0, 1): -1}, 2)
    expected = QPoly.zero(2)
    for (a, b, e), c in p.terms.items():
        expected = expected + QPoly({(a, b): c}, 2) * one_minus**e
    assert list(p.substitute_z().terms.items()) == list(expected.terms.items())


# ----------------------------------------------------------------------
# univariate algebra and elimination


def test_pseudo_rem_and_gcd():
    # 4 (x^2 + 1) = (2x - 1)(2x + 1) + 5
    assert pseudo_rem([1, 0, 1], [1, 2]) == [5]
    # (x - 1)(x + 2) and (x - 1)(x - 3), with and without content
    assert gcd([-2, 1, 1], [3, -4, 1]) == [-1, 1]
    assert gcd([-6, 3, 3], [Fraction(3, 2), -2, Fraction(1, 2)]) == [-1, 1]
    assert gcd([1, 1], [1, 2]) == [1]


def test_squarefree_part():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2 -> (x - 1)(x + 2)
    assert squarefree([2, -3, 0, 1]) == [-2, 1, 1]
    assert squarefree([0, 0, 0, 5]) == [0, 1]


def test_resultant_by_hand():
    x, y = variables(2)
    f, g = as_poly(y * y - x).in_y(), as_poly(y - x).in_y()
    # Res_y(y^2 - x, y - x) = f(y = x) = x^2 - x, and the degree-1
    # subresultant is y - x itself: its zero y = x is the common root over
    # every x where x^2 = x
    assert subresultants(f, g) == [[[0, -1, 1]], [[0, -1], [1]]]
    # with the rows of g first, (m - j)(n - j) = 2 and 0 row swaps
    assert subresultants(g, f) == [[[0, -1, 1]], [[0, -1], [1]]]


def test_subresultant_of_constants_and_rejected_inputs():
    # a constant f against g of degree n in y gives f^n; two constants
    # leave an empty Sylvester matrix, whose determinant is 1
    assert subresultants([[2]], [[1], [0, 1], [3]]) == [[[4]]]
    assert subresultants([[1]], [[3]]) == [[[1]]]
    # j runs up to min(m, n), but not to a j > 0 equal to both
    assert len(subresultants([[0, 1], [1]], [[1]])) == 1
    assert len(subresultants([[0, 1], [1]], [[1], [1]])) == 1
    assert len(subresultants([[0, 1], [1], [1]], [[1], [1]])) == 2
    for f, g in [([[1]], []), ([], [[0, 1], [1]]), ([], [])]:
        with pytest.raises(ValueError, match="no subresultants"):
            subresultants(f, g)


def _sylvester_minor(f, g, x, j=0, i=0):
    """s_i of the j-th subresultant of f and g in y at the rational x: the
    determinant of the rows y^(n-j-1) f, ..., f, y^(m-j-1) g, ..., g on the
    columns of y^(m+n-j-1) ... y^(j+1) and y^i, by Gaussian elimination in
    Fraction."""
    fd, gd = [value_at(c, x) for c in f], [value_at(c, x) for c in g]
    m, n = len(f) - 1, len(g) - 1
    powers = list(range(m + n - j - 1, j, -1)) + [i]
    shifted = [(fd, k) for k in range(n - j - 1, -1, -1)] + [(gd, k) for k in range(m - j - 1, -1, -1)]
    rows = [[c[p - k] if 0 <= p - k < len(c) else Fraction(0) for p in powers] for c, k in shifted]
    det = Fraction(1)
    for k in range(len(rows)):
        piv = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv], det = rows[piv], rows[k], -det
        det *= rows[k][k]
        for r in range(k + 1, len(rows)):
            ratio = rows[r][k] / rows[k][k]
            rows[r] = [a - ratio * b for a, b in zip(rows[r], rows[k])]
    return det


def _bivariate(max_x, max_y):
    exps = st.tuples(st.integers(0, max_x), st.integers(0, max_y))
    terms = st.dictionaries(exps, st.integers(-9, 9), min_size=1, max_size=7)
    return terms.map(lambda t: Poly(t, 2)).filter(lambda p: any(j for _i, j in p.terms))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(f=_bivariate(2, 3), g=_bivariate(2, 3))
def test_resultant_equals_fraction_sylvester_determinant(f, g):
    """Res_y has degree at most 12 in x here, so 13 points pin it down."""
    fy, gy = f.in_y(), g.in_y()
    res = subresultants(fy, gy)[0][0]
    for x in [Fraction(k, 3) for k in range(-6, 7)]:
        assert value_at(res, x) == _sylvester_minor(fy, gy, x)


@st.composite
def _elimination_pairs(draw):
    """f and g of degree 0 to 3 in y, plain, with a leading coefficient
    in y that vanishes at x = 1, with a common factor, or with a defective
    chain: f = g q + r, r at least two degrees below g, so that the
    subresultant PRS skips a degree."""
    x, y = variables(2)
    nonzero = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)), st.integers(-4, 4), min_size=1,
                              max_size=5).map(lambda t: QPoly(t, 2)).filter(bool)
    f, g = draw(nonzero), draw(nonzero)
    shape = draw(st.sampled_from(["plain", "vanishing lead", "common factor", "defective"]))
    if shape == "vanishing lead":
        f = f + (x - 1) * y ** (len(as_poly(f).in_y()))
    elif shape == "common factor":
        h = draw(nonzero.filter(lambda p: len(as_poly(p).in_y()) > 1))
        f, g = f * h, g * h
    elif shape == "defective":
        g = g + (x + 2) * y ** max(2, len(as_poly(g).in_y()))
        r = draw(nonzero.filter(lambda p: len(as_poly(p).in_y()) < len(as_poly(g).in_y()) - 1))
        f = g * draw(nonzero) + r
    return (as_poly(f), as_poly(g)) if draw(st.booleans()) else (as_poly(g), as_poly(f))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(pair=_elimination_pairs())
def test_subresultants_equal_fraction_sylvester_minors(pair):
    """Every coefficient of every subresultant, at x = -2 ... 2."""
    fy, gy = (p.in_y() for p in pair)
    m, n = len(fy) - 1, len(gy) - 1
    chain = subresultants(fy, gy)
    assert len(chain) == max(min(m, n) + (m != n), 1)
    for j, sj in enumerate(chain):
        assert len(sj) == j + 1
        for i, si in enumerate(sj):
            for x in range(-2, 3):
                assert value_at(si, x) == _sylvester_minor(fy, gy, Fraction(x), j, i), (j, i, x)


def test_real_roots_rational_exact_at_the_ends():
    # x (x - 1) (3x - 1)
    assert real_roots([0, 1, -4, 3]) == [0, Fraction(1, 3), 1]
    assert all(type(r) is Fraction for r in real_roots([0, 1, -4, 3]))
    # x^2 (x - 1)^3, whose square-free part is x (x - 1)
    assert real_roots(squarefree([0, 0, -1, 3, -3, 1])) == [0, 1]
    # -1 and 3/2 lie outside [0, 1]
    assert real_roots([-3, -1, 2]) == []
    # 1/2 + 1/(2 * 10^12) and 1/2 - 1/(2 * 10^12), 1e-12 apart
    e = 10**12
    p = [(e + 1) * (e - 1), -4 * e * e, 4 * e * e]
    assert real_roots(p) == [Fraction(e - 1, 2 * e), Fraction(e + 1, 2 * e)]


def test_real_roots_irrational_isolated_and_refined():
    # 2x^2 - 1: the root 1/sqrt(2) in an interval narrower than 2^-64
    ((lo, up),) = real_roots([-1, 0, 2])
    assert 2 * lo * lo < 1 < 2 * up * up
    assert up - lo <= Fraction(1, 2**64)
    # 10^24 (2x - 1)^2 - 2: roots 1/2 -+ 1/(sqrt(2) 10^12), 1.4e-12 apart
    e = 10**24
    p = [e - 2, -4 * e, 4 * e]
    (lo1, up1), (lo2, up2) = real_roots(p)
    assert up1 < lo2
    for lo, up in ((lo1, up1), (lo2, up2)):
        assert value_at(p, lo) * value_at(p, up) < 0
    assert abs(float((lo1 + up1) / 2) - (0.5 - 2**-0.5 * 1e-12)) < 1e-16
    assert abs(float((lo2 + up2) / 2) - (0.5 + 2**-0.5 * 1e-12)) < 1e-16


_roots_in = st.fractions(min_value=-1, max_value=2, max_denominator=40)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    rational=st.lists(_roots_in, max_size=5),
    squares=st.lists(st.integers(2, 60).filter(lambda n: math.isqrt(n) ** 2 != n), max_size=3),
    sign=st.sampled_from([1, -1]),
    probe=st.fractions(min_value=0, max_value=1, max_denominator=50),
)
def test_real_roots_of_products_of_known_factors(rational, squares, sign, probe):
    """Rational roots (repeats included) come back exactly, each root
    sqrt(n) / 8 as a narrow interval holding it, and sign_at(x - t)
    agrees with the float position of that root."""
    p = [sign]
    for r in rational:
        p = _mul(p, [-r.numerator, r.denominator])
    for n in squares:
        p = _mul(p, [-n, 0, 64])
    roots = real_roots(squarefree(p))
    assert [r for r in roots if isinstance(r, Fraction)] == sorted({r for r in rational if 0 <= r <= 1})
    irrational = sorted(math.sqrt(n) / 8 for n in set(squares))
    intervals = [r for r in roots if isinstance(r, tuple)]
    assert len(intervals) == len(irrational)
    for (lo, up), x in zip(intervals, irrational):
        assert lo < up and up - lo <= Fraction(1, 2**64)
        assert abs(float((lo + up) / 2) - x) < 1e-15
        expected = (x > probe) - (x < probe)
        assert sign_at(primitive([-probe, 1]), squarefree(p), (lo, up)) == expected


def _bisection_roots(p):
    """real_roots by Sturm isolation and bisection on signs alone, for
    every degree: the route before the closed form for a linear p and
    Newton refinement."""
    sturm = polyalg._remainders(p, [i * a for i, a in enumerate(p)][1:])
    bits = max(64, 2 * p[-1].bit_length())
    found = [Fraction(0)] if not p[0] else []
    stack = [(0, 0)]
    while stack:
        c, k = stack.pop()
        count = polyalg._variations(sturm, c, k) - polyalg._variations(sturm, c + 1, k)
        if count == 1 and not polyalg._dyadic(p, c + 1, k):
            found.append(Fraction(c + 1, 1 << k))
        elif count == 1 and (left := polyalg._dyadic(p, c, k)):
            mid = left
            while k < bits and mid:
                c, k = 2 * c, k + 1
                mid = polyalg._dyadic(p, c + 1, k)
                c += bool(mid) and (mid > 0) == (left > 0)
            lo, up = Fraction(c, 1 << k), Fraction(c + 1, 1 << k)
            guess = ((lo + up) / 2).limit_denominator(abs(p[-1]))
            found.append(up if not mid else guess if lo < guess < up and not value_at(p, guess) else (lo, up))
        elif count:
            stack += [(2 * c, k + 1), (2 * c + 1, k + 1)]
    return sorted(found, key=lambda r: r if isinstance(r, Fraction) else r[0])


_CLOSE = 2**41
_root_factors = st.one_of(
    # a rational root, in [0, 1] or not
    st.fractions(min_value=-1, max_value=2, max_denominator=60).map(lambda r: [-r.numerator, r.denominator]),
    # dyadic roots, 0 and 1 among them
    st.sampled_from([[0, 1], [-1, 1], [-1, 2], [-3, 4]]),
    st.tuples(st.integers(0, 2**12), st.integers(1, 12)).map(lambda t: [-t[0], 1 << t[1]]),
    # irrational roots sqrt(n) / m, and rational ones where n is a square
    st.tuples(st.integers(1, 300), st.integers(1, 40)).map(lambda t: [-t[0], 0, t[1] ** 2]),
    # 1/2 -+ 1 / (sqrt(2) 2^41) and a / 2^41, (a + 1) / 2^41: roots closer than 2^-40
    st.just([_CLOSE**2 - 2, -4 * _CLOSE**2, 4 * _CLOSE**2]),
    st.integers(0, _CLOSE - 1).map(lambda a: _mul([-a, _CLOSE], [-a - 1, _CLOSE])),
    # a leading coefficient above 2^32, so bits > 64
    st.tuples(st.integers(2**32, 2**40), st.integers(1, 2**31)).map(lambda t: [-t[1], 0, t[0]]),
    # anything else
    st.lists(st.integers(-40, 40), min_size=2, max_size=5).filter(lambda q: q[-1] != 0),
)


_E24 = 10**24
# Newton steps leave the bracket on (0, 1) from 1/2, and p' vanishes at 1/2
_LEAVES, _FLAT = [-6, -4, 6, 5], [-3, 12, -24, 16]
# from 1/2 Newton converges beside the cell of the root 13/70 of x (140x^2 - 96x + 13) in (1/8, 1/4)
_BESIDE = [0, 13, -96, 140]


def _product(factors, sign):
    p = [sign]
    for q in factors:
        p = _mul(p, q)
    return squarefree(p)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(factors=st.lists(_root_factors, min_size=1, max_size=5), sign=st.sampled_from([1, -1]))
@example(factors=[[-1, 0, 2]], sign=1)  # 1/sqrt(2)
@example(factors=[[0, 1, -4, 3]], sign=1)  # 0, 1/3, 1
@example(factors=[[_E24 - 2, -4 * _E24, 4 * _E24]], sign=1)  # two roots 1.4e-12 apart
@example(factors=[[-1, 2], [-2, 0, 9], [-5, 0, 16]], sign=1)  # 1/2, sqrt(2)/3, sqrt(5)/4
@example(factors=[[-(2**140) - 1, 0, 2**141]], sign=1)  # leading coefficient above 2^64
@example(factors=[_LEAVES], sign=1)
@example(factors=[_FLAT], sign=1)
@example(factors=[_BESIDE], sign=1)
def test_real_roots_equals_bisection(factors, sign):
    """On square-free integer polynomials of degree 1 to 12, the closed
    form and the bracketed Newton loop give bisection's answer exactly."""
    p = _product(factors, sign)
    assume(1 <= len(p) - 1 <= 12)
    assert real_roots(p) == _bisection_roots(p)


def _refinements(p):
    """real_roots(p), and for each _refine call it makes the points where
    p was evaluated at scale 2^bits and bits - k."""
    calls, refine, dyadic = [], polyalg._refine, polyalg._dyadic

    def counting(q, c, k, left, bits):
        points = []

        def at(r, x, scale):
            if r is q:
                points.append(x)
            return dyadic(r, x, scale)

        polyalg._dyadic = at
        try:
            return refine(q, c, k, left, bits)
        finally:
            polyalg._dyadic = dyadic
            calls.append((points, bits - k))

    polyalg._refine = counting
    try:
        roots = real_roots(p)
    finally:
        polyalg._refine = refine
    return roots, calls


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(factors=st.lists(_root_factors, min_size=1, max_size=5), sign=st.sampled_from([1, -1]))
@example(factors=[_LEAVES], sign=1)
@example(factors=[_FLAT], sign=1)
@example(factors=[_BESIDE], sign=1)
def test_refine_evaluates_at_most_twice_bits_minus_k_plus_one_points(factors, sign):
    """The bound in _refine's docstring: 2 (bits - k) + 1 points, none
    for k >= bits."""
    p = _product(factors, sign)
    assume(2 <= len(p) - 1 <= 12)
    for points, room in _refinements(p)[1]:
        assert len(points) <= (2 * room + 1 if room > 0 else 0)


def test_refine_exact_dyadic_root_a_step_out_of_the_bracket_and_a_cell_beside_newton():
    """The loop returns a dyadic root exactly; where a Newton step leaves
    the bracket it takes the midpoint and reaches bisection's answer; where
    Newton converges beside the root's cell, the probe finds the cell; and
    Newton steps that shrink slowly give way to midpoints."""
    # (4x - 1)(2x^2 - 1) has the one root 1/4 in (0, 1/2)
    p = _mul([-1, 4], [-1, 0, 2])
    assert polyalg._refine(p, 0, 1, polyalg._dyadic(p, 0, 1), 64) == Fraction(1, 4)
    # 5x^3 + 6x^2 - 4x - 6 has one root in (0, 1), near 0.955; from the
    # midpoint 1/2 the first step goes to 1.52, so 3/4 comes next
    sturm = polyalg._remainders(_LEAVES, [-4, 12, 15])
    assert polyalg._variations(sturm, 0, 0) - polyalg._variations(sturm, 1, 0) == 1
    roots, ((points, room),) = _refinements(_LEAVES)
    assert points[:2] == [1 << 63, 3 << 62] and room == 64
    ((lo, up),) = roots
    assert value_at(_LEAVES, lo) < 0 < value_at(_LEAVES, up) and up - lo == Fraction(1, 2**64)
    assert roots == _bisection_roots(_LEAVES)
    # p' vanishes at the first point, 1/2, so 3/4 comes next as well
    ((points, _),) = _refinements(_FLAT)[1]
    assert points[:2] == [1 << 63, 3 << 62]
    # Newton converges beside the cell of 13/70, and one probe finds it
    roots, ((points, room),) = _refinements(_BESIDE)
    assert room == 61 and len(points) == 6 and abs(points[-1] - points[-2]) == 1
    assert roots == [0, Fraction(13, 70), Fraction(1, 2)]
    # from 1/2 toward the root just below 1/8 of (2^36 + 1) x^12 - 1 each
    # Newton step is only 11/12 of the last; midpoints take over, and 14
    # points do what 23 unhalved Newton steps would
    ((points, room),) = _refinements([-1] + [0] * 11 + [2**36 + 1])[1]
    assert room == 74 and len(points) <= 14


def test_real_roots_of_a_linear_polynomial_in_closed_form(monkeypatch):
    """-p0 / p1 as a Fraction where it lies in [0, 1], with no Sturm sequence."""
    monkeypatch.setattr(polyalg, "_remainders", None)
    assert real_roots([1, 3]) == []  # -1/3
    assert real_roots([0, 5]) == [0]
    assert real_roots([-2, 7]) == [Fraction(2, 7)]
    assert real_roots([-4, 4]) == [1]
    assert real_roots([-5, 3]) == []  # 5/3
    assert real_roots([3, -4]) == [Fraction(3, 4)]  # negative leading coefficient
    assert real_roots([-1, -2]) == []  # -1/2
    assert all(type(r) is Fraction for p in ([0, 5], [-2, 7], [-4, 4], [3, -4]) for r in real_roots(p))


def test_sign_at_irrational_root():
    p = [-1, 0, 2]
    (root,) = real_roots(p)
    assert sign_at([-1, 2], p, root) == 1  # 2x - 1 > 0 at 1/sqrt(2)
    assert sign_at([2, -3], p, root) == -1  # 2 - 3x < 0 there
    assert sign_at([0, -1, 0, 2], p, root) == 0  # x (2x^2 - 1)
    # 99x - 70 vanishes 3.6e-5 below the root
    assert sign_at([-70, 99], p, root) == 1
    # 2^140 (2x^2 - 1) - 1 vanishes ~1e-43 above it, inside the interval
    assert sign_at([-(2**140) - 1, 0, 2**141], p, root) == -1
    # constants, and the zero polynomial
    assert (sign_at([5], p, root), sign_at([-3], p, root), sign_at([], p, root)) == (1, -1, 0)


def test_sign_at_with_a_zero_of_h_between_the_left_end_and_the_root():
    """h(lo) < 0, but h = x - mid vanishes at a dyadic mid inside the
    isolating interval, below the root 1/sqrt(2), so h > 0 there."""
    p = [-1, 0, 2]
    ((lo, up),) = real_roots(p)
    mid = lo + (up - lo) / 2
    while 2 * mid * mid > 1:
        mid = (lo + mid) / 2
    h = [-mid.numerator, mid.denominator]
    assert value_at(h, lo) < 0 and sign_at(h, p, (lo, up)) == 1


def test_sign_at_bound_takes_the_derivative_of_h():
    """h = (2^24 x)^3 - c^3 vanishes at c / 2^24, 0.95 of the way from lo
    to the root 1/sqrt(2) across the interval (lo, lo + 2^-16) holding it.
    |h(lo)| exceeds 2^-16 sum |h_i|, so a bound without the factors i of
    h' would take the sign of h(lo); the root's sign is +1."""
    p, k = [-1, 0, 2], 16
    c = math.isqrt(2**95)  # floor(2^48 / sqrt(2)), so c / 2^24 sits just below the root
    c >>= 24
    h = [-(c**3), 0, 0, 2**72]
    lo = Fraction(math.isqrt(2**(2 * k - 1)), 2**k)
    assert 2 * lo * lo < 1 < 2 * (lo + Fraction(1, 2**k)) ** 2
    assert lo < Fraction(c, 2**24) and 2 * c * c < 2**48
    assert abs(value_at(h, lo)) > sum(abs(a) for a in h) * Fraction(1, 2**k)
    assert sign_at(h, p, (lo, lo + Fraction(1, 2**k))) == 1


def test_scaled_at_xy_by_hand():
    x, y = variables(2)
    p = as_poly(3 * x**2 * y - 2 * y**3 + 5 * x - 7)
    rows = p.in_y()
    assert rows == [[-7, 5], [0, 0, 3], [], [-2]]
    for point in ((Fraction(1, 2), Fraction(-2, 3)), (2, 0), (Fraction(-9, 4), 5), (0, 0)):
        d, e = (Fraction(v).denominator for v in point)
        for top in (3, 5):
            assert scaled_at_xy(rows, *point, top) == p.eval(point) * (d * e) ** top
    # 6^3 (3/4 (-2/3) + 16/27 + 5/2 - 7) = 216 (-119/27)
    assert scaled_at_xy(rows, Fraction(1, 2), Fraction(-2, 3), 3) == -952
    assert scaled_at_xy(Poly({}, 2).in_y(), Fraction(1, 3), 2, 0) == 0
    assert scaled_at_xy(Poly({(0, 0): 4}, 2).in_y(), Fraction(1, 3), 2, 1) == 12


_line_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    p=_bivariate(3, 3),
    point=st.tuples(_line_rationals, _line_rationals),
    direction=st.tuples(_line_rationals, _line_rationals),
    t=_line_rationals,
)
def test_restrict_to_line_agrees_with_eval(p, point, direction, t):
    (x0, y0), (dx, dy) = point, direction
    assert value_at(restrict_to_line(p.in_y(), point, direction), t) == p.eval((x0 + dx * t, y0 + dy * t))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    q=_bivariate(2, 2),
    point=st.tuples(_line_rationals, _line_rationals),
    direction=st.tuples(_line_rationals, _line_rationals).filter(any),
)
def test_restrict_to_line_is_empty_on_a_factor_line(q, point, direction):
    """A multiple of the line's equation restricts to the empty list."""
    (x0, y0), (dx, dy) = point, direction
    x, y = variables(2)
    line = dy * (x - x0) - dx * (y - y0)
    p = line * q * math.lcm(*(c.denominator for c in line.terms.values()))
    assert restrict_to_line(as_poly(p).in_y(), point, direction) == []
    assert restrict_to_line(as_poly(p + 1).in_y(), point, direction) == [1]


def test_restrict_to_line_by_hand():
    x, y = variables(2)
    # x y - 1 on (1, 0) + t (-1, 1): (1 - t) t - 1
    assert restrict_to_line(as_poly(x * y - 1).in_y(), (1, 0), (-1, 1)) == [-1, 1, -1]
    # x (x + y - 1) vanishes on the hypotenuse and on x = 0
    rows = as_poly(x * (x + y - 1)).in_y()
    assert restrict_to_line(rows, (1, 0), (-1, 1)) == []
    assert restrict_to_line(rows, (0, 0), (0, 1)) == []
    assert restrict_to_line(rows, (0, Fraction(1, 2)), (1, 0)) == [0, Fraction(-1, 2), 1]
    assert restrict_to_line(Poly({}, 2).in_y(), (0, 0), (1, 0)) == []


def _shift_reference(poly, center) -> dict:
    """poly(center + w) by the binomial expansion in Fractions, term by term."""
    x0, y0 = center
    out: dict = {}
    for (i, j), c in poly.terms.items():
        for a in range(i + 1):
            ca = c * math.comb(i, a) * x0 ** (i - a)
            for b in range(j + 1):
                out[a, b] = out.get((a, b), 0) + ca * math.comb(j, b) * y0 ** (j - b)
    return out


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    p=st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-600, 600), max_size=8)
    .map(lambda t: Poly(t, 2)),
    center=st.tuples(_line_rationals, _line_rationals),
    w=st.tuples(_line_rationals, _line_rationals),
)
def test_taylor_shift_matches_the_fraction_expansion(p, center, w):
    """The integer expansion has the Fraction expansion's keys, in its order,
    and its values as Fractions; the shifted polynomial at w is p(center + w)."""
    shifted = taylor_shift(p, center)
    assert list(shifted.items()) == list(_shift_reference(p, center).items())
    assert all(type(c) is Fraction for c in shifted.values())
    value = sum(c * w[0] ** a * w[1] ** b for (a, b), c in shifted.items())
    assert value == p.eval((center[0] + w[0], center[1] + w[1]))
