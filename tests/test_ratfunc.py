import pytest
from hypothesis import given, strategies as st

from mealy.ratfunc import Poly, RationalSeries, solve_linear


def test_poly_arithmetic_mod2():
    a = Poly([1, 1], 2)  # 1 + t
    assert (a * a).c == (1, 0, 1)  # 1 + t^2 over F_2
    assert (a - a).is_zero()


def test_poly_divmod():
    num = Poly([1, 0, 1], 2)
    q, r = num.divmod(Poly([1, 1], 2))
    assert q * Poly([1, 1], 2) + r == num


def test_series_geometric_coefficients():
    s = RationalSeries(Poly([1], 2), Poly([1, 1], 2))  # 1/(1-t) over F_2
    assert s.coefficients(6) == [1, 1, 1, 1, 1, 1]
    # t/(1-t) over F_3, where -1 = 2
    assert RationalSeries(Poly([0, 1], 3), Poly([1, 2], 3)).coefficients(5) == [0, 1, 1, 1, 1]


def test_series_requires_unit_constant_denominator():
    with pytest.raises(ValueError):
        RationalSeries(Poly([1], 2), Poly([0, 1], 2))  # 1/t is not a power series


def test_series_reduces_to_lowest_terms():
    # (1+t)/(1+t)^2 == 1/(1+t)
    s = RationalSeries(Poly([1, 1], 3), Poly([1, 1], 3) * Poly([1, 1], 3))
    assert s == RationalSeries(Poly([1], 3), Poly([1, 1], 3))


coef = st.integers(min_value=0, max_value=2)
polys = st.lists(coef, min_size=1, max_size=4).map(lambda c: Poly(c, 3))
series = st.tuples(polys, polys).filter(lambda nd: nd[1].c and nd[1].c[0] % 3 != 0).map(
    lambda nd: RationalSeries(nd[0], nd[1])
)


@given(series, series)
def test_product_coefficients_are_convolutions(f, g):
    n = 12
    cf, cg, cp = f.coefficients(n), g.coefficients(n), (f * g).coefficients(n)
    for k in range(n):
        assert cp[k] == sum(cf[i] * cg[k - i] for i in range(k + 1)) % 3


@given(series, series)
def test_add_matches_coefficientwise_sum(f, g):
    cf, cg, cs = f.coefficients(8), g.coefficients(8), (f + g).coefficients(8)
    assert cs == [(x + y) % 3 for x, y in zip(cf, cg)]


@given(series)
def test_division_inverts_multiplication(f):
    g = RationalSeries(Poly([1, 2], 3), Poly([1, 1, 1], 3))
    assert (f * g) / g == f


def test_solve_linear_known_system():
    # x + t*y = 1, y = t  ->  x = 1 - t^2
    one = RationalSeries(Poly([1], 2), Poly([1], 2))
    t = RationalSeries(Poly([0, 1], 2), Poly([1], 2))
    zero = RationalSeries(Poly([0], 2), Poly([1], 2))
    sol = solve_linear([[one, t], [zero, one]], [one, t])
    assert sol[0] == one - t * t
    assert sol[1] == t


def test_solve_linear_rejects_singular():
    one = RationalSeries(Poly([1], 2), Poly([1], 2))
    with pytest.raises(ValueError, match="singular"):
        solve_linear([[one, one], [one, one]], [one, one])


def test_solve_linear_matches_equation():
    p = 3
    t = RationalSeries(Poly([0, 1], p), Poly([1], p))
    one = RationalSeries.const(1, p)
    A = [[one + t, t], [t * t, one]]
    b = [one, t + one]
    x = solve_linear(A, b)
    for i in range(2):
        lhs = A[i][0] * x[0] + A[i][1] * x[1]
        assert lhs == b[i]
