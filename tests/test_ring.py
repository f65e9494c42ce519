from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from e6cs.lattice import fundamental_weight
from e6cs.ring import (PolynomialSyntaxError, SparsePolynomial, coef_from_str, coef_to_str,
                       parse_polynomial)

DIMS = (27, 78, 351, 2925, 351, 27)

exponents = st.tuples(*([st.integers(0, 3)] * 6))
coefficients = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
polynomials = st.dictionaries(exponents, coefficients, max_size=5).map(SparsePolynomial)
points = st.tuples(*([st.integers(-3, 3)] * 6))


def z(j):
    return SparsePolynomial.variable(j)


def test_product_difference_of_squares():
    one = SparsePolynomial.constant(1)
    assert (z(1) + one) * (z(1) - one) == parse_polynomial("z1^2 - 1")


def test_multiply_by_zero():
    p = parse_polynomial("z1*z2 - 3*z4")
    assert p * SparsePolynomial.zero() == SparsePolynomial.zero()
    assert not (p * SparsePolynomial.zero())


def test_product_term_count_without_cancellation():
    p = parse_polynomial("z1^2 - z3 - z6")
    q = parse_polynomial("z6^2 - z5 - z1")
    assert len((p * q).terms) == 9


def test_partial_derivative_examples():
    assert parse_polynomial("z1^3").partial_derivative(1) == parse_polynomial("3*z1^2")
    assert parse_polynomial("z1").partial_derivative(2) == SparsePolynomial.zero()
    assert parse_polynomial("z4^2*z6 - z4").partial_derivative(4) == parse_polynomial("2*z4*z6 - 1")


def test_a_variable_index_is_a_fundamental_weight_index():
    p = parse_polynomial("z1^2*z6 + z3")
    for j in range(1, 7):
        assert z(j) == SparsePolynomial.monomial(fundamental_weight(j))
    # a range test alone would pass 1.5, whose monomial is the constant 1
    for j in (0, 7, 1.5, True, -1):
        with pytest.raises(ValueError, match="index must be an int from 1 to 6"):
            SparsePolynomial.variable(j)
        with pytest.raises(ValueError, match="index must be an int from 1 to 6"):
            p.partial_derivative(j)


def test_evaluate_examples():
    assert parse_polynomial("z1^2 - z3 - z6").evaluate(DIMS) == 351
    assert SparsePolynomial.constant(5).evaluate((1, 2, 3, 4, 5, 6)) == 5
    assert parse_polynomial("z1*z6 - z2 - 1").evaluate(DIMS) == 650


def test_coefficient_of():
    p = parse_polynomial("z1^2 - z3 - z6")
    assert p.coefficient_of((0, 0, 1, 0, 0, 0)) == -1
    assert SparsePolynomial.zero().coefficient_of((1, 0, 0, 0, 0, 0)) == 0
    chi3 = parse_polynomial("z1^3 + z2 - 2*z1*z3 + z4 - z1*z6")
    assert chi3.coefficient_of((1, 0, 1, 0, 0, 0)) == -2


def test_conjugate_variables():
    p = parse_polynomial("z1^2 - z3 - z6")
    assert p.conjugate_variables() == parse_polynomial("z6^2 - z5 - z1")
    q = parse_polynomial("z2*z4")
    assert q.conjugate_variables() == q


@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polynomials)
def test_additive_inverse(p):
    assert p - p == SparsePolynomial.zero()
    assert p + (-p) == SparsePolynomial.zero()


@given(polynomials, st.integers(1, 6), st.integers(1, 6))
def test_derivatives_commute(p, j, k):
    assert p.partial_derivative(j).partial_derivative(k) == \
        p.partial_derivative(k).partial_derivative(j)


@given(polynomials, polynomials, points)
def test_evaluate_is_ring_homomorphism(p, q, pt):
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


@given(polynomials, polynomials)
def test_conjugation_is_ring_homomorphism(p, q):
    assert (p * q).conjugate_variables() == p.conjugate_variables() * q.conjugate_variables()
    assert p.conjugate_variables().conjugate_variables() == p


@given(polynomials)
def test_serialization_round_trip(p):
    assert SparsePolynomial.from_records(p.to_records()) == p


@given(polynomials)
def test_str_parses_back(p):
    assert parse_polynomial(str(p)) == p


def test_no_zero_coefficients_stored():
    p = SparsePolynomial({(1, 0, 0, 0, 0, 0): Fraction(2, 2), (0, 1, 0, 0, 0, 0): 0})
    assert p.terms == {(1, 0, 0, 0, 0, 0): 1}
    assert isinstance(p.terms[(1, 0, 0, 0, 0, 0)], int)


def test_graded_lex_display_order():
    assert str(parse_polynomial("1 + z4 - z1*z6 + z1*z3")) == "z1*z3 - z1*z6 + z4 + 1"


def test_coef_to_str():
    assert coef_to_str(5) == "5"
    assert coef_to_str(Fraction(8, 3)) == "8/3"
    assert coef_to_str(Fraction(-4, 2)) == "-2"


@given(coefficients)
def test_coef_from_str_reads_what_coef_to_str_writes(c):
    text = coef_to_str(c)
    assert coef_from_str(text) == c
    assert type(coef_from_str(text)) is (int if Fraction(c).denominator == 1 else Fraction)


def test_coef_from_str_reads_only_the_written_form():
    assert coef_from_str("-4/6") == Fraction(-2, 3) and coef_from_str("6/3") == 2
    # forms Fraction() reads, and a zero denominator
    for bad in ["1_0", " 1", "1 ", "+1", "\u0661", "1e2", "1.5", "-", "1/", "/2", "1/-2",
                "1/0", "", 1, Fraction(1, 2)]:
        with pytest.raises(ValueError):
            coef_from_str(bad)


def test_parser_rejects_bad_input():
    for bad in ["z7", "z1 +", "2 z1", "z1^", "(z1", "z1^-2", "q", "\u0663*z1", "z1^\u0662",
                "(" * 3000 + "z1" + ")" * 3000]:
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(bad)
    assert parse_polynomial("(" * 50 + "z1" + ")" * 50) == z(1)


def test_parser_rational_and_parentheses():
    assert parse_polynomial("1/3*(z1 - z2)^2").evaluate((4, 1, 0, 0, 0, 0)) == 3
