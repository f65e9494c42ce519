import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from e6cs.errors import BudgetExceededError
from e6cs.hamiltonian import apply_delta
from e6cs.lattice import fundamental_weight
from e6cs.ring import (EXPRESSION_LIMIT, TERM_LIMIT, PolynomialSyntaxError, SparsePolynomial,
                       coef_from_str, coef_to_str, parse_polynomial)

exponents = st.tuples(*([st.integers(0, 3)] * 6))
coefficients = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
polynomials = st.dictionaries(exponents, coefficients, max_size=5).map(SparsePolynomial)


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


def test_a_variable_index_is_a_fundamental_weight_index():
    for j in range(1, 7):
        assert z(j) == SparsePolynomial.monomial(fundamental_weight(j))
    # a range test alone would pass 1.5, whose monomial is the constant 1
    for j in (0, 7, 1.5, True, -1):
        with pytest.raises(ValueError, match="index must be an int from 1 to 6"):
            SparsePolynomial.variable(j)


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


def test_coef_from_str_bounds_the_digits_it_reads():
    # lattice.DIGIT_LIMIT counts the digits, not the sign
    assert coef_from_str("-" + "9" * 1000) == 1 - 10 ** 1000
    with pytest.raises(ValueError, match="^a number of 1001 digits, over the limit of 1000$"):
        coef_from_str("-" + "9" * 1001)


def test_coef_to_str_writes_a_number_of_any_size():
    # past the int-to-str limit of Python 3.11+, which stays in force for reading
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    n = 10 ** 5000 + 1
    assert coef_to_str(Fraction(-n, 7)) == "-1" + "0" * 4999 + "1/7"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with pytest.raises(ValueError, match="^a number of 5001 digits, over the limit of 1000$"):
        coef_from_str(coef_to_str(n))


def test_parser_rejects_bad_input():
    for bad in ["z7", "z1 +", "2 z1", "z1^", "(z1", "z1^-2", "q", "\u0663*z1", "z1^\u0662",
                "(" * 3000 + "z1" + ")" * 3000]:
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(bad)
    assert parse_polynomial("(" * 50 + "z1" + ")" * 50) == z(1)


@pytest.mark.parametrize("text, message", [
    ("z1 + q", "unexpected input at ' q'"),
    ("*z1", "unexpected token '*'"),
    (")", "unexpected token ')'"),
    ("z1^-2", "exponent must be a non-negative integer"),
    ("z1^1/3", "exponent must be a non-negative integer"),
    ("z1^", "exponent must be a non-negative integer"),
    ("(z1 + z2", "unbalanced parenthesis"),
    ("z1 +", "unexpected end of input"),
    ("", "unexpected end of input"),
    ("+", "unexpected end of input"),
    ("2 z1", "trailing input near 'z1'"),
    ("1/3*(z1 - z2) z3", "trailing input near 'z3'"),
    ("z1 + 1/0", "zero denominator in '1/0'"),
    # past lattice.DIGIT_LIMIT, refused before int() and its own limit on 3.11+
    ("1" + "9" * 5000, "a number of 5001 digits, over the limit of 1000"),
    ("z1^" + "9" * 5000, "a number of 5000 digits, over the limit of 1000"),
    ("1/" + "0" * 1001, "a number of 1001 digits, over the limit of 1000"),
    ("(" * 3000 + "z1" + ")" * 3000, "parentheses nest too deeply"),
])
def test_parser_error_messages_are_pinned(text, message):
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text)
    assert str(err.value) == message


def test_parser_rational_and_parentheses():
    assert parse_polynomial("1/3*(z1 - z2)^2") == \
        parse_polynomial("1/3*z1^2 - 2/3*z1*z2 + 1/3*z2^2")
    # whitespace after the last token ends the input
    assert parse_polynomial("z1 ") == parse_polynomial(" ( z1 )\t\n") == z(1)


@pytest.mark.parametrize("build, fault", [
    # once rendered z1^1.5*z2, the -1 as a first power
    (lambda: SparsePolynomial.monomial((1.5, -1, 0)), "not a vector of six labels: (1.5, -1, 0)"),
    # once z1^-1, whose image printed as -88/3*z1 - 8*z1*z3 - 40*z1*z6
    (lambda: apply_delta(SparsePolynomial.monomial((-1, 0, 0, 0, 0, 0))),
     "not a dominant weight: (-1, 0, 0, 0, 0, 0)"),
    # once the float 4878899596318037/281474976710656*z1
    (lambda: apply_delta(SparsePolynomial({(1, 0, 0, 0, 0, 0): 0.5})),
     "coefficient must be int or Fraction: 0.5"),
    (lambda: SparsePolynomial({(1, 0, 0, 0, 0, 0): 0.0}),
     "coefficient must be int or Fraction: 0.0"),
    (lambda: SparsePolynomial.constant(True), "coefficient must be int or Fraction: True"),
    (lambda: SparsePolynomial.monomial((0, 0, 0, 0, 0, 0), "1"),
     "coefficient must be int or Fraction: '1'"),
    (lambda: SparsePolynomial.variable(1).scaled(0.5), "coefficient must be int or Fraction: 0.5"),
    # a repeated exponent, once summed; a zero coefficient is dropped, its exponent still read
    (lambda: SparsePolynomial.from_records([{"exp": [1, 1, 0, 0, 0, 1], "coef": "-8"},
                                            {"exp": [0, 0, 0, 0, 0, 0], "coef": "1"},
                                            {"exp": [1, 1, 0, 0, 0, 1], "coef": "-8"}]),
     "repeated exp (1, 1, 0, 0, 0, 1)"),
    (lambda: SparsePolynomial.from_records([{"exp": [1, 0, 0, 0, 0, 0], "coef": "0"},
                                            {"exp": [1, 0, 0, 0, 0, 0], "coef": "2"}]),
     "repeated exp (1, 0, 0, 0, 0, 0)"),
])
def test_terms_from_outside_are_checked(build, fault):
    with pytest.raises(ValueError, match=re.escape(fault)):
        build()


def _line(j, count):
    """z_j^0 + z_j^1 + ... with count terms."""
    return "(" + " + ".join(f"z{j}^{i}" for i in range(count)) + ")"


@pytest.mark.parametrize("text, size", [
    # TERM_LIMIT is 100 * 100
    (f"{_line(1, 100)}*{_line(4, 101)}", "a product needs 10100 term products"),
    (f"{_line(1, 100)}*{_line(4, 100)} + z2", "a sum needs 10001 terms"),
    (f"z1^{TERM_LIMIT + 1}", f"a power needs {TERM_LIMIT + 1} multiplications"),
    (f"0^{TERM_LIMIT + 1}", f"a power needs {TERM_LIMIT + 1} multiplications"),
    # an exponent the reader accepts, named by its digit count
    pytest.param("z1^" + "9" * 1000, "a power needs a 1000-digit number of multiplications",
                 id="z1^<1000 digits>"),
    # n * C(n + 1, 1) = 100 * 101: the 100 steps multiply 1, 2, ..., 100 terms by 2
    ("(z1 + z2)^100", "a power ^100 of 2 terms needs 10100 term products"),
    ("(z1 + z2 + z3 + z4 + z5 + z6)^8", "a power ^8 of 6 terms needs 10296 term products"),
    ("(z1 + z2 + z3 + z4 + z5 + z6)^10", "a power ^10 of 6 terms needs 30030 term products"),
    # each z1^i is within TERM_LIMIT, but the sum's powers charge 0 + 1 + ... + 447
    # = 100128 term products to the whole expression, which stops long before
    # its 10,000 terms would take time quadratic in their count
    pytest.param("(" + " + ".join(f"z1^{i}" for i in range(10_000)) + ")^10000",
                 "the expression needs 100128 term products and power steps",
                 id="(z1^0 + ... + z1^9999)^10000"),
])
def test_expression_work_is_bounded_before_it_is_done(text, size):
    assert TERM_LIMIT == 10_000 and EXPRESSION_LIMIT == 10 * TERM_LIMIT
    # one operation is held to TERM_LIMIT, the whole expression to EXPRESSION_LIMIT
    limit = EXPRESSION_LIMIT if size.startswith("the expression") else TERM_LIMIT
    with pytest.raises(BudgetExceededError,
                       match=re.escape(f"{size}, over the limit of {limit}") + "$"):
        parse_polynomial(text)


def test_numbers_up_to_the_digit_limit_are_built():
    assert parse_polynomial("9^1000") == SparsePolynomial.constant(9 ** 1000)
    assert len(str(9 ** 1000)) == 955
    assert len(parse_polynomial("(z1 + z2 + z3 + z4 + z5 + z6)^7").terms) == 792
    assert parse_polynomial("1/" + "9" * 500 + "*1/" + "9" * 500).terms == \
        {(0,) * 6: Fraction(1, (10 ** 500 - 1) ** 2)}


def test_expression_work_up_to_the_limit_is_done():
    assert len(parse_polynomial(f"{_line(1, 100)}*{_line(4, 100)}").terms) == TERM_LIMIT
    assert parse_polynomial(f"z1^{TERM_LIMIT}").terms == {(TERM_LIMIT, 0, 0, 0, 0, 0): 1}
    assert len(parse_polynomial("(z1 + z2)^99").terms) == 100
    # a power of zero multiplies no term: 0^0 is 1, 0^n is 0
    one = SparsePolynomial.constant(1)
    assert parse_polynomial("0^0") == parse_polynomial("(z1 - z1)^0") == one
    assert parse_polynomial(f"0^{TERM_LIMIT}") == SparsePolynomial.zero()
