"""Exact sparse polynomial arithmetic in the six fundamental characters z1..z6.

Coefficients are exact rationals, stored as Python ints whenever integral so
the common all-integer case never pays Fraction overhead.  Values are treated
as immutable once constructed; every operation returns a fresh polynomial.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence, Union

from .errors import BudgetExceededError
from .lattice import (DIGIT_LIMIT, RATIONAL, _check_dominant, conjugate, fundamental_weight,
                      read_digits, read_keyed)

Exponent = tuple[int, int, int, int, int, int]
Coef = Union[int, Fraction]

ZERO_EXP: Exponent = (0, 0, 0, 0, 0, 0)


def _norm(c: Coef) -> Coef:
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _check_coef(c: Coef) -> Coef:
    """c, normalized, if it is exactly an int or a Fraction: never a float, a
    bool or a str.  ValueError naming the value otherwise."""
    if type(c) not in RATIONAL:
        raise ValueError(f"coefficient must be int or Fraction: {c!r}")
    return _norm(c)


def _decimal(n: int) -> str:
    """str(n) for an int of any size.  Past the interpreter's own limit on
    int-to-str conversion (Python 3.11+), which guards reading, the limit is
    lifted for this one conversion only."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


def coef_to_str(c: Coef) -> str:
    """The exact decimal of a rational, p or p/q: the one writer of every
    number the engine prints, of any size on every Python version."""
    c = Fraction(c)
    num = _decimal(c.numerator)
    return num if c.denominator == 1 else f"{num}/{_decimal(c.denominator)}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def coef_from_str(s: str) -> Coef:
    """The rational written as s in the form coef_to_str writes: an optional
    minus sign and ASCII decimal digits, then optionally a slash and ASCII
    decimal digits.  Raises ValueError on any other text, on a number of
    more than DIGIT_LIMIT digits, on a zero denominator and on anything that
    is not a str."""
    if type(s) is not str or not _RATIONAL.fullmatch(s):
        raise ValueError(f"not a rational literal: {s!r}")
    num, _, den = s.partition("/")
    p, q = read_digits(num), read_digits(den or "1")
    if not q:
        raise ValueError(f"zero denominator in {s!r}")
    return _norm(Fraction(p, q))


def grlex_key(e: Exponent) -> tuple:
    # graded lexicographic, used descending for display and serialization
    return (-sum(e), tuple(-x for x in e))


class SparsePolynomial:
    """A polynomial over the rationals keyed by exponent 6-tuples.

    The constructor is the checked door for terms from outside: each
    exponent is read as lattice._check_dominant reads a weight and each
    coefficient must be an int or a Fraction.  Arithmetic builds its results
    through _wrap, unchecked."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Coef] | None = None):
        clean: dict[Exponent, Coef] = {}
        if terms:
            for e, c in terms.items():
                e, c = _check_dominant(e), _check_coef(c)
                if c:
                    clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls()

    @classmethod
    def constant(cls, c: Coef) -> "SparsePolynomial":
        return cls({ZERO_EXP: c})

    @classmethod
    def variable(cls, j: int) -> "SparsePolynomial":
        return cls({fundamental_weight(j): 1})

    @classmethod
    def monomial(cls, e: Sequence[int], c: Coef = 1) -> "SparsePolynomial":
        return cls({tuple(e): c})

    # -- ring structure ------------------------------------------------------
    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = _norm(out.get(e, 0) + c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _wrap(out)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + -other

    def __neg__(self) -> "SparsePolynomial":
        return _wrap({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        out: dict[Exponent, Coef] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                     e1[3] + e2[3], e1[4] + e2[4], e1[5] + e2[5])
                out[e] = get(e, 0) + c1 * c2
        return _wrap({e: _norm(c) for e, c in out.items() if c})

    def scaled(self, s: Coef) -> "SparsePolynomial":
        s = _check_coef(s)
        if not s:
            return SparsePolynomial()
        return _wrap({e: _norm(c * s) for e, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparsePolynomial) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure maps ------------------------------------------------------
    def conjugate_variables(self) -> "SparsePolynomial":
        """Swap variables 1<->6 and 3<->5 in every exponent: the diagram
        symmetry lattice.conjugate, which the operator commutes with."""
        return _wrap({conjugate(e): c for e, c in self.terms.items()})

    # -- presentation ----------------------------------------------------------
    def sorted_terms(self) -> list[tuple[Exponent, Coef]]:
        """Terms in descending graded-lex order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key)]

    def to_records(self) -> list[dict]:
        return [{"exp": list(e), "coef": coef_to_str(c)} for e, c in self.sorted_terms()]

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "SparsePolynomial":
        """The polynomial of to_records' records; ValueError on a bad or repeated term."""
        out = read_keyed(records, "exp", lambda rec: coef_from_str(rec["coef"]))
        return _wrap({e: c for e, c in out.items() if c})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"z{i + 1}^{p}" if p > 1 else f"z{i + 1}"
                            for i, p in enumerate(e) if p)
            mag = abs(Fraction(c))
            if not mono:
                body = coef_to_str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{coef_to_str(mag)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SparsePolynomial({self})"


def _wrap(terms: dict) -> SparsePolynomial:
    p = SparsePolynomial.__new__(SparsePolynomial)
    p.terms = terms
    return p


# ---------------------------------------------------------------------------
# Expression parser for the command line:  integers, rationals p/q, z1..z6,
# + - * ^ and parentheses.
# ---------------------------------------------------------------------------
_TOKEN = re.compile(r"\s*(?:([0-9]+(?:/[0-9]+)?)|(z[1-6])|([()+\-*^]))")

# The most terms a sum may collect, and the most term products a product or
# a power may multiply out.  At the limit, `delta` on the 10,000 distinct terms
# of (z1^0 + ... + z1^99)*(z4^0 + ... + z4^99) took 4.9 s and 157 MB on a
# 2-core Intel Xeon VM.
TERM_LIMIT = 10_000
# The most term products and power steps one whole expression may charge: a
# sum of 10,000 powers z1^i, each within TERM_LIMIT, would otherwise take
# time quadratic in its length.
EXPRESSION_LIMIT = 10 * TERM_LIMIT


class PolynomialSyntaxError(ValueError):
    pass


def _literal(tok: str) -> Coef:
    """tok as coef_from_str reads it; its failure, a zero denominator or more
    than DIGIT_LIMIT digits, is a syntax error."""
    try:
        return coef_from_str(tok)
    except ValueError as exc:
        raise PolynomialSyntaxError(str(exc)) from None


def _digits(n: int) -> int:
    return len(coef_to_str(abs(n)))


def _check_budget(what: str, bound: int, unit: str) -> None:
    """BudgetExceededError when bound is over TERM_LIMIT.  The bound is named
    in full up to TERM_LIMIT ** 2, the most a product of two sums within the
    limit can need, and past it by its digit count, so the message stays one
    short line."""
    if bound > TERM_LIMIT:
        count = bound if bound <= TERM_LIMIT ** 2 else f"a {_digits(bound)}-digit number of"
        raise BudgetExceededError(f"{what} needs {count} {unit}, over the limit of {TERM_LIMIT}")


def _check_size(what: str, p: SparsePolynomial, bound: int) -> SparsePolynomial:
    """p, unless a numerator or a denominator of its coefficients has reached
    bound, 10 ** DIGIT_LIMIT: then BudgetExceededError naming its digit count."""
    for c in p.terms.values():
        for n in (c.numerator, c.denominator):
            if abs(n) >= bound:
                raise BudgetExceededError(f"{what} builds a number of {_digits(n)} digits, "
                                          f"over the limit of {DIGIT_LIMIT}")
    return p


def parse_polynomial(text: str) -> SparsePolynomial:
    """Parse a polynomial expression such as 'z1^2 - 2*z3 + 1/3'.

    PolynomialSyntaxError on malformed text; BudgetExceededError, before any
    work, on a sum, product or power over TERM_LIMIT, or on a product or a
    power that brings the term products of the whole expression (for a power
    of zero, its steps) over EXPRESSION_LIMIT, and, after a sum, a product or
    a step of a power, on a number built of more than DIGIT_LIMIT digits, so
    that no step multiplies numbers over the limit read by _literal."""
    bound = 10 ** DIGIT_LIMIT
    spent = 0
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolynomialSyntaxError(f"unexpected input at {text[pos:]!r}")
            break
        tokens.append(m.group(0).strip())
        pos = m.end()
    tokens.append("")  # the end of input, the last token popped
    tokens.reverse()

    def charge(work: int) -> None:
        nonlocal spent
        spent += work
        if spent > EXPRESSION_LIMIT:
            raise BudgetExceededError(f"the expression needs {spent} term products and "
                                      f"power steps, over the limit of {EXPRESSION_LIMIT}")

    def parse_sum() -> SparsePolynomial:
        acc = SparsePolynomial()
        while True:
            sign = 1
            while tokens[-1] in ("+", "-"):
                if tokens.pop() == "-":
                    sign = -sign
            term = parse_product().scaled(sign)
            _check_budget("a sum", len(acc.terms) + len(term.terms), "terms")
            acc = acc + term
            if tokens[-1] not in ("+", "-"):
                return _check_size("a sum", acc, bound)

    def parse_product() -> SparsePolynomial:
        acc = parse_power()
        while tokens[-1] == "*":
            tokens.pop()
            factor = parse_power()
            _check_budget("a product", len(acc.terms) * len(factor.terms), "term products")
            charge(len(acc.terms) * len(factor.terms))
            acc = _check_size("a product", acc * factor, bound)
        return acc

    def parse_power() -> SparsePolynomial:
        base = parse_atom()
        if tokens[-1] != "^":
            return base
        tokens.pop()
        n = tokens.pop()
        if not n.isdigit():
            raise PolynomialSyntaxError("exponent must be a non-negative integer")
        n, t = _literal(n), len(base.terms)
        _check_budget("a power", n, "multiplications")  # first, so comb() stays small
        # step i multiplies at most C(i + t - 1, t - 1) terms by t: n * C(n + t - 1, t - 1) in all
        work = n  # the steps of a power of zero terms, which multiply no term
        if t:
            work = n * comb(n + t - 1, t - 1)
            _check_budget(f"a power ^{n} of {t} terms", work, "term products")
        charge(work)
        out, what = SparsePolynomial.constant(1), f"a power ^{n}"
        for _ in range(n):
            out = _check_size(what, out * base, bound)
        return out

    def parse_atom() -> SparsePolynomial:
        tok = tokens.pop()
        if tok == "(":
            inner = parse_sum()
            if tokens.pop() != ")":
                raise PolynomialSyntaxError("unbalanced parenthesis")
            return inner
        if tok.startswith("z"):
            return SparsePolynomial.variable(int(tok[1]))
        if tok[:1].isdigit():
            return SparsePolynomial.constant(_literal(tok))
        if not tok:
            raise PolynomialSyntaxError("unexpected end of input")
        raise PolynomialSyntaxError(f"unexpected token {tok!r}")

    try:
        result = parse_sum()
    except RecursionError:
        raise PolynomialSyntaxError("parentheses nest too deeply") from None
    if tokens[-1]:
        raise PolynomialSyntaxError(f"trailing input near {tokens[-1]!r}")
    return result
