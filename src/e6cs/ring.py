"""Exact sparse polynomial arithmetic in the six fundamental characters z1..z6.

Coefficients are exact rationals, stored as Python ints whenever integral so
the common all-integer case never pays Fraction overhead.  Values are treated
as immutable once constructed; every operation returns a fresh polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .lattice import _check_dominant, conjugate, fundamental_weight

Exponent = tuple[int, int, int, int, int, int]
Coef = Union[int, Fraction]

ZERO_EXP: Exponent = (0, 0, 0, 0, 0, 0)


def _norm(c: Coef) -> Coef:
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def coef_to_str(c: Coef) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def coef_from_str(s: str) -> Coef:
    """The rational written as s in the form coef_to_str writes: an optional
    minus sign and ASCII decimal digits, then optionally a slash and ASCII
    decimal digits.  Raises ValueError on any other text, on a zero
    denominator and on anything that is not a str."""
    if type(s) is not str or not _RATIONAL.fullmatch(s):
        raise ValueError(f"not a rational literal: {s!r}")
    num, _, den = s.partition("/")
    if den and not int(den):
        raise ValueError(f"zero denominator in {s!r}")
    return _norm(Fraction(int(num), int(den or 1)))


def grlex_key(e: Exponent) -> tuple:
    # graded lexicographic, used descending for display and serialization
    return (-sum(e), tuple(-x for x in e))


class SparsePolynomial:
    """A polynomial over the rationals keyed by exponent 6-tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Coef] | None = None):
        clean: dict[Exponent, Coef] = {}
        if terms:
            for e, c in terms.items():
                c = _norm(c)
                if c:
                    clean[tuple(e)] = c
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
        s = _norm(s)
        if not s:
            return SparsePolynomial()
        return _wrap({e: _norm(c * s) for e, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SparsePolynomial) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus and structure maps -----------------------------------------
    def partial_derivative(self, j: int) -> "SparsePolynomial":
        """Formal derivative with respect to z_j, 1-based."""
        i = fundamental_weight(j).index(1)
        out: dict[Exponent, Coef] = {}
        for e, c in self.terms.items():
            if e[i]:
                de = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[de] = _norm(out.get(de, 0) + c * e[i])
        return _wrap({e: c for e, c in out.items() if c})

    def evaluate(self, point: Sequence[Coef]) -> Coef:
        total: Coef = 0
        for e, c in self.terms.items():
            t = c
            for base, p in zip(point, e):
                if p:
                    t *= base ** p
            total += t
        return _norm(total)

    def coefficient_of(self, e: Sequence[int]) -> Coef:
        return self.terms.get(tuple(e), 0)

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
    def from_records(cls, records: Iterable[Mapping]) -> "SparsePolynomial":
        out: dict[Exponent, Coef] = {}
        for rec in records:
            e = _check_dominant(rec["exp"])
            out[e] = _norm(out.get(e, 0) + coef_from_str(rec["coef"]))
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


class PolynomialSyntaxError(ValueError):
    pass


def parse_polynomial(text: str) -> SparsePolynomial:
    """Parse a polynomial expression such as 'z1^2 - 2*z3 + 1/3'."""
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
    tokens.append("")  # sentinel

    idx = 0

    def peek() -> str:
        return tokens[idx]

    def take() -> str:
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_sum() -> SparsePolynomial:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        acc = parse_product().scaled(sign)
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            acc = acc + parse_product().scaled(sign)
        return acc

    def parse_product() -> SparsePolynomial:
        acc = parse_power()
        while peek() == "*":
            take()
            acc = acc * parse_power()
        return acc

    def parse_power() -> SparsePolynomial:
        base = parse_atom()
        if peek() == "^":
            take()
            n = take()
            if not n.isdigit():
                raise PolynomialSyntaxError("exponent must be a non-negative integer")
            out = SparsePolynomial.constant(1)
            for _ in range(int(n)):
                out = out * base
            return out
        return base

    def parse_atom() -> SparsePolynomial:
        tok = take()
        if tok == "(":
            inner = parse_sum()
            if take() != ")":
                raise PolynomialSyntaxError("unbalanced parenthesis")
            return inner
        if tok.startswith("z"):
            return SparsePolynomial.variable(int(tok[1]))
        if tok and (tok[0].isdigit()):
            try:
                return SparsePolynomial.constant(coef_from_str(tok))
            except ValueError as exc:  # a zero denominator, or more digits than int() reads
                raise PolynomialSyntaxError(str(exc)) from None
        raise PolynomialSyntaxError(f"unexpected token {tok!r}")

    try:
        result = parse_sum()
    except RecursionError:
        raise PolynomialSyntaxError("parentheses nest too deeply") from None
    if peek() != "":
        raise PolynomialSyntaxError(f"trailing input near {peek()!r}")
    return result
