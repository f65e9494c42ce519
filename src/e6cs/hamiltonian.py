"""The kappa=1 Calogero-Sutherland operator in character variables.

The operator acts on polynomials in z1..z6 as

    Delta p = sum_{j,k} A[j,k] d_j d_k p + sum_j B[j] d_j p

where the full double sum runs over ordered pairs and the stored coefficient
table gives the common value of each symmetric pair A[j,k] = A[k,j].  Every
coefficient has denominator dividing 3, so the hot kernel works with the
integer-valued operator 3*Delta and divides once at the surface.

The table data ships as a JSON resource; loading re-derives nothing but
checks the two cheap structural invariants (first-order coefficients are
eigenvalue multiples of z_j, and every induced monomial shift lies in the
root lattice), which would catch any corruption of the data file.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Sequence, Union

from . import lattice
from .errors import InternalInconsistencyError, NonIntegralError
from .ring import Coef, Exponent, SparsePolynomial, _norm

Rational = Union[int, Fraction]


def eigenvalue(m: Sequence[int], kappa: Rational = 1) -> Rational:
    """Spectrum of the operator on the character labelled by m, exact.

    Equals 2(l, l + 2*kappa*rho) for the weight l with Dynkin labels m.
    """
    return _norm(Fraction(2 * _quad3(m) + 4 * kappa * _lin3(m), 3))


def eigenvalue_x3(m: Sequence[int]) -> int:
    """3 * eigenvalue(m, 1) as a plain int, for the integer kernel."""
    m = tuple(m)
    eps3 = _EPS3.get(m)
    if eps3 is None:
        eps3 = _EPS3[m] = 2 * _quad3(m) + 4 * _lin3(m)
    return eps3


def _quad3(m: Sequence[int]) -> int:
    inv3 = lattice.CARTAN_INVERSE_X3
    total = 0
    for j in range(6):
        mj = m[j]
        if mj:
            row = inv3[j]
            total += mj * sum(row[k] * m[k] for k in range(6))
    return total


def _lin3(m: Sequence[int]) -> int:
    heights = lattice.WEIGHT_HEIGHTS
    return 3 * sum(h * x for h, x in zip(heights, m))


def energy(m: Sequence[int], kappa: Rational = 1) -> tuple[Rational, Rational]:
    """(total, ground-state) energy at coupling kappa; total - ground is the
    eigenvalue above."""
    rho = (1, 1, 1, 1, 1, 1)
    ground = 2 * kappa * kappa * lattice.inner_product(rho, rho)
    shifted = tuple(x + kappa for x in m)
    total = 2 * lattice.inner_product(shifted, shifted)
    return _norm(total), _norm(ground)


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------
class OperatorTables:
    """The 21 symmetric second-order and 6 first-order coefficient polynomials."""

    def __init__(self, quadratic: dict[tuple[int, int], SparsePolynomial],
                 linear: dict[int, SparsePolynomial]):
        self.quadratic = quadratic
        self.linear = linear
        # integer kernel: per (j,k) the terms of 3*a_jk as (offset, coef) where
        # offset already absorbs the exponent drop from d_j d_k
        self._quad_kernel: list[tuple[int, int, list[tuple[Exponent, int]]]] = []
        for (j, k), poly in sorted(quadratic.items()):
            drop = tuple(-int(i == j - 1) - int(i == k - 1) for i in range(6))
            terms = []
            for e, c in poly.terms.items():
                c3 = 3 * Fraction(c)
                if c3.denominator != 1:
                    raise InternalInconsistencyError("table coefficient denominator exceeds 3")
                terms.append((tuple(a + b for a, b in zip(e, drop)), int(c3)))
            self._quad_kernel.append((j - 1, k - 1, terms))
        self._lin_kernel: list[tuple[int, list[tuple[Exponent, int]]]] = []
        for j, poly in sorted(linear.items()):
            drop = tuple(-int(i == j - 1) for i in range(6))
            terms = []
            for e, c in poly.terms.items():
                c3 = 3 * Fraction(c)
                if c3.denominator != 1:
                    raise InternalInconsistencyError("table coefficient denominator exceeds 3")
                terms.append((tuple(a + b for a, b in zip(e, drop)), int(c3)))
            self._lin_kernel.append((j - 1, terms))
        self._validate()

    def _validate(self) -> None:
        if sorted(self.quadratic) != [(j, k) for j in range(1, 7) for k in range(j, 7)]:
            raise InternalInconsistencyError("quadratic table index set is wrong")
        if sorted(self.linear) != list(range(1, 7)):
            raise InternalInconsistencyError("linear table index set is wrong")
        for j in range(1, 7):
            lj = lattice.fundamental_weight(j)
            expected = SparsePolynomial.monomial(lj, eigenvalue(lj, 1))
            if self.linear[j] != expected:
                raise InternalInconsistencyError(
                    f"first-order coefficient {j} is not the eigenvalue multiple of z{j}")
        # every monomial shift must live in the root lattice
        for _, _, terms in self._quad_kernel:
            for off, _ in terms:
                lattice.to_root_basis(tuple(-x for x in off))
        for _, terms in self._lin_kernel:
            for off, _ in terms:
                lattice.to_root_basis(tuple(-x for x in off))


_TABLES: OperatorTables | None = None


def tables() -> OperatorTables:
    global _TABLES
    if _TABLES is None:
        raw = json.loads(resources.files("e6cs.data").joinpath("operator_tables.json").read_text())
        quadratic: dict[tuple[int, int], SparsePolynomial] = {}
        linear: dict[int, SparsePolynomial] = {}
        for rec in raw:
            poly = SparsePolynomial.from_records(rec["terms"])
            if rec["kind"] == "a":
                j, k = rec["indices"]
                quadratic[(j, k)] = poly
            elif rec["kind"] == "b":
                linear[rec["indices"][0]] = poly
            else:
                raise InternalInconsistencyError(f"unknown table record kind {rec['kind']!r}")
        _TABLES = OperatorTables(quadratic, linear)
    return _TABLES


# ---------------------------------------------------------------------------
# Integer kernel: memoized image of each monomial under 3*Delta
# ---------------------------------------------------------------------------
_IMAGE3: dict[Exponent, dict[Exponent, int]] = {}
_EPS3: dict[Exponent, int] = {}  # eigenvalue_x3 per exponent


def image_x3(exp: Sequence[int]) -> dict[Exponent, int]:
    """3 * Delta z^exp as a map of exponent -> integer coefficient."""
    exp = tuple(exp)
    cached = _IMAGE3.get(exp)
    if cached is not None:
        return cached
    tbl = tables()
    acc: dict[Exponent, int] = {}
    get = acc.get
    for j, k, terms in tbl._quad_kernel:
        nj = exp[j]
        f = nj * (nj - 1) if j == k else 2 * nj * exp[k]
        if not f:
            continue
        for off, c in terms:
            e = (exp[0] + off[0], exp[1] + off[1], exp[2] + off[2],
                 exp[3] + off[3], exp[4] + off[4], exp[5] + off[5])
            acc[e] = get(e, 0) + f * c
    for j, terms in tbl._lin_kernel:
        f = exp[j]
        if not f:
            continue
        for off, c in terms:
            e = (exp[0] + off[0], exp[1] + off[1], exp[2] + off[2],
                 exp[3] + off[3], exp[4] + off[4], exp[5] + off[5])
            acc[e] = get(e, 0) + f * c
    acc = {e: c for e, c in acc.items() if c}
    if acc.get(exp, 0) != eigenvalue_x3(exp):
        raise InternalInconsistencyError(
            f"diagonal coefficient of Delta z^{exp} disagrees with the eigenvalue formula")
    _IMAGE3[exp] = acc
    return acc


def shifted_image_x3(terms: dict[Exponent, Coef], eps3: int) -> dict[Exponent, Coef]:
    """(3*Delta - eps3) applied to the polynomial with these terms, as a map
    of exponent -> coefficient that may hold zeros."""
    acc = {e: -eps3 * c for e, c in terms.items()}
    get = acc.get
    for e, c in terms.items():
        for t, k3 in image_x3(e).items():  # the module attribute at call time
            acc[t] = get(t, 0) + c * k3
    return acc


def apply_delta(p: SparsePolynomial) -> SparsePolynomial:
    """Apply the kappa=1 operator to a polynomial, exactly."""
    third = Fraction(1, 3)
    return SparsePolynomial({e: v * third for e, v in shifted_image_x3(p.terms, 0).items()})


def monomial_expansion(n: Sequence[int]) -> list[tuple[lattice.Vec, Rational]]:
    """Terms of Delta z^n keyed by the root-lattice shift from n.

    Returns (shift in the root basis, coefficient) pairs, the zero shift
    carrying the eigenvalue of n.  Raises NonIntegralError if any produced
    exponent differs from n outside the root lattice, which would signal a
    corrupted coefficient table.
    """
    n = tuple(int(x) for x in n)
    if any(x < 0 for x in n):
        raise ValueError(f"not a monomial exponent: {n}")
    out = []
    for t, c3 in image_x3(n).items():
        shift = lattice.to_root_basis(tuple(a - b for a, b in zip(n, t)))
        out.append((shift, _norm(Fraction(c3, 3))))
    out.sort(key=lambda item: (lattice.height(item[0]), item[0]))
    return out

