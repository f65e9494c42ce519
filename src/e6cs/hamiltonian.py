"""The kappa=1 Calogero-Sutherland operator in character variables.

The operator acts on polynomials in z1..z6 as

    Delta p = sum_{j,k} A[j,k] d_j d_k p + sum_j B[j] d_j p

where the full double sum runs over ordered pairs and the stored coefficient
table gives the common value of each symmetric pair A[j,k] = A[k,j].  Every
coefficient has denominator dividing 3, so the hot kernel works with the
integer-valued operator 3*Delta and divides once at the surface.

The table data ships as a JSON resource, parsed once into one integer kernel
that holds the second- and first-order terms alike.  Loading re-derives
nothing, but checks eight invariants of the data file: every record kind is
a or b; the records are exactly the 21 pairs j <= k and the 6 first-order
entries; SparsePolynomial.from_records reads each record's terms, so every
exponent is six non-negative ints and none repeats, and every coefficient
is a rational literal (ring.coef_from_str) whose triple is an integer;
each first-order entry is eigenvalue(l_j) z_j; every monomial
shift lies in the root lattice; the operator commutes with the diagram symmetry
sigma = lattice.conjugate, which swaps z1 <-> z6 and z3 <-> z5: the record
of (sigma j, sigma k) holds sigma of the shifts of the record of (j, k), with
the same coefficients; and the operator never raises a weight: every shift
is minus a sum of simple roots, so every term off the diagonal lowers the
height.  The checks prove the data self-consistent, not right.
The spectrum 2(m, m + 2*kappa*rho) comes from the lattice's bilinear form,
which sigma fixes too (an import check of lattice), so sigma carries an
eigenfunction of eigenvalue eps_w to one of the same eigenvalue eps_sigma(w).

The first time the operator meets an exponent, an ExponentIndex gives it a
small integer id.  Indexed by that id, the index holds the exponent, its
weight height, 3 times its eigenvalue, its monomial value at
lattice.FUNDAMENTAL_DIMENSIONS (the dimension check's term) and its row: the
image under 3*Delta as a tuple of target ids and a tuple of integer
coefficients.  The row is built once from the kernel, with a check that its
diagonal coefficient is the eigenvalue.  The hot loops (the character
recursion, the eigenfunction check and the annihilator) run over ids and map
back to exponents at the end.  The annihilator and the one-pass and packed
eigenfunction checks share one sparse scatter of (3*Delta - eps3),
_shifted_image_ids; shifted_image_x3 is its exponent-keyed view, and
image_x3 that of one row.  residuals_vanish proves the eigenfunction
identity of up to 64 polynomials in one such scatter, their coefficients
packed as the digits of one integer per exponent, each digit as wide as the
largest residual bound of that chunk of 64 needs, so every polynomial is
packed, whatever its size.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from math import prod
from pathlib import Path
from typing import Sequence

from . import lattice
from .errors import InternalInconsistencyError
from .ring import Coef, Exponent, SparsePolynomial, _norm, _wrap, coef_to_str


def eigenvalue(m: Sequence[int], kappa: Coef = 1) -> Coef:
    """Spectrum of the operator on the character labelled by m, exact.

    Equals 2(l, l + 2*kappa*rho) for the weight l with Dynkin labels m.
    """
    m = lattice.check_labels(m, lattice.RATIONAL)
    return _norm(Fraction(2 * lattice.form_x3(m, [x + 2 * kappa for x in m]), 3))


def eigenvalue_x3(m: Sequence[int]) -> int:
    """3 * eigenvalue(m, 1) as a plain int, for the integer kernel."""
    index = _INDEX
    return index.eps3[index.id(lattice.check_labels(m))]


def energy(m: Sequence[int], kappa: Coef = 1) -> tuple[Coef, Coef]:
    """(total, ground-state) energy at coupling kappa; total - ground is the
    eigenvalue above."""
    m = lattice.check_labels(m, lattice.RATIONAL)
    rho = (1, 1, 1, 1, 1, 1)
    ground = 2 * kappa * kappa * lattice.inner_product(rho, rho)
    shifted = tuple(x + kappa for x in m)
    total = 2 * lattice.inner_product(shifted, shifted)
    return _norm(total), _norm(ground)


# ---------------------------------------------------------------------------
# Coefficient tables as one integer kernel
# ---------------------------------------------------------------------------
# One entry (j, k, same, terms) per record, terms being (offset, coefficient)
# pairs of 3*Delta.  On z^n, with n extended by a seventh exponent fixed at 1,
# each term adds coefficient * n_j * (n_k - same) at n + offset.  A[j,k] is
# the pair (j, k), its coefficient doubled off the diagonal; B[j] is the pair
# (j, 7).  Each offset absorbs the exponent drop of the derivatives.
Kernel = list[tuple[int, int, int, list[tuple[Exponent, int]]]]

_RECORD_KEYS = ([("a", (j, k)) for j in range(1, 7) for k in range(j, 7)]
                + [("b", (j,)) for j in range(1, 7)])


def parse_tables(records: Sequence[dict]) -> Kernel:
    """The integer kernel of the operator from the records of
    operator_tables.json, with the eight load checks of the module docstring.

    A failed check raises InternalInconsistencyError, except a shift outside
    the root lattice, which raises NonIntegralError.
    """
    parsed = []
    for rec in records:
        kind, idx = rec["kind"], tuple(rec["indices"])
        if kind not in ("a", "b"):
            raise InternalInconsistencyError(f"unknown table record kind {kind!r}")
        name = f"table record {kind}{list(idx)}"
        try:
            terms = SparsePolynomial.from_records(rec["terms"]).terms
        except ValueError as exc:
            raise InternalInconsistencyError(f"{name}: {exc}") from None
        for c in terms.values():
            if (3 * c).denominator != 1:
                raise InternalInconsistencyError(
                    f"{name}: denominator of {coef_to_str(c)} exceeds 3")
        parsed.append((kind, idx, {e: int(3 * c) for e, c in terms.items()}))
    parsed.sort(key=lambda rec: rec[:2])
    if [rec[:2] for rec in parsed] != _RECORD_KEYS:
        raise InternalInconsistencyError("operator table index set is wrong")
    kernel: Kernel = []
    for kind, idx, terms in parsed:
        j, k = idx if kind == "a" else (idx[0], 7)
        lj = lattice.fundamental_weight(j)
        if kind == "b" and terms != {lj: lattice.eps3(lj)}:
            raise InternalInconsistencyError(
                f"first-order coefficient {j} is not the eigenvalue multiple of z{j}")
        scale = 1 if kind == "b" or j == k else 2
        entries = []
        for e, c in terms.items():
            off = tuple(x - (i == j - 1) - (i == k - 1) for i, x in enumerate(e))
            drop = lattice.to_root_basis(tuple(-x for x in off))  # raises off the root lattice
            if min(drop) < 0:
                raise InternalInconsistencyError(
                    f"table record {kind}{list(idx)}: the term at exponent {e} raises the "
                    f"weight: its shift {off} is not minus a sum of simple roots")
            entries.append((off, scale * c))
        kernel.append((j - 1, k - 1, int(j == k), entries))
    _check_diagram_symmetry(kernel)
    return kernel


def _record_name(j: int, k: int) -> str:
    """The table record of kernel entry (j, k), 0-based, k = 6 being first-order."""
    return f"b[{j + 1}]" if k == 6 else f"a[{j + 1}, {k + 1}]"


def _check_diagram_symmetry(kernel: Kernel) -> None:
    """The seventh load check: sigma = lattice.conjugate commutes with the
    operator.  For each entry (j, k), the entry of (sigma j, sigma k), sorted,
    has the same `same` flag and holds exactly sigma of its offsets with the
    same coefficients; the seventh exponent of the first-order entries stays."""
    sigma = lattice.conjugate(range(6)) + (6,)
    entries = {(j, k): (same, dict(terms)) for j, k, same, terms in kernel}
    for j, k, same, terms in kernel:
        image = tuple(sorted((sigma[j], sigma[k])))
        if entries[image] != (same, {lattice.conjugate(off): c for off, c in terms}):
            raise InternalInconsistencyError(
                f"table record {_record_name(*image)} is not the diagram-symmetry image "
                f"of {_record_name(j, k)}")


_TABLES: Kernel | None = None


def tables() -> Kernel:
    """The kernel of the shipped operator_tables.json, parsed once."""
    global _TABLES
    if _TABLES is None:
        path = Path(__file__).with_name("data") / "operator_tables.json"
        _TABLES = parse_tables(json.loads(path.read_text(encoding="utf-8")))
    return _TABLES


# ---------------------------------------------------------------------------
# Exponent index: everything about an exponent, under a small integer id
# ---------------------------------------------------------------------------
Row = tuple[tuple[int, ...], tuple[int, ...]]  # target ids, coefficients


class ExponentIndex:
    """Every exponent met so far, numbered 0, 1, 2, ... in order of first
    sight, with its height, 3 * eigenvalue, value and row under 3*Delta by
    id.  An exponent's value is its monomial at
    lattice.FUNDAMENTAL_DIMENSIONS, which the dimension check sums.  All but
    the row are set when the exponent is registered; rows keep the order in
    which the kernel produces their terms.  `exps` holds the process's one
    tuple per exponent: the character recursion and the cache decoder key
    every term they keep by it."""

    def __init__(self) -> None:
        self.ids: dict[Exponent, int] = {}
        self.exps: list[Exponent] = []
        self.heights: list[int] = []
        self.eps3: list[int] = []
        self.values: list[int] = []
        self.rows: list[Row | None] = []

    def id(self, exp: Exponent) -> int:
        """The id of exp, registering it on first sight."""
        i = self.ids.get(exp)
        if i is None:
            exp = lattice.check_labels(exp)
            i = self.ids[exp] = len(self.exps)
            self.exps.append(exp)
            self.heights.append(lattice.weight_height(exp))
            self.eps3.append(lattice.eps3(exp))
            self.values.append(prod(map(pow, lattice.FUNDAMENTAL_DIMENSIONS, exp)))
            self.rows.append(None)
        return i

    def row(self, i: int) -> Row:
        """The row of id i, built from the kernel on first use."""
        row = self.rows[i]
        if row is None:
            row = self.rows[i] = self._build_row(i)
        return row

    def _build_row(self, i: int) -> Row:
        exp = self.exps[i]
        n = exp + (1,)  # the seventh exponent of the first-order entries
        acc: dict[Exponent, int] = {}
        get = acc.get
        for j, k, same, terms in tables():
            f = n[j] * (n[k] - same)
            if not f:
                continue
            for off, c in terms:
                e = (exp[0] + off[0], exp[1] + off[1], exp[2] + off[2],
                     exp[3] + off[3], exp[4] + off[4], exp[5] + off[5])
                acc[e] = get(e, 0) + f * c
        if acc.get(exp, 0) != self.eps3[i]:
            raise InternalInconsistencyError(
                f"diagonal coefficient of Delta z^{exp} disagrees with the eigenvalue formula")
        image = [(self.id(e), c) for e, c in acc.items() if c]
        return tuple(t for t, _ in image), tuple(c for _, c in image)


_INDEX = ExponentIndex()


def exponent_index() -> ExponentIndex:
    """The process-wide exponent index."""
    return _INDEX


def image_x3(exp: Sequence[int]) -> dict[Exponent, int]:
    """3 * Delta z^exp as a map of exponent -> integer coefficient."""
    index = _INDEX
    targets, coefs = index.row(index.id(lattice.check_labels(exp)))
    exps = index.exps
    return {exps[t]: c for t, c in zip(targets, coefs)}


def _shifted_image_ids(poly: dict[int, Coef], eps3: int) -> dict[int, Coef]:
    """(3*Delta - eps3) applied to the polynomial with these terms by exponent
    id, as a map of id -> coefficient that may hold zeros.  Every term's row
    is built before any is applied.  The coefficients may be plain or packed
    ints: residuals_vanish scatters each chunk of polynomials through here."""
    row = _INDEX.row
    images = [(c, row(i)) for i, c in poly.items()]
    acc = {i: -eps3 * c for i, c in poly.items()}
    get = acc.get
    for c, (targets, coefs) in images:
        for t, k3 in zip(targets, coefs):
            acc[t] = get(t, 0) + c * k3
    return acc


def shifted_image_x3(terms: dict[Exponent, Coef], eps3: int) -> dict[Exponent, Coef]:
    """(3*Delta - eps3) applied to the polynomial with these terms, as a map
    of exponent -> coefficient that may hold zeros."""
    index = _INDEX
    acc = _shifted_image_ids({index.id(e): c for e, c in terms.items()}, eps3)
    exps = index.exps
    return {exps[i]: r for i, r in acc.items()}


def apply_delta(p: SparsePolynomial) -> SparsePolynomial:
    """Apply the kappa=1 operator to a polynomial, exactly."""
    third = Fraction(1, 3)
    return _wrap({e: _norm(v * third) for e, v in shifted_image_x3(p.terms, 0).items() if v})


_CHUNK = 64  # polynomials packed into the digits of one integer per exponent


def residuals_vanish(items: Sequence[tuple[dict[Exponent, int], int]]) -> bool:
    """True when (3*Delta - eps3) p = 0 for every (terms, eps3) of items, each
    p having integer coefficients: the verdict of shifted_image_x3 on each,
    reached _CHUNK polynomials at a time, each chunk packed and proved on its
    own by _chunk_vanishes.

    In a chunk, polynomial k's coefficient under one exponent is digit k, of
    width bits, of one int, and its eps3 multiple that of another, so
    _shifted_image_ids scatters each row once, as big-integer multiply-adds,
    for the whole chunk.  The residual is linear in the polynomial, so the
    packed residual under each exponent is the sum of r_k * 2**(width * k)
    over the chunk's residuals r_k there.  The width is the bit length of the
    largest bound sum |c| * (widest + |eps3| + 1) over the chunk's items,
    widest being the largest row abs sum over the chunk's exponents; each
    |r_k| is below its own bound, so below 2**width.  Then the sum is 0 only
    if every r_k is: the lowest nonzero r_j would survive modulo
    2**(width * (j + 1)).  Each chunk works out its own exponents, widest and
    width, as its residual digits are bounded by its own items alone."""
    return all(_chunk_vanishes(items[start:start + _CHUNK])
               for start in range(0, len(items), _CHUNK))


def _chunk_vanishes(chunk: Sequence[tuple[dict[Exponent, int], int]]) -> bool:
    index = _INDEX
    exps = dict.fromkeys(chain.from_iterable(terms for terms, _ in chunk))
    ids = dict(zip(exps, map(index.id, exps)))
    widest = max((sum(map(abs, index.row(i)[1])) for i in ids.values()), default=0)
    width = max(sum(map(abs, terms.values())) * (widest + abs(eps3) + 1)
                for terms, eps3 in chunk).bit_length()
    packed, packed_eps = dict.fromkeys(ids.values(), 0), dict.fromkeys(ids.values(), 0)
    # the highest digit first, so each int is allocated at nearly its full
    # size once instead of growing through every size on the way up, which
    # raised peak memory
    for k in reversed(range(len(chunk))):
        terms, eps3 = chunk[k]
        shift = width * k
        for i, c in zip(map(ids.__getitem__, terms), terms.values()):
            packed[i] += c << shift
            packed_eps[i] += eps3 * c << shift
    acc = _shifted_image_ids(packed, 0)
    for i, eps in packed_eps.items():
        acc[i] -= eps
    return not any(acc.values())
