"""Static E6 root and weight data plus the combinatorial geometry on top of it.

Vectors are plain 6-tuples of ints.  Two bases are in play throughout:

* root basis -- coordinates with respect to the simple roots a1..a6;
* weight basis -- Dynkin labels, coordinates with respect to the fundamental
  weights l1..l6.

The Cartan matrix A converts root-basis to weight-basis coordinates; 3 * A^-1
converts back, in integers.  The positive roots are generated from A, and
3 * A^-1 and the Weyl vector rho are derived from the roots; exact integer
checks prove both.  All derived data is rebuilt and self-checked at import
time rather than hard-coded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InternalInconsistencyError, NonIntegralError

Vec = tuple[int, int, int, int, int, int]

CARTAN: tuple[Vec, ...] = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)


def height(v: Iterable[int]) -> int:
    """Height of a root-basis vector: the sum of its coordinates."""
    return sum(v)


def fundamental_weight(k: int) -> Vec:
    """Dynkin labels of the k-th fundamental weight, 1-based.  The one check
    of a variable or fundamental-weight index: an int (never a bool) from 1
    to 6, else ValueError."""
    if type(k) is not int or not 1 <= k <= 6:
        raise ValueError(f"index must be an int from 1 to 6: {k!r}")
    return tuple(int(i == k - 1) for i in range(6))


def conjugate(w: Sequence[int]) -> Vec:
    """Apply the diagram symmetry: swap labels 1<->6 and 3<->5.  ValueError
    unless w has exactly six labels, whose types it does not check."""
    try:
        a, b, c, d, e, f = w
    except ValueError:
        raise ValueError(f"not a vector of six labels: {tuple(w)}") from None
    return (f, b, e, d, c, a)


def _generate_positive_roots() -> tuple[Vec, ...]:
    # Closure of the simple roots under addition, validated by the Cartan
    # pairing: in a simply-laced system g + a_i is a root iff (g, a_i) = -1.
    simple = [fundamental_weight(i + 1) for i in range(6)]
    roots: list[Vec] = list(simple)
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        nxt = []
        for g in frontier:
            for i in range(6):
                if sum(g[j] * CARTAN[j][i] for j in range(6)) == -1:
                    cand = tuple(g[j] + int(j == i) for j in range(6))
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        roots.extend(nxt)
        frontier = nxt
    roots.sort(key=lambda r: (height(r), r))

    if len(roots) != 36:
        raise InternalInconsistencyError(f"expected 36 positive roots, got {len(roots)}")
    hist = [0] * 12
    for r in roots:
        hist[height(r)] += 1
    if hist[1:] != [6, 5, 5, 5, 4, 3, 3, 2, 1, 1, 1]:
        raise InternalInconsistencyError(f"positive-root height histogram is wrong: {hist[1:]}")
    return tuple(roots)


def _tables_from_roots(cartan: Sequence[Sequence[int]],
                       roots: Sequence[Vec]) -> tuple[tuple[Vec, ...], Vec]:
    """3 * A^-1 and rho in the root basis, derived from the positive roots
    and each proved by one exact integer check.

    In a simply-laced system with (a, a) = 2, summing over the positive
    roots gives sum (a, x)(a, y) = h * (x, y), the dual Coxeter number h
    being 12 for E6.  (a, l_i) is a's i-th root coordinate, so sum a a^T is
    12 * A^-1 and a quarter of it is X = 3 * A^-1.  The proof does not rest
    on that identity: A X = 3I holds for no other X.  rho is half the sum of
    the positive roots; its coordinates are the row sums of A^-1 (A being
    symmetric, also the heights of the fundamental weights), so the row sums
    of X must be 3 * rho.  Neither floor division can hide an error, since
    a table it got wrong fails the check that follows it."""
    x3 = tuple(tuple(sum(r[i] * r[j] for r in roots) // 4 for j in range(6)) for i in range(6))
    if any(sum(cartan[i][k] * x3[k][j] for k in range(6)) != 3 * (i == j)
           for i in range(6) for j in range(6)):
        raise InternalInconsistencyError("Cartan matrix inverse is wrong")
    rho = tuple(sum(r[i] for r in roots) // 2 for i in range(6))
    if tuple(map(sum, x3)) != tuple(3 * x for x in rho):
        raise InternalInconsistencyError("positive roots do not sum to twice the Weyl vector")
    return x3, rho


_POSITIVE_ROOTS = _generate_positive_roots()

# 3 * A^-1, integral for E6, so that every form stays in int arithmetic; and
# rho, the sum of the fundamental weights, in the root basis
CARTAN_INVERSE_X3, WEIGHT_HEIGHTS = _tables_from_roots(CARTAN, _POSITIVE_ROOTS)

_ROOT_HEIGHTS: Vec = tuple(map(height, _POSITIVE_ROOTS))
_WEYL_DENOMINATOR = prod(_ROOT_HEIGHTS)


# the dimensions of the fundamental representations: the point at which a
# character evaluates to the dimension of its representation
FUNDAMENTAL_DIMENSIONS: Vec = (27, 78, 351, 2925, 351, 27)


def _check_diagram_symmetry(cartan: Sequence[Sequence[int]],
                            cartan_inverse_x3: Sequence[Sequence[int]],
                            roots: Sequence[Vec], fundamental_dimensions: Sequence[int]) -> None:
    """Raise InternalInconsistencyError unless `conjugate`, the permutation
    (6, 2, 5, 4, 3, 1) of the nodes, is a symmetry of the Dynkin diagram that
    fixes everything the spectrum and the dimension check read: the Cartan
    matrix, its scaled inverse (so form_x3 and every eigenvalue agree at w and
    conjugate(w)), the set of positive roots (so does weyl_dimension) and the
    fundamental dimensions.  characters.validate_character relies on this
    when it carries an eigenfunction proof from a character to its conjugate."""
    p = conjugate(range(6))
    for name, mat in (("Cartan matrix", cartan), ("inverse Cartan matrix", cartan_inverse_x3)):
        if any(mat[p[i]][p[j]] != mat[i][j] for i in range(6) for j in range(6)):
            raise InternalInconsistencyError(f"the diagram symmetry does not fix the {name}")
    if {conjugate(r) for r in roots} != set(roots):
        raise InternalInconsistencyError("the diagram symmetry does not permute the positive roots")
    if conjugate(fundamental_dimensions) != tuple(fundamental_dimensions):
        raise InternalInconsistencyError(
            "the diagram symmetry does not fix the fundamental dimensions")


_check_diagram_symmetry(CARTAN, CARTAN_INVERSE_X3, _POSITIVE_ROOTS, FUNDAMENTAL_DIMENSIONS)


def positive_roots() -> list[Vec]:
    """The 36 positive roots in the root basis, sorted by height then lex."""
    return list(_POSITIVE_ROOTS)


def weyl_vector_in_root_basis() -> Vec:
    """The Weyl vector (half-sum of positive roots) in root-basis coordinates."""
    return WEIGHT_HEIGHTS


def to_root_basis(w: Sequence[int]) -> Vec:
    """Convert Dynkin labels to root-basis coordinates, exactly.

    Raises NonIntegralError if w is not in the root lattice, and ValueError
    unless w is six int labels (check_labels).
    """
    w = check_labels(w)
    out = []
    for i in range(6):
        num = sum(CARTAN_INVERSE_X3[i][j] * w[j] for j in range(6))
        q, r = divmod(num, 3)
        if r:
            raise NonIntegralError(f"{tuple(w)} is not in the root lattice")
        out.append(q)
    return tuple(out)


def from_root_basis(v: Sequence[int]) -> Vec:
    """Convert root-basis coordinates to Dynkin labels."""
    return tuple(sum(CARTAN[i][j] * v[j] for j in range(6)) for i in range(6))


def form_x3(u: Sequence[int], v: Sequence[int]) -> int:
    """3 * (u, v) for weight-basis vectors, an integer for integral ones."""
    return sum(CARTAN_INVERSE_X3[i][j] * u[i] * v[j] for i in range(6) for j in range(6))


def eps3(w: Sequence[int]) -> int:
    """3 * 2(w, w + 2*rho): three times the kappa=1 eigenvalue of the
    character of w, which is twice the quadratic Casimir (w, w + 2*rho)."""
    return 2 * form_x3(w, [x + 2 for x in w])


def inner_product(u: Sequence[int], v: Sequence[int]) -> Fraction:
    """Bilinear form on the weight lattice, (l_i, l_j) being the inverse Cartan."""
    return Fraction(form_x3(check_labels(u, RATIONAL), check_labels(v, RATIONAL)), 3)


def weight_height(w: Sequence[int]) -> int:
    """Height of a weight-basis vector read in the root basis: the sum of its
    root coordinates, exact.  Every fundamental weight has an integer height
    (WEIGHT_HEIGHTS), so every integral weight does too, even one outside the
    root lattice whose root coordinates are thirds."""
    return sum(h * x for h, x in zip(WEIGHT_HEIGHTS, w))


def weyl_dimension(m: Sequence[int]) -> int:
    """Dimension of the irreducible representation with highest weight m."""
    return _weyl_dimension_cached(_check_dominant(m))


@lru_cache(maxsize=4096)
def _weyl_dimension_cached(m: Vec) -> int:
    num = 1
    for r, h in zip(_POSITIVE_ROOTS, _ROOT_HEIGHTS):
        num *= h + sum(map(mul, r, m))
    q, rem = divmod(num, _WEYL_DENOMINATOR)
    if rem:
        raise InternalInconsistencyError(f"Weyl dimension of {m} is not an integer")
    return q


INTEGER = (int,)
RATIONAL = (int, Fraction)


def check_labels(v: Sequence, types: tuple[type, ...] = INTEGER) -> tuple:
    """v as a tuple of six labels of any sign, each exactly of one of types,
    so never a bool or a float; ValueError naming the input otherwise."""
    v = tuple(v)
    if len(v) != 6:
        raise ValueError(f"not a vector of six labels: {v}")
    for x in v:
        if type(x) not in types:
            raise ValueError(f"labels must be {' or '.join(t.__name__ for t in types)}: {v}")
    return v


# The most decimal digits a number written as text may have.  int() has a
# limit of its own from Python 3.11 (4300 digits, refused with advice to call
# sys.set_int_max_str_digits()); this one is checked first, so text over it is
# refused in the same words on every Python version.
DIGIT_LIMIT = 1000


def read_digits(digits: str) -> int:
    """int(digits) for ASCII decimal digits after an optional minus sign;
    ValueError, before int() runs, on more than DIGIT_LIMIT digits."""
    n = len(digits) - digits.startswith("-")
    if n > DIGIT_LIMIT:
        raise ValueError(f"a number of {n} digits, over the limit of {DIGIT_LIMIT}")
    return int(digits)


def parse_labels(parts: Sequence[str]) -> Vec | None:
    """Six labels, each written in plain ASCII decimal digits, as ints; None
    for anything else, such as a sign, a space, an underscore or the digits
    of another script, which int() would accept.  ValueError on a label of
    more than DIGIT_LIMIT digits (read_digits)."""
    if len(parts) == 6 and all(p.isascii() and p.isdecimal() for p in parts):
        return tuple(map(read_digits, parts))
    return None


def _check_dominant(m: Sequence[int]) -> Vec:
    m = check_labels(m)
    if any(x < 0 for x in m):
        raise ValueError(f"not a dominant weight: {m}")
    return m


def read_keyed(records: Iterable[Mapping], key: str, read: Callable[[Mapping], object]) -> dict:
    """{_check_dominant(rec[key]): read(rec)} over JSON records, the one reader of
    a list keyed by weight or exponent: ValueError on a bad or a repeated key."""
    out = {}
    for rec in records:
        m = _check_dominant(rec[key])
        if m in out:
            raise ValueError(f"repeated {key} {m}")
        out[m] = read(rec)
    return out


# Each positive root as a step in Dynkin labels.
_ROOT_STEPS: tuple[Vec, ...] = tuple(from_root_basis(r) for r in _POSITIVE_ROOTS)


@lru_cache(maxsize=512)
def _dominant_weights_below_cached(m: Vec) -> tuple[Vec, ...]:
    # Stembridge ("The partial order of dominant weights", Adv. Math. 136,
    # 1998): every dominant mu < m is joined to m by a chain of dominant
    # weights, each step subtracting one positive root.  A breadth-first
    # descent from m that keeps only dominant weights therefore visits
    # exactly the answer, in memory proportional to it.
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for w in frontier:
            for r in _ROOT_STEPS:
                mu = (w[0] - r[0], w[1] - r[1], w[2] - r[2],
                      w[3] - r[3], w[4] - r[4], w[5] - r[5])
                if min(mu) >= 0 and mu not in seen:
                    seen.add(mu)
                    nxt.append(mu)
        frontier = nxt
    # the height of m - mu falls as the height of mu rises
    return tuple(sorted(seen, key=lambda mu: (-weight_height(mu), mu)))


def dominant_weights_below(m: Sequence[int]) -> list[Vec]:
    """All dominant weights mu with m - mu a non-negative sum of simple roots.

    Includes m itself; ordered by increasing height of m - mu, ties broken
    lexicographically on the Dynkin labels.
    """
    return list(_dominant_weights_below_cached(_check_dominant(m)))
