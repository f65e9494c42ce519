import json
import re
from decimal import Decimal
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e6cs import hamiltonian, lattice
from e6cs.characters import character_recursion
from e6cs.errors import InternalInconsistencyError
from e6cs.ring import SparsePolynomial, parse_polynomial

small_weights = st.tuples(*([st.integers(0, 2)] * 6))
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def test_eigenvalue_fundamentals():
    eps = [hamiltonian.eigenvalue(lattice.fundamental_weight(k), 1) for k in range(1, 7)]
    assert eps == [Fraction(104, 3), 48, Fraction(200, 3), 96, Fraction(200, 3), Fraction(104, 3)]


def test_eigenvalue_examples():
    assert hamiltonian.eigenvalue((0,) * 6, Fraction(7, 2)) == 0
    assert hamiltonian.eigenvalue((2, 0, 0, 0, 0, 0), 1) == Fraction(224, 3)


@given(small_weights, rationals)
def test_eigenvalue_matches_inner_product_form(m, kappa):
    rho = (1,) * 6
    shifted = tuple(x + 2 * kappa for x in m)
    assert hamiltonian.eigenvalue(m, kappa) == 2 * lattice.inner_product(m, shifted)


@given(small_weights)
def test_eigenvalue_x3_memo_matches_exact_eigenvalue(fresh_index, m):
    expect = 3 * hamiltonian.eigenvalue(m, 1)
    for first, second in ((list(m), m), (m, list(m))):
        with fresh_index() as index:  # the first call computes, the second looks up
            assert hamiltonian.eigenvalue_x3(first) == expect
            assert hamiltonian.eigenvalue_x3(second) == expect
            assert type(hamiltonian.eigenvalue_x3(second)) is int
            assert index.exps == [m]


def test_energy():
    assert hamiltonian.energy((0,) * 6, 1) == (156, 156)
    assert hamiltonian.energy((0,) * 6, 0) == (0, 0)
    assert hamiltonian.energy((0, 1, 0, 0, 0, 0), 1) == (204, 156)


@pytest.mark.parametrize("function", [hamiltonian.eigenvalue, hamiltonian.energy])
@pytest.mark.parametrize("kappa", [1.5, 1.0, True, False, "1", None, Decimal(1)])
def test_kappa_must_be_an_int_or_a_fraction(function, kappa):
    # checked before any arithmetic: a bool is not read as 0 or 1, and a
    # float is named as kappa, not as a shifted vector the caller never passed
    with pytest.raises(ValueError, match=re.escape(f"kappa must be int or Fraction: {kappa!r}")):
        function((1, 0, 0, 0, 0, 0), kappa)


@given(small_weights, rationals)
def test_energy_gap_is_eigenvalue(m, kappa):
    total, ground = hamiltonian.energy(m, kappa)
    assert total - ground == hamiltonian.eigenvalue(m, kappa)


def test_apply_delta_examples():
    assert hamiltonian.apply_delta(SparsePolynomial.variable(1)) == \
        parse_polynomial("104/3*z1")
    assert hamiltonian.apply_delta(SparsePolynomial.constant(7)) == SparsePolynomial.zero()
    assert hamiltonian.apply_delta(parse_polynomial("z1^2")) == \
        parse_polynomial("224/3*z1^2 - 8*z3 - 40*z6")
    assert hamiltonian.apply_delta(parse_polynomial("z1*z2")) == \
        parse_polynomial("260/3*z1*z2 - 52*z1 - 20*z5")


def test_first_order_table_consistency():
    for j in range(1, 7):
        lj = lattice.fundamental_weight(j)
        got = hamiltonian.apply_delta(SparsePolynomial.variable(j))
        assert got == SparsePolynomial.monomial(lj, hamiltonian.eigenvalue(lj, 1))


@given(st.dictionaries(st.tuples(*([st.integers(0, 2)] * 6)),
                       st.integers(-5, 5).filter(bool), max_size=4).map(SparsePolynomial),
       st.dictionaries(st.tuples(*([st.integers(0, 2)] * 6)),
                       st.integers(-5, 5).filter(bool), max_size=4).map(SparsePolynomial),
       rationals, rationals)
def test_apply_delta_is_linear(p, q, a, b):
    lhs = hamiltonian.apply_delta(p.scaled(a) + q.scaled(b))
    rhs = hamiltonian.apply_delta(p).scaled(a) + hamiltonian.apply_delta(q).scaled(b)
    assert lhs == rhs


def test_apply_delta_is_triangular_with_the_eigenvalue_on_the_diagonal():
    # Delta z^n = eigenvalue(n) z^n + terms z^e with n - e a nonzero sum of positive roots
    for n in [(0, 1, 0, 2, 0, 0), (1, 0, 0, 0, 0, 3), (2, 2, 0, 0, 1, 0)]:
        image = hamiltonian.apply_delta(SparsePolynomial.monomial(n)).terms
        assert image[n] == hamiltonian.eigenvalue(n, 1)
        for e in image:
            shift = lattice.to_root_basis(tuple(a - b for a, b in zip(n, e)))
            assert min(shift) >= 0 and (e == n) == (shift == (0,) * 6), (n, e)


def test_eigenvalue_strictly_increasing_along_dominance():
    for m in product(range(4), repeat=6):
        if sum(m) > 3:
            continue
        eps_m = hamiltonian.eigenvalue(m, 1)
        for mu in lattice.dominant_weights_below(m):
            if mu != m:
                assert hamiltonian.eigenvalue(mu, 1) < eps_m


def _table_records():
    path = resources.files("e6cs.data").joinpath("operator_tables.json")
    return json.loads(path.read_text(encoding="utf-8"))


@cache
def _record_polynomials():
    return {(r["kind"], tuple(r["indices"])): SparsePolynomial.from_records(r["terms"])
            for r in _table_records()}


def _derivative(p, j):
    """d/dz_j of p, j 1-based: each term's exponent e maps to its own e - 1_j."""
    i = j - 1
    return SparsePolynomial({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                             for e, c in p.terms.items() if e[i]})


def _operator_x3(p):
    """3 * (sum over ordered j, k of A[j,k] d_j d_k + sum_j B[j] d_j) p, built
    with the ring's own arithmetic, independently of the kernel layout."""
    coef = _record_polynomials()
    total = SparsePolynomial.zero()
    for j in range(1, 7):
        dj = _derivative(p, j)
        total = total + coef["b", (j,)] * dj
        for k in range(1, 7):
            total = total + coef["a", (min(j, k), max(j, k))] * _derivative(dj, k)
    return total.scaled(3)


LOW_EXPONENTS = [n for n in product(range(5), repeat=6) if sum(n) <= 4]


def test_kernel_matches_operator_built_from_the_records():
    assert len(LOW_EXPONENTS) == 210
    for n in LOW_EXPONENTS:
        expect = _operator_x3(SparsePolynomial.monomial(n))
        assert expect == SparsePolynomial(hamiltonian.image_x3(n)), n


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_id_kernel_matches_operator_built_from_the_records(fresh_index, data):
    # on an empty index: each round mixes exponents met in earlier rounds,
    # whose ids and rows are memo hits, with exponents that grow the index
    coefs = st.integers(-5, 5).filter(bool)
    with fresh_index() as index:
        seen: list = []
        for _ in range(3):
            old = data.draw(st.lists(st.sampled_from(seen), max_size=3)) if seen else []
            new = data.draw(st.lists(st.sampled_from(LOW_EXPONENTS), min_size=1, max_size=3))
            terms = {e: data.draw(coefs) for e in old + new}
            eps3 = data.draw(st.integers(-300, 300))
            known = all(e in index.ids and index.rows[index.ids[e]] for e in terms)
            size = len(index.exps)
            got = hamiltonian.shifted_image_x3(terms, eps3)
            p = SparsePolynomial(terms)
            assert SparsePolynomial(got) == _operator_x3(p) - p.scaled(eps3)
            assert list(got)[:len(terms)] == list(terms)
            assert all(index.rows[index.ids[e]] for e in terms)
            if known:
                assert len(index.exps) == size
            seen += new


def test_row_diagonal_is_checked_against_the_eigenvalue(monkeypatch, fresh_index):
    # the last kernel entry is B[6] = eigenvalue(l6) z6: shift its coefficient
    kernel = list(hamiltonian.tables())
    j, k, same, [(off, c)] = kernel[-1]
    kernel[-1] = (j, k, same, [(off, c + 3)])
    monkeypatch.setattr(hamiltonian, "tables", lambda: kernel)
    l6 = lattice.fundamental_weight(6)
    with fresh_index() as index:
        for _ in range(2):  # a failed row is not kept, so the check runs again
            with pytest.raises(InternalInconsistencyError,
                               match=re.escape(f"diagonal coefficient of Delta z^{l6}")):
                hamiltonian.image_x3(l6)
            assert index.rows[index.ids[l6]] is None


@pytest.mark.parametrize("w", [(1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 5), (1.5, 0, 0, 0, 0, 0)])
def test_weights_of_the_wrong_length_are_rejected(w):
    index = hamiltonian.exponent_index()
    size = len(index.exps)
    entry_points = [hamiltonian.eigenvalue, hamiltonian.eigenvalue_x3, hamiltonian.energy,
                    lambda v: lattice.inner_product(v, (1,) * 6),
                    lambda v: lattice.inner_product((1,) * 6, v), lattice.to_root_basis,
                    lambda v: hamiltonian.apply_delta(SparsePolynomial.monomial(v))]
    for entry in entry_points:
        with pytest.raises(ValueError, match=re.escape(str(w))):
            entry(w)
    assert len(index.exps) == size  # nothing of the wrong length or type was indexed
    # negative labels stay allowed: the spectrum lives on the whole weight lattice
    neg = (-1, 0, 0, 0, 0, 2)
    assert hamiltonian.eigenvalue(neg) == 2 * lattice.inner_product(neg, [x + 2 for x in neg])
    assert hamiltonian.eigenvalue_x3(neg) == 3 * hamiltonian.eigenvalue(neg)
    total, ground = hamiltonian.energy(neg)
    assert total - ground == hamiltonian.eigenvalue(neg)


def _set_coef(records, kind, indices, coef):
    rec = next(r for r in records if r["kind"] == kind and r["indices"] == indices)
    rec["terms"][0]["coef"] = coef


def _add_term(records, kind, indices, exp, coef):
    rec = next(r for r in records if r["kind"] == kind and r["indices"] == indices)
    rec["terms"].append({"exp": exp, "coef": coef})


@pytest.mark.parametrize("corrupt, error, fault", [
    (lambda recs: recs[0].update(kind="c"), InternalInconsistencyError, "unknown table record kind 'c'"),
    (lambda recs: recs.pop(7), InternalInconsistencyError, "index set is wrong"),
    # a missing field is named with its record, never a KeyError
    (lambda recs: recs[0].pop("kind"), InternalInconsistencyError,
     "table record lacks the field 'kind': {'indices': [1, 1], 'terms': "),
    (lambda recs: recs[0].pop("indices"), InternalInconsistencyError, "lacks the field 'indices'"),
    (lambda recs: recs.__setitem__(0, [1]), InternalInconsistencyError,
     "table record is not an object: [1]"),
    (lambda recs: recs[0].pop("terms"), InternalInconsistencyError,
     "table record lacks the field 'terms': {'kind': 'a', 'indices': [1, 1]}"),
    (lambda recs: recs[0]["terms"][0].pop("coef"), InternalInconsistencyError,
     "table record a[1, 1]: record lacks the field 'coef': {'exp': "),
    (lambda recs: _set_coef(recs, "a", [2, 4], "1/9"), InternalInconsistencyError,
     "denominator of 1/9 exceeds 3"),
    (lambda recs: _set_coef(recs, "b", [3], "203/3"), InternalInconsistencyError,
     "first-order coefficient 3 is not the eigenvalue multiple of z3"),
    (lambda recs: recs[0]["terms"][0].update(exp=[1, 0, 0, 0, 0, 0]), InternalInconsistencyError,
     "table record a[1, 1]: the term at exponent (1, 0, 0, 0, 0, 0) has the shift "
     "(-1, 0, 0, 0, 0, 0), which is not in the root lattice"),
    # an exponent is read as lattice._check_dominant reads a weight
    (lambda recs: recs[0]["terms"][0].update(exp=[2, 0, 0, 0, 0]), InternalInconsistencyError,
     "table record a[1, 1]: not a vector of six labels: (2, 0, 0, 0, 0)"),
    (lambda recs: recs[0]["terms"][0].update(exp=[2, 0, 0, 0, 0, -1]), InternalInconsistencyError,
     "table record a[1, 1]: not a dominant weight: (2, 0, 0, 0, 0, -1)"),
    (lambda recs: recs[0]["terms"][0].update(exp=[True, 0, 0, 0, 0, 0]), InternalInconsistencyError,
     "table record a[1, 1]: labels must be int: (True, 0, 0, 0, 0, 0)"),
    # a[1,3] no longer maps onto a[5,6] under z1 <-> z6, z3 <-> z5
    (lambda recs: _set_coef(recs, "a", [1, 3], "13/3"), InternalInconsistencyError,
     "table record a[5, 6] is not the diagram-symmetry image of a[1, 3]"),
    # Fraction() would read 3/2 and 10 here
    (lambda recs: _set_coef(recs, "a", [2, 4], "1.5"), InternalInconsistencyError,
     "table record a[2, 4]: not a rational literal: '1.5'"),
    (lambda recs: _set_coef(recs, "b", [3], "2_00/3"), InternalInconsistencyError,
     "table record b[3]: not a rational literal: '2_00/3'"),
    # a repeated term, which once doubled this coefficient and passed every other check
    (lambda recs: _add_term(recs, "a", [2, 4], [1, 1, 0, 0, 0, 1], "-8"),
     InternalInconsistencyError, "table record a[2, 4]: repeated exp (1, 1, 0, 0, 0, 1)"),
    # a shift of +l2, the highest root: in the root lattice and fixed by sigma
    (lambda recs: _add_term(recs, "a", [1, 6], [1, 1, 0, 0, 0, 1], "2"), InternalInconsistencyError,
     "table record a[1, 6]: the term at exponent (1, 1, 0, 0, 0, 1) raises the weight"),
])
def test_table_loader_rejects_corrupt_records(corrupt, error, fault):
    assert hamiltonian.parse_tables(_table_records()) == hamiltonian.tables()
    records = _table_records()
    corrupt(records)
    with pytest.raises(error, match=re.escape(fault)):
        hamiltonian.parse_tables(records)


def test_parsing_the_tables_leaves_the_exponent_index_alone(fresh_index):
    with fresh_index() as index:
        hamiltonian.parse_tables(_table_records())
        assert index.exps == [] and index.ids == {}


# ---------------------------------------------------------------------------
# The packed residual pass against one shifted_image_x3 pass per polynomial
# ---------------------------------------------------------------------------
DEGREE_4 = [w for w in product(range(5), repeat=6) if sum(w) <= 4]


@cache
def _eigenpair(w):
    """(terms, eps3) of the character of w: (3*Delta - eps3) chi = 0."""
    return character_recursion(w).poly.terms, hamiltonian.eigenvalue_x3(w)


def _one_pass_each(items):
    return all(not any(hamiltonian.shifted_image_x3(terms, eps3).values())
               for terms, eps3 in items)


def _bumped(terms, e, by=1):
    return {**terms, e: terms[e] + by}


def _sigma_swapped(terms):
    """terms with the coefficients at e and sigma(e) exchanged for the first e
    where they differ, which keeps the dimension; None when sigma fixes all."""
    for e, c in terms.items():
        mate = lattice.conjugate(e)
        if terms.get(mate, 0) != c:
            swapped = {**terms, e: terms.get(mate, 0), mate: c}
            return {x: v for x, v in swapped.items() if v}
    return None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_residuals_agree_with_one_pass_each(data):
    # up to 70 characters span two chunks; scaled by 2**0, 2**31 or 2**70,
    # members of very different sizes share one payment and its digit width;
    # a mutated member, small or large, breaks its chunk
    weights = data.draw(st.lists(st.sampled_from(DEGREE_4), max_size=70))
    items = [_scaled(_eigenpair(w), data.draw(st.sampled_from([0, 31, 70]))) for w in weights]
    if items:
        for k in data.draw(st.sets(st.integers(0, len(items) - 1), max_size=3)):
            terms, eps3 = items[k]
            swapped = _sigma_swapped(terms) if data.draw(st.booleans()) else None
            if swapped is None:
                e = data.draw(st.sampled_from(sorted(terms)))
                swapped = _bumped(terms, e, data.draw(st.sampled_from([-2, -1, 1, 2])))
            items[k] = (swapped, eps3)
    assert hamiltonian.residuals_vanish(items) is _one_pass_each(items)


@pytest.fixture
def packed_chunks(monkeypatch):
    """The size of each packed chunk, in the order they run."""
    chunks = []
    packed = hamiltonian._chunk_vanishes

    def counted_packed(chunk):
        chunks.append(len(chunk))
        return packed(chunk)

    monkeypatch.setattr(hamiltonian, "_chunk_vanishes", counted_packed)
    return chunks


def _scaled(item, shift):
    terms, eps3 = item
    return {e: c << shift for e, c in terms.items()}, eps3


def test_packed_residuals_at_the_chunk_edge(packed_chunks):
    assert hamiltonian._CHUNK == 64
    items = [_eigenpair(w) for w in DEGREE_4 if 2 <= sum(w) <= 3][:65]
    terms, eps3 = items[-1]
    broken = (_sigma_swapped(terms) or _bumped(terms, next(iter(terms))), eps3)
    for size, shape in ((64, [64]), (65, [64, 1])):
        packed_chunks.clear()
        assert hamiltonian.residuals_vanish(items[:size]) is True
        assert packed_chunks == shape
        # the last member alone is wrong: the last chunk, or the only one
        assert hamiltonian.residuals_vanish(items[:size - 1] + [broken]) is False
        assert hamiltonian.residuals_vanish([broken] + items[1:size]) is False
    assert hamiltonian.residuals_vanish([]) is True


def test_packed_residuals_of_a_member_with_coefficients_over_2_31(packed_chunks):
    # 2**31 times a character is an eigenfunction whose coefficients need
    # digits wider than 32 bits: the payment's width grows, and it is packed
    # with the small member in one chunk
    terms, eps3 = _eigenpair((0, 1, 0, 0, 1, 0))
    big = {e: c << 31 for e, c in terms.items()}
    small = _eigenpair((1, 0, 0, 0, 0, 1))
    assert hamiltonian.residuals_vanish([small, (big, eps3)]) is True
    assert packed_chunks == [2]
    e = next(e for e in big if e != (0, 1, 0, 0, 1, 0))
    assert hamiltonian.residuals_vanish([small, (_bumped(big, e), eps3)]) is False


def test_packed_residuals_of_small_and_large_members_in_one_payment(packed_chunks):
    # members of 2**0, 2**31 and 2**70 times a character, interleaved in one
    # payment: all are packed in one chunk, and a fault in any member is found
    pairs = [_eigenpair(w) for w in [(1, 1, 0, 0, 0, 0), (2, 0, 0, 0, 0, 1),
                                     (0, 2, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0)]]
    items = [pairs[0], _scaled(pairs[1], 31), _scaled(pairs[2], 70), pairs[3]]
    assert hamiltonian.residuals_vanish(items) is True
    assert packed_chunks == [4]
    for k, (terms, eps3) in enumerate(items):
        broken = items[:k] + [(_bumped(terms, next(iter(terms))), eps3)] + items[k + 1:]
        assert hamiltonian.residuals_vanish(broken) is _one_pass_each(broken) is False


def test_packed_residuals_do_not_cancel_across_digits():
    # members 0 and 1 bumped at one exponent by 2**k and by -1: their
    # residuals are 2**k * r and -r, which cancel if member 1 sits at digit
    # width k; the width worked out from the payment exceeds every such k
    terms, eps3 = _eigenpair((1, 0, 0, 0, 0, 1))
    e = next(e for e in terms if e != (1, 0, 0, 0, 0, 1))
    for k in range(1, 80):
        items = [(_bumped(terms, e, 1 << k), eps3), (_bumped(terms, e, -1), eps3)]
        assert hamiltonian.residuals_vanish(items) is False, k


def test_packed_residuals_do_not_cancel_across_digits_of_a_later_chunk():
    # as above, but the bumped pair is 2**70 times a character and fills the
    # second chunk behind 64 small eigenpairs: the width that chunk works out
    # from its own members exceeds every k, where the first chunk's would not
    small = [_eigenpair(w) for w in DEGREE_4 if 2 <= sum(w) <= 3][:64]
    terms, eps3 = _scaled(_eigenpair((1, 0, 0, 0, 0, 1)), 70)
    e = next(e for e in terms if e != (1, 0, 0, 0, 0, 1))
    for k in range(1, 80):
        items = small + [(_bumped(terms, e, 1 << k), eps3), (_bumped(terms, e, -1), eps3)]
        assert hamiltonian.residuals_vanish(items) is False, k


def test_packed_residuals_on_an_empty_index(fresh_index):
    # exponents the index has not met get ids and rows, as one pass would give them
    items = [_eigenpair(w) for w in [(0, 0, 0, 1, 0, 0), (2, 0, 0, 0, 0, 1), (0, 2, 0, 0, 0, 0)]]
    terms, eps3 = items[1]
    broken = (_sigma_swapped(terms), eps3)
    with fresh_index() as index:
        assert hamiltonian.residuals_vanish(items) is True
        assert all(index.rows[index.ids[e]] for t, _ in items for e in t)
        assert hamiltonian.residuals_vanish(items + [broken]) is False
    with fresh_index():
        assert hamiltonian.residuals_vanish([broken]) is _one_pass_each([broken]) is False
