import re

import pytest

from e6cs import characters, lattice, tensor, verify
from e6cs.errors import (InternalInconsistencyError, NegativeMultiplicityError,
                         NonzeroResidualError)
from e6cs.characters import Character
from e6cs.ring import parse_polynomial
from e6cs.tensor import CGSeries, monomial_decompose, tensor_decompose

L = lattice.fundamental_weight


def test_minuscule_times_conjugate():
    series = tensor_decompose(L(1), L(6))
    assert series.terms == {(1, 0, 0, 0, 0, 1): 1, (0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0, 0): 1}


def test_trivial_factor_is_identity():
    series = tensor_decompose((0,) * 6, (0, 1, 0, 1, 0, 0))
    assert series.terms == {(0, 1, 0, 1, 0, 0): 1}


def test_product_l3_l4():
    series = tensor_decompose(L(3), L(4))
    assert len(series.terms) == 14
    assert series.multiplicity((0, 1, 1, 0, 0, 0)) == 2
    assert series.multiplicity((1, 0, 0, 0, 1, 0)) == 2
    assert series.multiplicity((0, 1, 0, 0, 0, 1)) == 2
    assert series.multiplicity((0, 0, 0, 0, 0, 1)) == 1
    assert series.total_dimension() == 351 * 2925
    # ordered terms follow increasing drop height from the top weight
    assert [w for w, _ in series.sorted_terms()] == lattice.dominant_weights_below((0, 0, 1, 1, 0, 0))


def test_product_l4_l4_spot_multiplicities():
    series = tensor_decompose(L(4), L(4))
    assert len(series.terms) == 24
    assert series.multiplicity((1, 1, 0, 0, 0, 1)) == 4
    assert series.multiplicity((0, 0, 1, 0, 1, 0)) == 3
    assert series.multiplicity((1, 0, 0, 0, 0, 1)) == 3
    assert series.total_dimension() == 2925 * 2925


def test_commutativity():
    a = tensor_decompose(L(2), L(5))
    b = tensor_decompose(L(5), L(2))
    assert a.terms == b.terms


def test_conjugation_equivariance():
    for i, j in [(1, 2), (3, 4), (2, 4)]:
        series = tensor_decompose(L(i), L(j))
        conj = tensor_decompose(lattice.conjugate(L(i)), lattice.conjugate(L(j)))
        assert {lattice.conjugate(w): m for w, m in series.terms.items()} == conj.terms


def test_monomial_cube_of_z1():
    series = monomial_decompose((3, 0, 0, 0, 0, 0))
    assert series.terms == {
        (3, 0, 0, 0, 0, 0): 1, (1, 0, 1, 0, 0, 0): 2, (0, 0, 0, 1, 0, 0): 1,
        (1, 0, 0, 0, 0, 1): 3, (0, 1, 0, 0, 0, 0): 2, (0, 0, 0, 0, 0, 0): 1,
    }
    assert series.factors == (L(1), L(1), L(1))


def test_monomial_single_variable():
    series = monomial_decompose((0, 1, 0, 0, 0, 0))
    assert series.terms == {(0, 1, 0, 0, 0, 0): 1}


def test_monomial_z1z2z3():
    series = monomial_decompose((1, 1, 1, 0, 0, 0))
    assert len(series.terms) == 13
    assert series.multiplicity((1, 0, 0, 0, 0, 1)) == 5
    assert series.multiplicity((0, 1, 0, 0, 0, 0)) == 3
    assert series.multiplicity((0, 0, 0, 0, 0, 0)) == 1


def test_orthogonality_examples():
    assert tensor_decompose(L(1), L(2)).multiplicity(L(5)) == 1
    assert tensor_decompose(L(5), L(6)).multiplicity(L(2)) == 1


def _orthogonality_check(checks):
    (check,) = [c for c in checks if c.name.startswith("orthogonality")]
    return check


def test_duality_suite_decomposes_each_fundamental_product_once(monkeypatch):
    calls = []
    decompose = tensor.tensor_decompose

    def counted(m, n):
        calls.append((tuple(m), tuple(n)))
        return decompose(m, n)

    monkeypatch.setattr(tensor, "tensor_decompose", counted)
    check = _orthogonality_check(verify.suite_duality())
    assert check.name == "orthogonality identity on all 216 triples" and check.ok
    assert sorted(calls) == sorted((L(a), L(b)) for a in range(1, 7) for b in range(1, 7))


def test_duality_suite_catches_a_wrong_multiplicity(monkeypatch):
    decompose = tensor.tensor_decompose

    def off_by_one(m, n):
        series = decompose(m, n)
        if (tuple(m), tuple(n)) == (L(1), L(6)):
            terms = dict(series.terms)
            terms[L(2)] += 1
            return CGSeries(series.factors, terms)
        return series

    monkeypatch.setattr(tensor, "tensor_decompose", off_by_one)
    check = _orthogonality_check(verify.suite_duality())
    assert not check.ok
    assert "(1, 6, 2)" in check.detail


def test_series_json_round_trip():
    series = tensor_decompose(L(2), L(3))
    again = CGSeries.from_json(series.to_json())
    assert again == series
    # serialized order follows increasing drop height
    obj = series.to_json()
    tops = [tuple(rec["weight"]) for rec in obj["terms"]]
    assert tops[0] == series.top


@pytest.mark.parametrize("mult", [2.9, True, 0, -1, "2"])
def test_series_json_rejects_a_multiplicity_that_is_not_a_positive_int(mult):
    rec = {"weight": [1, 0, 0, 0, 0, 0], "mult": mult}
    with pytest.raises(ValueError, match=re.escape(str(rec))):
        CGSeries.from_json({"factors": [[1, 0, 0, 0, 0, 0]], "terms": [rec]})


def test_peeling_detects_negative_multiplicity():
    # poison the in-memory cache for chi(l3) and watch the engine object
    characters.clear_memory_cache()
    try:
        bad = Character((0, 0, 1, 0, 0, 0), parse_polynomial("z3 + 2*z6"), "golden")
        characters._MEMORY[(0, 0, 1, 0, 0, 0)] = bad
        with pytest.raises(NegativeMultiplicityError):
            tensor_decompose(L(2), L(6))
    finally:
        characters.clear_memory_cache()


def test_peeling_detects_nonzero_residual():
    characters.clear_memory_cache()
    try:
        bad = Character((0, 0, 1, 0, 0, 0), parse_polynomial("z3 - z5"), "golden")
        characters._MEMORY[(0, 0, 1, 0, 0, 0)] = bad
        with pytest.raises(NonzeroResidualError):
            tensor_decompose(L(2), L(6))
    finally:
        characters.clear_memory_cache()


def test_zero_multiplicity_candidates_are_dropped():
    series = tensor_decompose(L(1), L(1))
    assert series.terms == {(2, 0, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 1, (0, 0, 0, 0, 0, 1): 1}
    assert all(m > 0 for m in series.terms.values())


@pytest.mark.parametrize("series", [
    lambda: tensor_decompose(L(2), L(3)),
    lambda: monomial_decompose((1, 0, 1, 0, 0, 1)),
])
def test_series_check_applies_the_casimir_sum_rule(series):
    # chi(2,0,0,0,0,0) and chi(0,0,1,0,0,0) both have dimension 351, with eps3
    # 224 and 200: moving one multiplicity keeps the dimension balance
    series = series()
    tensor._check_series(series)
    terms = dict(series.terms)
    terms[(2, 0, 0, 0, 0, 0)] += 1
    terms[(0, 0, 1, 0, 0, 0)] -= 1
    moved = CGSeries(series.factors, {w: m for w, m in terms.items() if m})
    assert moved.total_dimension() == series.total_dimension()
    factors = " x ".join(map(str, series.factors))
    with pytest.raises(InternalInconsistencyError,
                       match=re.escape(f"Casimir sum rule fails for {factors}")):
        tensor._check_series(moved)


@pytest.mark.parametrize("change, fault", [
    (lambda terms: terms.update({(2, 0, 0, 0, 0, 0): 2}),
     "top weight (2, 0, 0, 0, 0, 0) does not appear with multiplicity 1"),
    (lambda terms: terms.pop((0, 0, 0, 0, 0, 1)),
     "dimension balance fails for (1, 0, 0, 0, 0, 0) x (1, 0, 0, 0, 0, 0)"),
])
def test_series_check_applies_top_multiplicity_and_dimension_balance(change, fault):
    series = tensor_decompose(L(1), L(1))
    terms = dict(series.terms)
    change(terms)
    with pytest.raises(InternalInconsistencyError, match=re.escape(fault)):
        tensor._check_series(CGSeries(series.factors, terms))
