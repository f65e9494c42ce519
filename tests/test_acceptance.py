"""Acceptance facts that no `e6cs verify` suite states: the sizes of the
shipped reference data and how its loaders refuse a planted fault, spot
multiplicities of l3 x l4 and z4^3, and the closed-form z1 * chi(n l_k)
product families.  The suites themselves are gated once, by the pinned
output of `e6cs verify --suite=all` in test_cli.py.  Every comparison is
exact."""

import re

import pytest

from e6cs import golden, lattice, tensor

REFERENCE_SIZES = {
    golden.characters_degree2: 28,
    golden.characters_degree3: 32,
    golden.series_quadratic: 21,
    golden.series_cubic: 31,
    golden.tensor_candidates_l3_l4: 14,
}


@pytest.fixture
def planted_reference(monkeypatch):
    """The loaders of golden read the files of this dict instead of the
    shipped ones; their caches are emptied before and after."""
    def forget():
        for loader in (*REFERENCE_SIZES, golden.all_characters):
            loader.cache_clear()

    files = {}
    forget()
    monkeypatch.setattr(golden, "_read", files.__getitem__)
    yield files
    forget()


@pytest.mark.parametrize("name, records, fault", [
    ("characters_degree2.json", [{"weight": [1.5, 0, 0, 0, 0, 0], "terms": []}],
     "(1.5, 0, 0, 0, 0, 0)"),
    ("characters_degree3.json", [{"weight": [0, 0, -1, 0, 0, 0], "terms": []}],
     "not a dominant weight: (0, 0, -1, 0, 0, 0)"),
    ("series_cubic.json", [{"monomial": [1, 0, 0], "factors": [], "terms": []}],
     "not a vector of six labels: (1, 0, 0)"),
    ("tensor_candidates_l3_l4.json", [{"weight": [True, 0, 0, 0, 0, 0], "dim": 27}],
     "(True, 0, 0, 0, 0, 0)"),
    # a repeated weight: the last record would replace the first
    ("characters_degree2.json", [{"weight": [2, 0, 0, 0, 0, 0], "terms": []},
                                 {"weight": [2, 0, 0, 0, 0, 0], "terms": []}],
     "repeated weight (2, 0, 0, 0, 0, 0)"),
    ("characters_degree3.json", [{"weight": [0, 0, 0, 1, 0, 0], "terms": []},
                                 {"weight": [0, 0, 0, 1, 0, 0], "terms": []}],
     "repeated weight (0, 0, 0, 1, 0, 0)"),
    ("series_quadratic.json", [{"factors": [], "terms": [{"weight": [0] * 6, "mult": 1},
                                                         {"weight": [0] * 6, "mult": 1}]}],
     "repeated weight (0, 0, 0, 0, 0, 0)"),
    ("series_cubic.json", [{"monomial": [0, 0, 0, 2, 0, 0], "factors": [], "terms": []},
                           {"monomial": [0, 0, 0, 2, 0, 0], "factors": [], "terms": []}],
     "repeated monomial (0, 0, 0, 2, 0, 0)"),
    ("tensor_candidates_l3_l4.json", [{"weight": [0, 0, 0, 1, 0, 0], "dim": 2925},
                                      {"weight": [0, 0, 0, 1, 0, 0], "dim": 2925}],
     "repeated weight (0, 0, 0, 1, 0, 0)"),
    # int() would round this to 2925
    ("tensor_candidates_l3_l4.json", [{"weight": [0, 0, 0, 1, 0, 0], "dim": 2925.9}],
     "dimension must be an int"),
])
def test_reference_weights_and_dimensions_are_read_exactly(planted_reference, name, records,
                                                           fault):
    planted_reference[name] = records
    loader = getattr(golden, name.removesuffix(".json"))
    with pytest.raises(ValueError, match=re.escape(fault)):
        loader()


# spot multiplicities of two shipped series; the l3 x l4 ones include the five
# left to the dimension count and the lowest term, pinned jointly by the
# dimension balance, the orthogonality identity and the series display itself
L3_L4 = {(0, 1, 1, 0, 0, 0): 2, (1, 0, 0, 0, 1, 0): 2, (0, 1, 0, 0, 0, 1): 2,
         (0, 0, 0, 0, 2, 0): 1, (0, 2, 0, 0, 0, 1): 1, (0, 0, 0, 1, 0, 1): 1,
         (2, 1, 0, 0, 0, 0): 1, (1, 0, 0, 0, 0, 2): 1, (0, 0, 0, 0, 0, 1): 1}
Z4_CUBED = {(1, 0, 0, 1, 0, 1): 156, (1, 1, 0, 0, 0, 1): 150, (0, 0, 1, 0, 1, 0): 128,
            (0, 0, 0, 0, 0, 0): 2}


def test_reference_data_sizes():
    assert {load: len(load()) for load in REFERENCE_SIZES} == REFERENCE_SIZES


def test_l3_l4_spot_multiplicities():
    series = tensor.tensor_decompose((0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0))
    assert {w: series.multiplicity(w) for w in L3_L4} == L3_L4


def test_z4_cubed_spot_multiplicities():
    series = tensor.monomial_decompose((0, 0, 0, 3, 0, 0))
    assert {w: series.multiplicity(w) for w in Z4_CUBED} == Z4_CUBED


CLOSED_FORMS = {
    1: lambda n: [(n + 1, 0, 0, 0, 0, 0), (n - 1, 0, 1, 0, 0, 0), (n - 1, 0, 0, 0, 0, 1)],
    2: lambda n: [(1, n, 0, 0, 0, 0), (0, n - 1, 0, 0, 1, 0), (1, n - 1, 0, 0, 0, 0)],
    3: lambda n: [(1, 0, n, 0, 0, 0), (0, 0, n - 1, 1, 0, 0), (0, 1, n - 1, 0, 0, 0),
                  (1, 0, n - 1, 0, 0, 1)],
    4: lambda n: [(1, 0, 0, n, 0, 0), (0, 1, 0, n - 1, 1, 0), (0, 0, 1, n - 1, 0, 1),
                  (1, 1, 0, n - 1, 0, 0), (0, 0, 0, n - 1, 1, 0)],
    5: lambda n: [(1, 0, 0, 0, n, 0), (0, 1, 0, 0, n - 1, 1), (0, 0, 1, 0, n - 1, 0),
                  (0, 0, 0, 0, n - 1, 1)],
    6: lambda n: [(1, 0, 0, 0, 0, n), (0, 1, 0, 0, 0, n - 1), (0, 0, 0, 0, 0, n - 1)],
}


def test_closed_form_product_families():
    l1 = lattice.fundamental_weight(1)
    for k in range(1, 7):
        for n in (2, 3, 4):
            series = tensor.tensor_decompose(l1, tuple(n * x for x in lattice.fundamental_weight(k)))
            expected = {w: 1 for w in CLOSED_FORMS[k](n)}
            assert series.terms == expected, (k, n)
