import hashlib
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e6cs import lattice
from e6cs.errors import InternalInconsistencyError, NonIntegralError

RHO = (8, 11, 15, 21, 15, 8)


def test_positive_root_count_and_histogram():
    roots = lattice.positive_roots()
    assert len(roots) == 36
    hist = {}
    for r in roots:
        hist[lattice.height(r)] = hist.get(lattice.height(r), 0) + 1
    assert [hist.get(h, 0) for h in range(1, 12)] == [6, 5, 5, 5, 4, 3, 3, 2, 1, 1, 1]


def test_highest_root():
    top = max(lattice.positive_roots(), key=lattice.height)
    assert top == (1, 2, 2, 3, 2, 1)


def test_simple_roots_have_height_one():
    ones = [r for r in lattice.positive_roots() if lattice.height(r) == 1]
    assert sorted(ones) == sorted(lattice.fundamental_weight(k) for k in range(1, 7))


def test_roots_sum_to_twice_weyl_vector():
    roots = lattice.positive_roots()
    assert tuple(sum(r[i] for r in roots) for i in range(6)) == tuple(2 * x for x in RHO)


def test_weyl_vector():
    rho = lattice.weyl_vector_in_root_basis()
    assert rho == RHO
    assert lattice.height(rho) == 78
    assert lattice.from_root_basis(rho) == (1, 1, 1, 1, 1, 1)


def test_to_root_basis():
    assert lattice.to_root_basis((1, 1, 1, 1, 1, 1)) == RHO
    assert lattice.to_root_basis((0,) * 6) == (0,) * 6
    with pytest.raises(NonIntegralError):
        lattice.to_root_basis((1, 0, 0, 0, 0, 0))
    with pytest.raises(NonIntegralError):
        lattice.to_root_basis((2, -1, 0, 1, 0, 0))


def test_round_trip_through_bases():
    for v in [(1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 2, 3), RHO]:
        assert lattice.to_root_basis(lattice.from_root_basis(v)) == v


def test_inner_product():
    rho_labels = (1,) * 6
    assert lattice.inner_product(rho_labels, rho_labels) == 78
    assert lattice.inner_product((0,) * 6, (3, 1, 4, 1, 5, 9)) == 0
    l1 = lattice.fundamental_weight(1)
    assert lattice.inner_product(l1, l1) == Fraction(4, 3)
    assert lattice.inner_product(l1, rho_labels) == 8
    # symmetry and bilinearity spot
    u, v = (1, 2, 0, 1, 0, 3), (0, 1, 1, 0, 2, 0)
    assert lattice.inner_product(u, v) == lattice.inner_product(v, u)
    w = tuple(a + 2 * b for a, b in zip(u, v))
    assert lattice.inner_product(w, u) == lattice.inner_product(u, u) + 2 * lattice.inner_product(v, u)


def test_weyl_dimension_fundamentals():
    dims = [lattice.weyl_dimension(lattice.fundamental_weight(k)) for k in range(1, 7)]
    assert dims == [27, 78, 351, 2925, 351, 27]


def test_weyl_dimension_examples():
    assert lattice.weyl_dimension((0,) * 6) == 1
    assert lattice.weyl_dimension((0, 0, 1, 1, 0, 0)) == 386100
    assert lattice.weyl_dimension((1, 1, 0, 0, 1, 0)) == 314496


def test_weyl_dimension_conjugation_invariance():
    from itertools import product
    for m in product(range(4), repeat=6):
        if sum(m) <= 3:
            assert lattice.weyl_dimension(m) == lattice.weyl_dimension(lattice.conjugate(m))


@settings(max_examples=60)
@given(st.tuples(*([st.integers(0, 3)] * 6)))
def test_weyl_dimension_memo_matches_product_formula(m):
    # Weyl's formula from scratch: prod over positive roots a of
    # (m + rho, a) / (rho, a), with (l_i, a_j) = delta_ij
    expect = Fraction(1)
    for r in lattice.positive_roots():
        expect *= Fraction(sum(c * (x + 1) for c, x in zip(r, m)), sum(r))
    assert expect.denominator == 1
    assert lattice.weyl_dimension(m) == expect  # first call may compute
    assert lattice.weyl_dimension(list(m)) == expect  # repeat is a lookup
    for bad in [(-1, 0, 0, 0, 0, 0), (0,) * 5, (0,) * 7, (1.5, 0, 0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            lattice.weyl_dimension(bad)


def test_dominant_weights_below_candidate_table():
    got = lattice.dominant_weights_below((0, 0, 1, 1, 0, 0))
    assert got == [
        (0, 0, 1, 1, 0, 0), (1, 1, 0, 0, 1, 0), (1, 0, 1, 0, 0, 1), (0, 0, 0, 0, 2, 0),
        (0, 2, 0, 0, 0, 1), (0, 0, 0, 1, 0, 1), (2, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0),
        (1, 0, 0, 0, 0, 2), (1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1), (2, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1),
    ]


def test_dominant_weights_below_edge_cases():
    assert lattice.dominant_weights_below((0,) * 6) == [(0,) * 6]
    assert lattice.dominant_weights_below((1, 0, 0, 0, 0, 0)) == [(1, 0, 0, 0, 0, 0)]


def test_dominant_weights_below_downward_closed():
    outer = lattice.dominant_weights_below((0, 0, 1, 1, 0, 0))
    outer_set = set(outer)
    for mu in outer:
        assert set(lattice.dominant_weights_below(mu)) <= outer_set


# Digest of the ordered lists below every weight with label sum <= 4, recorded
# from the earlier root-basis box-scan implementation.
SEED_DIGEST_LABEL_SUM_4 = "376fd9a017c2a2f5409379a6c83c2d7e5b7c2b622e7b1dc89c5de5581126ba26"
LABEL_SUM_4 = sorted(w for w in itertools.product(range(5), repeat=6) if sum(w) <= 4)


def test_dominant_weights_below_matches_seed_digest():
    assert len(LABEL_SUM_4) == 210
    got = repr([lattice.dominant_weights_below(w) for w in LABEL_SUM_4])
    assert hashlib.sha256(got.encode()).hexdigest() == SEED_DIGEST_LABEL_SUM_4


@pytest.mark.parametrize("m, count", [
    ((1, 1, 1, 2, 1, 1), 578),
    ((0, 0, 0, 5, 0, 0), 633),
    ((2, 2, 2, 2, 2, 2), 4679),
])
def test_dominant_weights_below_counts(m, count):
    assert len(lattice.dominant_weights_below(m)) == count


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LABEL_SUM_4))
def test_dominant_weights_below_properties(m):
    got = lattice.dominant_weights_below(m)
    assert got[0] == m
    drops = []
    for mu in got:
        assert all(x >= 0 for x in mu)
        diff = lattice.to_root_basis(tuple(a - b for a, b in zip(m, mu)))
        assert all(x >= 0 for x in diff)
        drops.append(lattice.height(diff))
    keys = list(zip(drops, got))
    assert all(a < b for a, b in zip(keys, keys[1:]))
    got_set = set(got)
    for mu in got:
        assert set(lattice.dominant_weights_below(mu)) <= got_set


def test_conjugate():
    assert lattice.conjugate((1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)
    assert lattice.conjugate((0, 1, 0, 1, 0, 0)) == (0, 1, 0, 1, 0, 0)
    w = (3, 1, 4, 1, 5, 9)
    assert lattice.conjugate(lattice.conjugate(w)) == w
    for w in [(1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 5)]:
        with pytest.raises(ValueError, match=re.escape(f"not a vector of six labels: {w}")):
            lattice.conjugate(w)


def test_cartan_inverse_exact():
    for i in range(6):
        for j in range(6):
            assert type(lattice.CARTAN_INVERSE_X3[i][j]) is int
            assert sum(lattice.CARTAN[i][k] * lattice.CARTAN_INVERSE_X3[k][j]
                       for k in range(6)) == 3 * (i == j)


def test_tables_from_roots_check_what_they_derive():
    roots = lattice.positive_roots()
    assert lattice._tables_from_roots(lattice.CARTAN, roots) == (
        lattice.CARTAN_INVERSE_X3, RHO)
    with pytest.raises(InternalInconsistencyError, match="Cartan matrix inverse is wrong"):
        lattice._tables_from_roots(lattice.CARTAN, roots[:-1])
    # a negated root leaves the sum of a a^T alone: only the Weyl vector check sees it
    negated = [tuple(-x for x in roots[0])] + roots[1:]
    with pytest.raises(InternalInconsistencyError,
                       match="positive roots do not sum to twice the Weyl vector"):
        lattice._tables_from_roots(lattice.CARTAN, negated)


def _renumbered(mat, perm):
    return tuple(tuple(mat[perm[i]][perm[j]] for j in range(6)) for i in range(6))


SWAP_1_2 = (1, 0, 2, 3, 4, 5)  # E6 with nodes 1 and 2 renumbered: conjugate is no symmetry


@pytest.mark.parametrize("part, fault", [
    ("cartan", "does not fix the Cartan matrix"),
    ("inverse", "does not fix the inverse Cartan matrix"),
    ("roots", "does not permute the positive roots"),
    ("dims", "does not fix the fundamental dimensions"),
])
def test_diagram_symmetry_check_rejects_data_it_does_not_fix(part, fault):
    data = {"cartan": lattice.CARTAN, "inverse": lattice.CARTAN_INVERSE_X3,
            "roots": lattice.positive_roots(), "dims": lattice.FUNDAMENTAL_DIMENSIONS}
    lattice._check_diagram_symmetry(*data.values())
    data[part] = {
        "cartan": _renumbered(lattice.CARTAN, SWAP_1_2),
        "inverse": _renumbered(lattice.CARTAN_INVERSE_X3, SWAP_1_2),
        "roots": [tuple(r[i] for i in SWAP_1_2) for r in lattice.positive_roots()],
        "dims": (27, 78, 351, 2925, 27, 351),
    }[part]
    with pytest.raises(InternalInconsistencyError, match=fault):
        lattice._check_diagram_symmetry(*data.values())


def test_eps3_spot_values_and_conjugation_invariance():
    assert lattice.eps3((2, 0, 0, 0, 0, 0)) == 224 and lattice.eps3((0, 0, 1, 0, 0, 0)) == 200
    for m in itertools.product(range(3), repeat=6):
        assert lattice.eps3(lattice.conjugate(m)) == lattice.eps3(m)


@pytest.mark.parametrize("parts, expect", [
    (["1", "0", "0", "0", "0", "12"], (1, 0, 0, 0, 0, 12)),
    (["01", "0", "0", "0", "0", "0"], (1, 0, 0, 0, 0, 0)),  # a cache name would be stray
    (["1_0", "0", "0", "0", "0", "0"], None),
    (["", "0", "0", "0", "0", "0"], None),
    (["1", "0", "0", "0", "0"], None),
])
def test_parse_labels_takes_plain_ascii_decimal_only(parts, expect):
    assert lattice.parse_labels(parts) == expect


def test_parse_labels_bounds_the_digits_of_a_label():
    labels = ["9" * lattice.DIGIT_LIMIT] + ["0"] * 5
    assert lattice.parse_labels(labels)[0] == 10 ** lattice.DIGIT_LIMIT - 1
    with pytest.raises(ValueError, match="^a number of 1001 digits, over the limit of 1000$"):
        lattice.parse_labels(["1" + labels[0]] + labels[1:])
