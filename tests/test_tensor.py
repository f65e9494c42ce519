import json
import re
import shutil

import pytest

from e6cs import characters, hamiltonian, lattice, tensor, verify
from e6cs.cli import main
from e6cs.errors import (CacheCorruptError, InternalInconsistencyError,
                         NegativeMultiplicityError, NonzeroResidualError)
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
    assert len(series.terms) == 14  # spot multiplicities: test_acceptance.L3_L4
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


def test_duality_suite_names_a_character_whose_sigma_image_is_wrong(monkeypatch):
    w, image = (2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 2)
    lookup = verify.character

    def unswapped(m):  # chi(image) comes back as chi(w), not as sigma of it
        return lookup(w if tuple(m) == image else m)

    monkeypatch.setattr(verify, "character", unswapped)
    (check,) = [c for c in verify.suite_duality() if c.name.startswith("conjugation")]
    assert not check.ok
    assert check.detail == f"expected no mismatches, computed {[image, w]}"


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


# ---------------------------------------------------------------------------
# A peel owes the eigenfunction proofs of its cache hits and pays them together
# ---------------------------------------------------------------------------
SCALEUP = ((1, 1, 1, 1, 1, 1), (0, 0, 0, 1, 0, 0))
SWAPPED = (1, 1, 1, 0, 1, 4)  # a hit of the scale-up peel; sigma(SWAPPED) = (4, 1, 1, 0, 1, 1)
LATER = (1, 2, 0, 1, 2, 0)  # the candidate the peel reaches right after SWAPPED


@pytest.fixture(scope="module")
def scaleup_cache(tmp_path_factory):
    """The cache entries of the scale-up product and its series, computed once."""
    path = tmp_path_factory.mktemp("scaleup-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(characters.CACHE_ENV, str(path))
        characters.clear_memory_cache()
        series = tensor_decompose(*SCALEUP)
        characters.clear_memory_cache()
    return path, series


@pytest.fixture
def warm_scaleup(scaleup_cache, isolated_cache):
    """A copy of the scale-up entries as this test's cache, as in a new process."""
    source, series = scaleup_cache
    for entry in source.iterdir():
        shutil.copy(entry, isolated_cache)
    return isolated_cache, series


def _sigma_swap_entry(w, term_index):
    """Exchange the coefficients of chi(w) at (0,1,0,2,1,1) and at its sigma
    image (1,1,1,2,0,0): the dimension stays, the eigenfunction breaks."""
    path = characters.cache_path(w)
    payload = json.loads(path.read_text())
    coefs = payload["coefs"]
    i, j = term_index(payload, (0, 1, 0, 2, 1, 1)), term_index(payload, (1, 1, 1, 2, 0, 0))
    assert coefs[i] != coefs[j]
    coefs[i], coefs[j] = coefs[j], coefs[i]
    path.write_text(json.dumps(payload))
    return path


def test_an_owed_proof_that_fails_names_its_entry_and_nothing_is_computed(
        warm_scaleup, capsys, term_index):
    # the peel reaches the missing LATER after the swapped hit: it pays the owed
    # proof first, which fails with the message of a lookup that proves at once
    cache, _ = warm_scaleup
    path = _sigma_swap_entry(SWAPPED, term_index)
    characters.cache_path(LATER).unlink()
    entries = sorted(cache.iterdir())
    assert main(["tensor", "1,1,1,1,1,1", "0,0,0,1,0,0", "--json"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        f"error: invalid cache entry {path}: character of (1, 1, 1, 0, 1, 4) is not an "
        "eigenfunction: (Delta - eps) chi has residual -144 at exponent (0, 1, 0, 2, 1, 1)\n")
    assert sorted(cache.iterdir()) == entries  # LATER was not computed, nothing was stored
    assert SWAPPED not in characters._MEMORY


def test_an_owed_proof_is_named_before_a_later_corrupt_hit(warm_scaleup, term_index):
    path = _sigma_swap_entry(SWAPPED, term_index)
    later = characters.cache_path(LATER)
    payload = json.loads(later.read_text())
    payload["coefs"][term_index(payload, LATER)] = 2
    later.write_text(json.dumps(payload))
    with pytest.raises(CacheCorruptError, match="^" + re.escape(
            f"invalid cache entry {path}: character of {SWAPPED} is not an eigenfunction")):
        tensor_decompose(*SCALEUP)
    assert SWAPPED not in characters._MEMORY and LATER not in characters._MEMORY
    # alone, the later entry is named for its own fault
    with pytest.raises(CacheCorruptError, match=re.escape(f"character of {LATER} is not monic")):
        characters.character(LATER)


def test_a_hit_that_fails_its_dimension_check_is_not_paid_into_the_memory_tier(warm_scaleup):
    # chi(SWAPPED) + chi(sigma(SWAPPED)) is monic, integral and an eigenfunction
    # of SWAPPED's eigenvalue, with twice its dimension: the peel rejects the
    # entry, and the payment when the peel ends must not admit it
    stored = characters.cache_path(SWAPPED)
    pair = [characters.decode_cache_entry(characters.cache_path(w).read_text()).poly
            for w in (SWAPPED, lattice.conjugate(SWAPPED))]
    doubled = pair[0] + pair[1]
    stored.write_text(characters.encode_cache_entry(Character(SWAPPED, doubled, "recursion")))
    dim = lattice.weyl_dimension(SWAPPED)
    message = (f"invalid cache entry {stored}: character of {SWAPPED} evaluates to {2 * dim}, "
               f"expected the Weyl dimension {dim}")
    with pytest.raises(CacheCorruptError, match="^" + re.escape(message) + "$"):
        tensor_decompose(*SCALEUP)
    assert SWAPPED not in characters._MEMORY
    with pytest.raises(CacheCorruptError, match="^" + re.escape(message) + "$"):
        characters.character(SWAPPED)


def test_a_hit_inherits_an_owed_proof_only_as_its_exact_sigma_image(warm_scaleup, term_index):
    # the peel reaches SWAPPED before its mate; the swapped mate is not sigma
    # of the owed SWAPPED, so it owes a residual of its own, which fails
    mate = lattice.conjugate(SWAPPED)
    candidates = lattice.dominant_weights_below(tuple(map(sum, zip(*SCALEUP))))
    assert candidates.index(SWAPPED) < candidates.index(mate)
    path = _sigma_swap_entry(mate, term_index)
    with pytest.raises(CacheCorruptError, match="^" + re.escape(
            f"invalid cache entry {path}: character of {mate} is not an eigenfunction")):
        tensor_decompose(*SCALEUP)


def test_a_row_that_fails_its_check_in_the_packed_pass_is_blamed_on_the_first_entry(
        isolated_cache, fresh_index, monkeypatch):
    # B[6] shifted off the eigenvalue breaks the diagonal of every row with
    # n6 >= 1; chi(2,0,0,0,0,0) = z1^2 - z3 - z6 is the first owed proof to
    # need the row of z6, as it is the first hit a lookup proves at once
    tensor_decompose(L(1), L(1))
    characters.clear_memory_cache()
    kernel = list(hamiltonian.tables())
    j, k, same, [(off, c)] = kernel[-1]
    kernel[-1] = (j, k, same, [(off, c + 3)])
    monkeypatch.setattr(hamiltonian, "_TABLES", kernel)
    with fresh_index(), pytest.raises(CacheCorruptError, match="^" + re.escape(
            f"invalid cache entry {characters.cache_path((2, 0, 0, 0, 0, 0))}: diagonal "
            f"coefficient of Delta z^{L(6)} disagrees with the eigenvalue formula")):
        tensor_decompose(L(1), L(1))


def test_a_miss_pays_the_owed_proofs_before_the_recursion_runs(warm_scaleup, monkeypatch):
    _, series = warm_scaleup
    characters.cache_path(LATER).unlink()
    events, loaded = [], []
    lookup, load = tensor.character, characters._load
    packed, recursion = hamiltonian.residuals_vanish, characters.character_recursion

    def watched_lookup(m, owed=None):
        ch = lookup(m, owed)
        assert owed is None or not owed.keys() & characters._MEMORY.keys()  # kept apart
        return ch

    def watched_load(m, owed=None):
        ch = load(m, owed)
        if ch is not None:
            loaded.append(m)
        return ch

    def watched_packed(items):
        events.append(("packed", len(items)))
        return packed(items)

    def watched_recursion(m):
        assert all(w in characters._MEMORY for w in loaded)  # every hit so far is proven
        events.append(("recursion", m))
        return recursion(m)

    monkeypatch.setattr(tensor, "character", watched_lookup)
    monkeypatch.setattr(characters, "_load", watched_load)
    monkeypatch.setattr(hamiltonian, "residuals_vanish", watched_packed)
    monkeypatch.setattr(characters, "character_recursion", watched_recursion)
    assert tensor_decompose(*SCALEUP) == series
    assert [kind for kind, _ in events] == ["packed", "recursion", "packed"]
    assert events[1] == ("recursion", LATER) and characters.cache_path(LATER).is_file()
    assert len(loaded) == 342 and all(w in characters._MEMORY for w in loaded)
