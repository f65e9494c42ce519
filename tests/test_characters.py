import hashlib
import json
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e6cs import characters, golden, hamiltonian, lattice, verify
from e6cs.characters import (character, character_annihilator,
                             character_recursion, validate_character)
from e6cs.cli import main
from e6cs.errors import (CacheCorruptError, DegenerateScaleError,
                         InternalInconsistencyError, ZeroDenominatorError)
from e6cs.ring import SparsePolynomial, parse_polynomial
from e6cs.tensor import CGSeries, monomial_decompose, tensor_decompose


def test_recursion_examples():
    cases = {
        (2, 0, 0, 0, 0, 0): "z1^2 - z3 - z6",
        (0, 0, 0, 1, 0, 0): "z4",
        (3, 0, 0, 0, 0, 0): "z1^3 + z2 - 2*z1*z3 + z4 - z1*z6",
        (1, 0, 0, 0, 0, 1): "z1*z6 - z2 - 1",
    }
    for w, expect in cases.items():
        ch = character_recursion(w)
        assert ch.poly == parse_polynomial(expect)
        assert ch.method == "recursion"


def test_annihilator_examples():
    cases = {
        (1, 1, 0, 0, 0, 0): "z1*z2 - z1 - z5",
        (0, 0, 0, 0, 0, 1): "z6",
        (0, 2, 0, 0, 0, 0): "z2^2 - z4 - z1*z6",
    }
    for w, expect in cases.items():
        ch = character_annihilator(w)
        assert ch.poly == parse_polynomial(expect)
        assert ch.method == "annihilator"


def test_trivial_character():
    assert character((0,) * 6).poly == SparsePolynomial.constant(1)


def test_dispatcher_uses_cache():
    w = (0, 1, 0, 0, 1, 0)
    first = character(w)
    assert first.method == "recursion"
    characters.clear_memory_cache()
    again = character(w)  # reloaded from disk
    assert again.poly == first.poly
    assert again.method == "recursion"


def test_third_order_character_from_reference_data():
    big = golden.characters_degree3()[(0, 0, 0, 3, 0, 0)]
    assert len(big.terms) == 46
    ch = character((0, 0, 0, 3, 0, 0))
    assert ch.poly == big


def test_methods_agree_on_sample():
    for w in [(0, 1, 1, 0, 0, 0), (1, 0, 0, 1, 0, 0), (0, 0, 2, 0, 0, 0), (2, 0, 0, 0, 0, 2),
              (1, 0, 0, 0, 0, 3), (1, 1, 0, 0, 0, 2)]:
        assert character_recursion(w).poly == character_annihilator(w).poly, w


def test_methods_agree_up_to_degree_three():
    for w in product(range(4), repeat=6):
        if sum(w) <= 3:
            assert character_recursion(w).poly == character_annihilator(w).poly, w


def test_annihilator_applies_one_factor_per_distinct_eigenvalue(monkeypatch):
    # 86 dominant weights lie below (0,0,0,3,0,0), with 38 distinct eigenvalues
    w = (0, 0, 0, 3, 0, 0)
    below = [mu for mu in lattice.dominant_weights_below(w) if mu != w]
    assert (len(below), len({hamiltonian.eigenvalue_x3(mu) for mu in below})) == (86, 38)
    factors = []
    scatter = hamiltonian._shifted_image_ids

    def counted(poly, eps3):
        factors.append(eps3)
        return scatter(poly, eps3)

    monkeypatch.setattr(hamiltonian, "_shifted_image_ids", counted)
    assert character_annihilator(w).poly == golden.characters_degree3()[w]
    assert len(factors) == len(set(factors)) == 38


def test_character_invariants_sampled():
    for w in [(2, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (1, 1, 1, 0, 0, 0)]:
        ch = character_recursion(w)
        validate_character(ch)
        # monic and integral, explicitly
        assert ch.poly.terms[w] == 1
        assert all(isinstance(c, int) for c in ch.poly.terms.values())
        # eigenfunction, through the public operator
        eps = hamiltonian.eigenvalue(w, 1)
        assert hamiltonian.apply_delta(ch.poly) == ch.poly.scaled(eps)


def test_support_lies_below_the_weight():
    for w in [(1, 0, 1, 0, 0, 0), (0, 0, 0, 2, 0, 0), (0, 1, 0, 0, 0, 2)]:
        poly = character(w).poly
        for e in poly.terms:
            diff = lattice.to_root_basis(tuple(a - b for a, b in zip(w, e)))
            assert all(x >= 0 for x in diff)


def test_duality_on_degree_two():
    for m in product(range(3), repeat=6):
        if sum(m) == 2:
            conj = lattice.conjugate(m)
            assert character(m).poly.conjugate_variables() == character(conj).poly


def test_cache_round_trip(isolated_cache):
    w = (1, 0, 0, 0, 0, 2)
    ch = character(w)
    path = characters.cache_path(w)
    assert path.is_file()
    payload = json.loads(path.read_text())
    assert payload["weight"] == list(w)
    assert payload["version"] == characters.CACHE_VERSION
    assert payload["method"] == "recursion"
    # bit-exact reload
    characters.clear_memory_cache()
    again = character(w)
    assert again.poly == ch.poly
    assert again.poly.to_records() == ch.poly.to_records()


def test_cache_corruption_detected(isolated_cache, term_index):
    w = (2, 0, 0, 0, 0, 0)
    character(w)
    path = characters.cache_path(w)
    payload = json.loads(path.read_text())
    # break an interior coefficient
    payload["coefs"][term_index(payload, (0, 0, 1, 0, 0, 0))] = 17
    path.write_text(json.dumps(payload))
    characters.clear_memory_cache()
    with pytest.raises(CacheCorruptError):
        character(w)


def test_cache_format_round_trip_is_bit_exact(isolated_cache):
    for w in [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 0, 0, 3, 0, 0), (1, 1, 0, 0, 1, 0)]:
        ch = character(w)
        payload = json.loads(characters.cache_path(w).read_text())
        assert list(payload) == ["weight", "version", "method", "exps", "coefs"]
        assert len(_exponents(payload)) == 6 * len(payload["coefs"]) == 6 * len(ch.poly.terms)
        characters.clear_memory_cache()
        again = character(w)
        assert again.weight == ch.weight and again.method == ch.method
        assert list(again.poly.terms.items()) == list(ch.poly.terms.items())
        assert all(type(c) is int for c in again.poly.terms.values())


def test_a_reloaded_entry_is_stored_again_byte_for_byte(isolated_cache):
    # a load keys its terms by the exponent index's tuples, in the file's order
    weights = [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1), (0, 0, 0, 3, 0, 0), (1, 1, 0, 0, 1, 0)]
    for w in weights:
        character(w)
    stored = {w: characters.cache_path(w).read_bytes() for w in weights}
    characters.clear_memory_cache()
    for w in weights:
        characters._store(character(w))
    assert {w: characters.cache_path(w).read_bytes() for w in weights} == stored


def test_the_scaleup_product_is_pinned_cold_and_warm(isolated_cache, fresh_index, monkeypatch):
    # the benchmark's query, computed on an empty cache, then loaded from it with
    # the memory tier emptied as in a new process.  Both factors are
    # self-conjugate, so the set of characters it needs is closed under the
    # diagram symmetry and each conjugate pair gets one residual pass, alone
    # or in the warm peel's packed pass; every term of every character is
    # keyed by the exponent index's own tuple, never a copy; and the CLI's
    # --json stdout is the same byte for byte
    validated, passes = [], []
    validate, image = characters.validate_character, hamiltonian.shifted_image_x3
    packed = hamiltonian.residuals_vanish

    def counted_validate(ch, *owed):
        validated.append(ch.weight)
        return validate(ch, *owed)

    def counted_image(terms, eps3):
        passes.append(eps3)
        return image(terms, eps3)

    def counted_packed(items):
        passes.extend(eps3 for _, eps3 in items)
        return packed(items)

    monkeypatch.setattr(characters, "validate_character", counted_validate)
    monkeypatch.setattr(hamiltonian, "shifted_image_x3", counted_image)
    monkeypatch.setattr(hamiltonian, "residuals_vanish", counted_packed)
    runs = []
    with fresh_index() as index:
        for _ in range(2):
            characters.clear_memory_cache()
            validated.clear()
            passes.clear()
            runs.append(tensor_decompose((1, 1, 1, 1, 1, 1), (0, 0, 0, 1, 0, 0)))
            weights = set(validated)
            assert len(validated) == len(weights) == 343
            assert {lattice.conjugate(w) for w in weights} == weights
            self_conjugate = sum(lattice.conjugate(w) == w for w in weights)
            pairs = (len(weights) - self_conjugate) // 2
            assert len(passes) == self_conjugate + pairs == 206
            keys = [e for ch in characters._MEMORY.values() for e in ch.poly.terms]
            assert len(characters._MEMORY) == 343 and len(keys) == 69_860
            assert len({id(e) for e in keys}) == len(index.exps) == 578
            assert all(e is index.exps[index.ids[e]] for e in keys)
            stdout = json.dumps(runs[-1].to_json()) + "\n"
            assert hashlib.sha256(stdout.encode()).hexdigest() == \
                "856023939f18d50e71d0c8cf76972176fbd034291c7a4ca2828ccb224536ba72"
    assert runs[0] == runs[1] and len(runs[0].terms) == 342


def _exponents(payload):
    """A cache entry's exponents, six per term, one byte each."""
    return list(bytes.fromhex(payload["exps"]))


def _set_exponents(payload, exps):
    payload["exps"] = bytes(exps).hex()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cache_entry_round_trips(fresh_index, data):
    # every exponent a byte holds, 0 to 255, far beyond any computed character's
    labels, coefs = st.integers(0, 255), st.integers(-2 ** 200, 2 ** 200).filter(bool)
    terms = data.draw(st.dictionaries(st.tuples(*[labels] * 6), coefs, min_size=1, max_size=8))
    weight = data.draw(st.tuples(*[st.integers(0, 2 ** 40)] * 6))
    method = data.draw(st.sampled_from(["recursion", "annihilator"]))
    ch = characters.Character(weight, SparsePolynomial(terms), method)
    text = characters.encode_cache_entry(ch)
    with fresh_index() as index:
        got = characters.decode_cache_entry(text)
        assert (got.weight, got.method) == (weight, method)
        assert list(got.poly.terms.items()) == list(terms.items())
        assert all(e is index.exps[index.ids[e]] for e in got.poly.terms)
        assert characters.encode_cache_entry(got) == text


def test_an_exponent_over_255_is_not_stored():
    ch = characters.Character((0, 0, 0, 0, 0, 0),
                              SparsePolynomial({(256, 0, 0, 0, 0, 1): 1}), "recursion")
    with pytest.raises(ValueError, match="range"):
        characters.encode_cache_entry(ch)


def _shorten_exps(payload, at):
    payload["exps"] = payload["exps"][:-2]  # one exponent byte short


def _negative_label(payload, at):  # an exponent byte cannot be negative
    payload["weight"][2] = -1


def _float_coefficient(payload, at):
    i = at(payload, (0, 0, 1, 0, 0, 0))
    payload["coefs"][i] = float(payload["coefs"][i])


def _true_coefficient(payload, at):
    payload["coefs"][at(payload, (2, 0, 0, 0, 0, 0))] = True


def _zero_coefficient(payload, at):
    payload["coefs"][at(payload, (0, 0, 0, 0, 0, 1))] = 0


def _repeated_exponent(payload, at):
    i, j = at(payload, (0, 0, 1, 0, 0, 0)), at(payload, (0, 0, 0, 0, 0, 1))
    exps = _exponents(payload)
    exps[6 * j:6 * j + 6] = exps[6 * i:6 * i + 6]
    _set_exponents(payload, exps)


def _foreign_weight(payload, at):
    payload["weight"] = [0, 0, 0, 0, 0, 2]  # the conjugate weight, same size


def _same_dimension_non_eigenfunction(payload, at):
    # z1^2 - z3 - z6 becomes z1^2 - z3 - 14*z6 + 13*z1, still of dimension 351
    payload["coefs"][at(payload, (0, 0, 0, 0, 0, 1))] = -14
    _set_exponents(payload, _exponents(payload) + [1, 0, 0, 0, 0, 0])
    payload["coefs"].append(13)


def _unknown_method(payload, at):
    payload["method"] = ["x"]  # once printed by `char --format json` as "['x']"


def _not_an_object(payload, at):
    return []


def _integer_array_exps(payload, at):
    payload["exps"] = _exponents(payload)  # the version-2 field under version 4


@pytest.mark.parametrize("corrupt, reason", [
    (_shorten_exps, "17 exponent bytes for 3 coefficients"),
    (_negative_label, "negative label"),
    (_float_coefficient, "must be integers"),
    (_true_coefficient, "must be integers"),
    (_zero_coefficient, "zero coefficient"),
    (_repeated_exponent, "repeated exponent"),
    (_unknown_method, r"method \['x'\] is not one of recursion, annihilator"),
    (_not_an_object, "entry is not a JSON object"),
    (_integer_array_exps, "weight and coefs must be arrays, exps a string"),
    (_foreign_weight, r"holds the character of \(0, 0, 0, 0, 0, 2\)"),
    (_same_dimension_non_eigenfunction, "not an eigenfunction: .* residual 520 at"),
])
def test_cache_decoder_rejects_malformed_entries(corrupt, reason, isolated_cache,
                                                 capsys, term_index):
    _every_reader_rejects((2, 0, 0, 0, 0, 0), corrupt, reason, capsys, term_index)


def _odd_length_exps(payload, at):
    payload["exps"] = payload["exps"][:-1]


def _non_hex_exps(payload, at):
    payload["exps"] = "g" + payload["exps"][1:]


def _uppercase_exps(payload, at):
    assert "a" in payload["exps"]  # the exponent 10 is 0a
    payload["exps"] = payload["exps"].upper()


def _spaced_exps(payload, at):
    exps = payload["exps"]
    payload["exps"] = exps[:2] + " " + exps[2:]


@pytest.mark.parametrize("corrupt, reason", [
    (_odd_length_exps, "exps is not a lowercase hex string"),
    (_non_hex_exps, "exps is not a lowercase hex string"),
    (_uppercase_exps, "exps is not a lowercase hex string"),
    (_spaced_exps, "exps is not a lowercase hex string"),
])
def test_cache_decoder_reads_only_the_one_encoding(corrupt, reason, isolated_cache,
                                                   capsys, term_index):
    # chi(10,0,0,0,0,0) has exponents of 10, so its hex has letters to uppercase
    _every_reader_rejects((10, 0, 0, 0, 0, 0), corrupt, reason, capsys, term_index)


def _every_reader_rejects(w, corrupt, reason, capsys, term_index):
    """Corrupt w's stored entry, in place or by returning a replacement; the
    lookup, `char`, the dims sweep and `cache validate` must each fail with
    one verdict that names the entry."""
    character(w)
    path = characters.cache_path(w)
    payload = json.loads(path.read_text())
    replaced = corrupt(payload, term_index)
    path.write_text(json.dumps(payload if replaced is None else replaced))
    characters.clear_memory_cache()
    with pytest.raises(CacheCorruptError, match=re.escape(str(path))) as info:
        character(w)
    assert re.search(reason, str(info.value))
    characters.clear_memory_cache()
    assert main(["char", ",".join(map(str, w))]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"
    # the dims sweep and `cache validate` give the lookup's verdict
    assert main(["verify", "--suite=dims"]) == 1
    assert f"FAIL [dims] cached entry {path.name}: {info.value}\n" in capsys.readouterr().out
    assert main(["cache", "validate"]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_every_reader_rejects_an_entry_under_another_weights_name(isolated_cache, capsys):
    # a copy of chi(2,0,0,0,0,0) planted under the name of its conjugate weight
    character((2, 0, 0, 0, 0, 0))
    planted = characters.cache_path((0, 0, 0, 0, 0, 2))
    planted.write_bytes(characters.cache_path((2, 0, 0, 0, 0, 0)).read_bytes())
    message = f"invalid cache entry {planted}: entry holds the character of (2, 0, 0, 0, 0, 0)"
    for argv in (["char", "0,0,0,0,0,2"], ["cache", "validate"]):
        assert main(argv) == 1 and capsys.readouterr().err == f"error: {message}\n"
    assert main(["verify", "--suite=dims"]) == 1
    assert f"FAIL [dims] cached entry {planted.name}: {message}\n" in capsys.readouterr().out


def _v1_entry(w, poly):
    """The version-1 layout, one record per term."""
    return json.dumps({"weight": list(w), "terms": poly.to_records(), "method": "recursion",
                       "version": 1})


def _v2_entry(w, poly, method="recursion"):
    """The version-2 layout, byte for byte as it was stored: flat integer arrays."""
    return json.dumps({"weight": list(w), "version": 2, "method": method,
                       "exps": [x for e in poly.terms for x in e],
                       "coefs": list(poly.terms.values())}, separators=(",", ":"))


def _v2_annihilator_entry(w, poly):
    """What `char --method=annihilator` stored in version 2."""
    return _v2_entry(w, poly, "annihilator")


def _v3_entry(w, poly):
    """The version-3 layout, byte for byte as it was stored: a `width` field
    before the hex exponents, 1 for every entry a run wrote."""
    return json.dumps({"weight": list(w), "version": 3, "method": "recursion", "width": 1,
                       "exps": bytes(x for e in poly.terms for x in e).hex(),
                       "coefs": list(poly.terms.values())}, separators=(",", ":"))


def _float_version_entry(w, poly):
    """A version-4 entry but for its version, written 4.0."""
    entry = json.loads(characters.encode_cache_entry(characters.Character(w, poly, "recursion")))
    entry["version"] = 4.0
    return json.dumps(entry, separators=(",", ":"))


@pytest.mark.parametrize("stale", [_v1_entry, _v2_entry, _v2_annihilator_entry, _v3_entry,
                                   _float_version_entry])
def test_stale_cache_version_is_recomputed(stale, isolated_cache, monkeypatch, capsys):
    expect = {w: character_recursion(w) for w in [(1, 0, 0, 0, 0, 2), (0, 1, 1, 0, 0, 0)]}
    for w, ch in expect.items():
        characters.cache_path(w).write_text(stale(w, ch.poly))
    dims = {c.name: c.ok for c in verify.suite_dims()}
    assert all(dims.values()) and "cached entries swept: 0" in dims
    w, u = expect
    assert character(w) == expect[w]  # a miss: recomputed and overwritten
    assert main(["cache", "validate"]) == 0  # upgrades the other entry
    assert characters.CACHE_VERSION == 4
    for v, ch in expect.items():
        assert characters.cache_path(v).read_text() == characters.encode_cache_entry(ch)
    characters.clear_memory_cache()
    monkeypatch.setattr(characters, "character_recursion", None)  # hits only from here
    assert character(w) == expect[w] and character(u) == expect[u]


def test_dims_sweep_proves_an_entry_that_differs_from_the_memory_tier(isolated_cache, capsys,
                                                                     term_index):
    w = (2, 0, 0, 0, 0, 0)
    true_poly = character(w).poly  # the memory tier keeps the true character
    path = characters.cache_path(w)
    payload = json.loads(path.read_text())
    _same_dimension_non_eigenfunction(payload, term_index)
    path.write_text(json.dumps(payload))
    assert characters._MEMORY[w].poly == true_poly
    assert main(["verify", "--suite=dims"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL [dims] cached entry {path.name}: invalid cache entry {path}: " in out
    assert "not an eigenfunction" in out


@pytest.mark.parametrize("later", ["unreadable", "stale"])
def test_cache_validate_names_the_first_corrupt_entry_in_name_order(later, isolated_cache,
                                                                     capsys, term_index):
    # chi_2-0-0-0-0-0.json fails only its eigenfunction proof, which `cache
    # validate` owes; the entry after it fails at its load, or is a miss that
    # pays what is owed before it is recomputed.  Either way the first is named.
    first, second = (2, 0, 0, 0, 0, 0), (3, 0, 0, 0, 0, 0)
    for w in (first, second):
        character(w)
    path, later_path = characters.cache_path(first), characters.cache_path(second)
    payload = json.loads(path.read_text())
    _same_dimension_non_eigenfunction(payload, term_index)
    path.write_text(json.dumps(payload))
    stale = json.dumps({**json.loads(later_path.read_text()), "version": 3})
    later_path.write_text("[]" if later == "unreadable" else stale)
    characters.clear_memory_cache()
    with pytest.raises(CacheCorruptError, match=re.escape(str(path))) as info:
        character(first)
    assert main(["cache", "validate"]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"
    if later == "stale":
        assert later_path.read_text() == stale  # not recomputed
        assert second not in characters._MEMORY


def test_dims_sweep_does_not_prove_again_what_this_process_stored(isolated_cache, monkeypatch):
    weights = [(2, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0)]  # neither is the other's mate
    for w in weights:
        character(w)
    residual_passes, payments = [], []
    shifted_image_x3, residuals_vanish = hamiltonian.shifted_image_x3, hamiltonian.residuals_vanish

    def counted(terms, shift3):
        residual_passes.append(dict(terms))
        return shifted_image_x3(terms, shift3)

    def counted_payment(items):
        payments.append([terms for terms, _ in items])
        return residuals_vanish(items)

    monkeypatch.setattr(hamiltonian, "shifted_image_x3", counted)
    monkeypatch.setattr(hamiltonian, "residuals_vanish", counted_payment)
    dims = {c.name: c.ok for c in verify.suite_dims()}
    assert all(dims.values()) and "cached entries swept: 2" in dims
    assert residual_passes == payments == []
    # `cache validate` empties the memory tier first, so it proves every
    # entry, all of them in one packed payment and none alone
    assert main(["cache", "validate"]) == 0
    assert residual_passes == []
    assert payments == [[characters._MEMORY[w].poly.terms  # in entry-name order
                         for w in sorted(weights)]]


def test_verify_renders_polynomials_only_for_a_failed_check(monkeypatch):
    expect, got = parse_polynomial("z1^2 - z3 - z6"), parse_polynomial("z1^2 - z3")
    failed = verify._check("chi(2,0,0,0,0,0) by recursion", False, expect, got)
    assert failed.detail == "expected z1^2 - z3 - z6, computed z1^2 - z3"
    rendered = []
    to_str = SparsePolynomial.__str__
    monkeypatch.setattr(SparsePolynomial, "__str__", lambda p: rendered.append(p) or to_str(p))
    checks = list(verify._character_checks((2, 0, 0, 0, 0, 0), expect))
    assert len(checks) == 3 and all(c.ok for c in checks)
    assert rendered == []


def test_verify_names_a_character_that_fails_its_invariants(monkeypatch):
    w = (1, 0, 0, 0, 0, 2)
    expect = character_recursion(w).poly
    bumped = dict(expect.terms)
    bumped[next(e for e in bumped if e != w)] += 1  # an interior coefficient

    def recursion(m):
        return characters.Character(tuple(m), SparsePolynomial(bumped), "recursion")

    monkeypatch.setattr(verify, "character_recursion", recursion)
    checks = {c.name: c for c in verify._character_checks(w, expect)}
    check = checks["chi(1,0,0,0,0,2) invariants"]
    assert not check.ok
    assert check.detail.startswith(f"character of {w} is not an eigenfunction")


def test_validation_failures_name_the_fault(monkeypatch):
    w = (1, 0, 0, 0, 0, 2)
    ch = character_recursion(w)
    bumped = dict(ch.poly.terms)
    e = next(e for e in bumped if e != w)  # an interior term
    bumped[e] *= 2  # stays nonzero, so the term stays in the support
    with pytest.raises(InternalInconsistencyError) as info:
        validate_character(characters.Character(w, SparsePolynomial(bumped), "recursion"))
    msg = str(info.value)
    assert str(w) in msg and "not an eigenfunction" in msg and f"at exponent {e}" in msg
    halved = characters.Character(w, SparsePolynomial({w: 1, e: Fraction(1, 2)}), "recursion")
    with pytest.raises(InternalInconsistencyError,
                       match=re.escape(f"character of {w} has non-integer coefficients")):
        validate_character(halved)
    monkeypatch.setattr(lattice, "weyl_dimension", lambda m: 1)
    with pytest.raises(InternalInconsistencyError,
                       match=r"evaluates to 27, expected the Weyl dimension 1\b"):
        validate_character(character_recursion((1, 0, 0, 0, 0, 0)))


def test_a_mate_that_differs_from_sigma_of_its_proven_partner_gets_the_residual_check(
        isolated_cache, term_index):
    w, mate = (1, 0, 0, 0, 0, 2), (2, 0, 0, 0, 0, 1)
    character(w)
    character(mate)
    path = characters.cache_path(mate)
    payload = json.loads(path.read_text())
    e = tuple(_exponents(payload)[6:12])  # the first interior term
    payload["coefs"][term_index(payload, e)] *= 2
    path.write_text(json.dumps(payload))
    characters.clear_memory_cache()
    character(w)  # proven by its residual, and now in the memory tier
    with pytest.raises(CacheCorruptError,
                       match=rf"not an eigenfunction: .* at exponent {re.escape(str(e))}$"):
        character(mate)


def test_cache_unparseable_file(isolated_cache):
    w = (0, 0, 0, 0, 1, 0)
    character(w)
    characters.cache_path(w).write_text("not json")
    characters.clear_memory_cache()
    with pytest.raises(CacheCorruptError):
        character(w)


def test_unreadable_entry_in_a_usable_directory_is_corrupt(isolated_cache):
    # the directory is fine, the entry is not: blame the entry
    w = (0, 0, 0, 0, 1, 0)
    characters.cache_path(w).mkdir()
    with pytest.raises(CacheCorruptError, match="unreadable cache entry .*chi_0-0-0-0-1-0"):
        character(w)


def test_character_json_serialization():
    ch = character((1, 0, 1, 0, 0, 0))
    record = json.loads(json.dumps(characters.character_to_json(ch)))
    assert tuple(record["weight"]) == ch.weight
    assert SparsePolynomial.from_records(record["terms"]) == ch.poly
    assert record["method"] == ch.method


def test_rejects_negative_labels():
    with pytest.raises(ValueError):
        character((-1, 0, 0, 0, 0, 0))
    # weights of the wrong length, sign or type are named as bad input, never rounded
    entry_points = [character, character_recursion, character_annihilator,
                    lambda w: tensor_decompose(w, (1, 0, 0, 0, 0, 0)),
                    lambda w: tensor_decompose((1, 0, 0, 0, 0, 0), w),
                    monomial_decompose,
                    lambda w: CGSeries.from_json({"factors": [w], "terms": []}),
                    lambda w: SparsePolynomial.from_records([{"exp": w, "coef": "1"}])]
    for w in ((1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0), (0, 0, -1, 0, 0, 0), (1.5, 0, 0, 0, 0, 0)):
        for entry in entry_points:
            with pytest.raises(ValueError, match=re.escape(str(w))):
                entry(w)


def test_recursion_detects_eigenvalue_collision(fresh_index):
    # build the rows, then collapse the spectrum: every gap becomes zero
    w = (2, 0, 0, 0, 0, 0)
    with fresh_index() as index:
        character_recursion(w)
        index.eps3[:] = [0] * len(index.eps3)
        with pytest.raises(ZeroDenominatorError):
            character_recursion(w)


def test_recursion_detects_a_non_integer_coefficient(fresh_index):
    # chi(2,0,0,0,0,0) = z1^2 - z3 - z6: z3 gets contribution -24 over the gap
    # 224 - 200 = 24; lower eps3 of z3 by one and the gap no longer divides it
    w, z3 = (2, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)
    with fresh_index() as index:
        character_recursion(w)
        index.eps3[index.ids[z3]] -= 1
        with pytest.raises(InternalInconsistencyError, match=re.escape(
                f"non-integer coefficient at {z3} while computing the character of {w}")):
            character_recursion(w)


def test_annihilator_detects_degenerate_scale(fresh_index):
    # build the rows, then give every weight the leading eigenvalue, so that
    # every annihilator factor kills the leading monomial
    w = (2, 0, 0, 0, 0, 0)
    with fresh_index() as index:
        character_annihilator(w)
        lead = hamiltonian.eigenvalue_x3(w)
        index.eps3[:] = [lead] * len(index.eps3)
        with pytest.raises(DegenerateScaleError):
            character_annihilator(w)


@pytest.mark.parametrize("env, expect", [
    ({characters.CACHE_ENV: "cache"}, "cache"),
    ({"XDG_CACHE_HOME": "xdg"}, "xdg/e6cs"),
    ({characters.CACHE_ENV: "", "XDG_CACHE_HOME": ""}, "home/.cache/e6cs"),
    ({}, "home/.cache/e6cs"),
], ids=["cache-env", "xdg", "empty", "home"])
def test_cache_dir_follows_the_environment(env, expect, tmp_path, monkeypatch):
    monkeypatch.delenv(characters.CACHE_ENV)
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for name, value in env.items():
        monkeypatch.setenv(name, value and str(tmp_path / value))
    assert characters.cache_dir() == tmp_path / expect


def test_store_survives_cache_clear_between_write_and_rename(isolated_cache, monkeypatch):
    # `cache clear` deletes *.tmp files; a store whose file it took publishes nothing
    replace = characters.os.replace

    def cleared_first(src, dst):
        assert main(["cache", "clear"]) == 0
        return replace(src, dst)

    monkeypatch.setattr(characters.os, "replace", cleared_first)
    assert character((1, 0, 0, 0, 0, 1)).poly == parse_polynomial("z1*z6 - z2 - 1")
    assert list(isolated_cache.iterdir()) == []
