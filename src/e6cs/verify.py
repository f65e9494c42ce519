"""Verification suites: recompute everything and compare against the shipped
reference data and the structural identities.

Each suite returns a list of Check records; a suite passes iff every check
does.  The command line prints one line per check and fails the process on
the first unmet expectation.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Callable, Iterable, NamedTuple

from . import golden, hamiltonian, lattice, tensor
from .characters import (_load, cache_entries, cache_key, character, character_annihilator,
                         character_recursion, validate_character)
from .errors import CacheCorruptError, E6CSError
from .ring import SparsePolynomial


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, ok: bool, expected=None, computed=None) -> Check:
    detail = "" if ok else f"expected {expected}, computed {computed}"
    return Check(name, bool(ok), detail)


def _label(w) -> str:
    return ",".join(str(x) for x in w)


# ---------------------------------------------------------------------------
def suite_roots() -> list[Check]:
    checks = []
    roots = lattice.positive_roots()
    checks.append(_check("positive root count", len(roots) == 36, 36, len(roots)))
    hist = [0] * 11
    for r in roots:
        hist[lattice.height(r) - 1] += 1
    expected_hist = [6, 5, 5, 5, 4, 3, 3, 2, 1, 1, 1]
    checks.append(_check("height histogram", hist == expected_hist, expected_hist, hist))
    total = tuple(sum(r[i] for r in roots) for i in range(6))
    rho = lattice.weyl_vector_in_root_basis()
    checks.append(_check("roots sum to twice the Weyl vector",
                         total == tuple(2 * x for x in rho), tuple(2 * x for x in rho), total))
    checks.append(_check("Weyl vector in root basis", rho == (8, 11, 15, 21, 15, 8),
                         (8, 11, 15, 21, 15, 8), rho))
    checks.append(_check("Weyl vector labels", lattice.to_root_basis((1,) * 6) == rho,
                         rho, lattice.to_root_basis((1,) * 6)))
    rr = lattice.inner_product((1,) * 6, (1,) * 6)
    checks.append(_check("(rho, rho)", rr == 78, 78, rr))
    total_e, ground_e = hamiltonian.energy((0,) * 6, 1)
    checks.append(_check("ground-state energy at kappa=1", ground_e == 156 and total_e == 156,
                         156, (total_e, ground_e)))
    ident = all(sum(lattice.CARTAN[i][k] * lattice.CARTAN_INVERSE_X3[k][j] for k in range(6))
                == 3 * (i == j) for i in range(6) for j in range(6))
    checks.append(_check("Cartan matrix times inverse is the identity", ident))
    return checks


def suite_tables() -> list[Check]:
    checks = []
    for j in range(1, 7):
        lj = lattice.fundamental_weight(j)
        got = hamiltonian.apply_delta(SparsePolynomial.variable(j))
        expect = SparsePolynomial.monomial(lj, hamiltonian.eigenvalue(lj, 1))
        checks.append(_check(f"operator on z{j}", got == expect, expect, got))
    chars = golden.all_characters()
    for series in golden.series_quadratic():
        i, j = series.factors
        prod = SparsePolynomial.variable(1 + i.index(1)) * SparsePolynomial.variable(1 + j.index(1))
        got = hamiltonian.apply_delta(prod)
        expect = SparsePolynomial.zero()
        for w, mult in series.terms.items():
            # two weights of the (4,4) series exceed the shipped degree-3
            # tables; their characters come from the engine, which validates
            # them independently
            poly = chars[w] if w in chars else character(w).poly
            expect = expect + poly.scaled(mult * hamiltonian.eigenvalue(w, 1))
        checks.append(_check(f"operator on z{1 + i.index(1)}*z{1 + j.index(1)} matches its series",
                             got == expect, "eigen-expansion", "disagreement" if got != expect else ""))
    return checks


def _character_checks(weight, expect: SparsePolynomial) -> Iterable[Check]:
    name = _label(weight)
    rec = character_recursion(weight)
    ann = character_annihilator(weight)
    yield _check(f"chi({name}) by recursion", rec.poly == expect, expect, rec.poly)
    yield _check(f"chi({name}) by annihilator", ann.poly == expect, expect, ann.poly)
    try:
        validate_character(rec)
        ok, detail = True, ""
    except E6CSError as exc:
        ok, detail = False, str(exc)
    yield Check(f"chi({name}) invariants", ok, detail)


def suite_quadratic() -> list[Check]:
    checks = []
    for w, poly in sorted(golden.characters_degree2().items()):
        checks.extend(_character_checks(w, poly))
    for series in golden.series_quadratic():
        got = tensor.tensor_decompose(*series.factors)
        name = " x ".join(_label(f) for f in series.factors)
        checks.append(_check(f"series {name}", got.terms == series.terms,
                             series.sorted_terms(), got.sorted_terms()))
    return checks


def suite_appendix_a() -> list[Check]:
    checks = []
    for w, poly in sorted(golden.characters_degree3().items()):
        checks.extend(_character_checks(w, poly))
    return checks


def suite_appendix_b() -> list[Check]:
    checks = []
    for exp, series in golden.series_cubic().items():
        got = tensor.monomial_decompose(exp)
        checks.append(_check(f"monomial series z^({_label(exp)}) [{len(series.terms)} terms]",
                             got.terms == series.terms,
                             len(series.terms), len(got.terms)))
    return checks


def suite_dims() -> list[Check]:
    checks = []
    dims = tuple(lattice.weyl_dimension(lattice.fundamental_weight(k)) for k in range(1, 7))
    checks.append(_check("fundamental dimensions", dims == lattice.FUNDAMENTAL_DIMENSIONS,
                         lattice.FUNDAMENTAL_DIMENSIONS, dims))
    for w, d in golden.tensor_candidates_l3_l4().items():
        got = lattice.weyl_dimension(w)
        checks.append(_check(f"dim({_label(w)})", got == d, d, got))
    # read as a lookup reads it: the four invariants include the dimension
    cached = cache_entries()
    stale = 0
    for path in cached:
        try:
            ch = _load(cache_key(path))
        except CacheCorruptError as exc:
            checks.append(Check(f"cached entry {path.name}", False, str(exc)))
            continue
        if ch is None:  # another format version: recomputed on its next lookup
            stale += 1
            continue
        checks.append(Check(f"cached chi({_label(ch.weight)}) dimension", True))
    checks.append(Check(f"cached entries swept: {len(cached) - stale}", True))
    return checks


def suite_duality() -> list[Check]:
    checks = []
    weights = [w for w in iproduct(range(4), repeat=6) if sum(w) <= 3]
    bad = []
    for w in weights:
        wc = lattice.conjugate(w)
        if character(w).poly.conjugate_variables() != character(wc).poly:
            bad.append(w)
        if lattice.weyl_dimension(w) != lattice.weyl_dimension(wc):
            bad.append(w)
    checks.append(_check(f"conjugation equivariance on {len(weights)} characters",
                         not bad, "no mismatches", bad[:3]))
    # mult(l_k in l_i x l_j) = mult(l_j in l_k x conj(l_i)), read from the 36
    # products l_a x l_b decomposed once each (conj(l_i) is itself a fundamental)
    funds = [lattice.fundamental_weight(k) for k in range(1, 7)]
    series = {(a, b): tensor.tensor_decompose(a, b) for a in funds for b in funds}
    failures = [(i, j, k) for (i, li), (j, lj), (k, lk) in iproduct(enumerate(funds, 1), repeat=3)
                if series[li, lj].multiplicity(lk)
                != series[lk, lattice.conjugate(li)].multiplicity(lj)]
    checks.append(_check("orthogonality identity on all 216 triples",
                         not failures, "no failures", failures[:3]))
    return checks


SUITES: dict[str, Callable[[], list[Check]]] = {
    "roots": suite_roots,
    "tables": suite_tables,
    "quadratic": suite_quadratic,
    "appendix-a": suite_appendix_a,
    "appendix-b": suite_appendix_b,
    "dims": suite_dims,
    "duality": suite_duality,
}
