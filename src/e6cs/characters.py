"""Irreducible characters as polynomial eigenfunctions of the operator.

Two independent routes compute the same polynomial: a coefficient recursion
descending the weight lattice from the leading monomial, and an annihilator
product that projects the leading monomial onto the eigenspace.  A persistent
one-file-per-weight cache makes repeated products cheap across processes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from pathlib import Path

from . import hamiltonian, lattice
from .errors import (CacheCorruptError, DegenerateScaleError,
                     InternalInconsistencyError, ZeroDenominatorError)
from .ring import Exponent, SparsePolynomial, _norm

CACHE_ENV = "E6CS_CACHE_DIR"
CACHE_VERSION = 1

FUNDAMENTAL_DIMENSIONS = (27, 78, 351, 2925, 351, 27)


@dataclass(frozen=True)
class Character:
    weight: lattice.Vec
    poly: SparsePolynomial
    method: str  # recursion | annihilator | golden | cache


def character_recursion(m) -> Character:
    """Coefficient recursion: walk the support downward from the leading
    monomial, each coefficient fixed by the eigenvalue gap to the top."""
    m = tuple(int(x) for x in m)
    eps3 = hamiltonian.eigenvalue_x3(m)
    top_h = lattice.weight_height(m)
    coeffs: dict[Exponent, int] = {}
    pending: dict[Exponent, int] = {m: 0}  # scaled contributions (x3)
    heap: list[tuple[int, Exponent]] = [(0, m)]
    while heap:
        _, e = heappop(heap)
        contrib = pending.pop(e, None)
        if contrib is None:
            continue  # cancelled out entirely before being processed
        if e == m:
            c = 1
        else:
            gap = eps3 - hamiltonian.eigenvalue_x3(e)
            if gap == 0:
                raise ZeroDenominatorError(
                    f"eigenvalue of {e} collides with {m}; operator data is corrupt")
            c, rem = divmod(contrib, gap)
            if rem:
                raise InternalInconsistencyError(
                    f"non-integer coefficient at {e} while computing the character of {m}")
            if not c:
                continue
        coeffs[e] = c
        for t, k3 in hamiltonian.image_x3(e).items():
            if t == e:
                continue
            if t in pending:
                pending[t] += c * k3
            else:
                pending[t] = c * k3
                heappush(heap, (top_h - lattice.weight_height(t), t))
    return Character(m, SparsePolynomial(coeffs), "recursion")


def character_annihilator(m) -> Character:
    """Annihilator product: kill every lower candidate eigenspace inside
    z^m, then rescale the survivor to a monic leading term."""
    m = tuple(int(x) for x in m)
    poly: dict[Exponent, int] = {m: 1}
    for mu in lattice.dominant_weights_below(m):
        if mu == m:
            continue
        eps3 = hamiltonian.eigenvalue_x3(mu)
        nxt: dict[Exponent, int] = {}
        get = nxt.get
        for t, v in hamiltonian.iter_image_x3(poly):
            nxt[t] = get(t, 0) + v
        for e, c in poly.items():
            s = nxt.get(e, 0) - c * eps3
            if s:
                nxt[e] = s
            else:
                nxt.pop(e, None)
        poly = {e: c for e, c in nxt.items() if c}
    lead = poly.get(m, 0)
    if not lead:
        raise DegenerateScaleError(
            f"annihilator product destroyed the leading monomial of {m}")
    scaled = {}
    for e, c in poly.items():
        q = _norm(Fraction(c, lead))
        if q:
            scaled[e] = q
    return Character(m, SparsePolynomial(scaled), "annihilator")


def validate_character(ch: Character) -> None:
    """Check the four structural invariants; raise on any violation."""
    poly = ch.poly
    if poly.coefficient_of(ch.weight) != 1:
        raise InternalInconsistencyError(f"character of {ch.weight} is not monic")
    if any(not isinstance(c, int) for c in poly.terms.values()):
        raise InternalInconsistencyError(f"character of {ch.weight} has non-integer coefficients")
    eps3 = hamiltonian.eigenvalue_x3(ch.weight)
    acc: dict[Exponent, int] = {}
    get = acc.get
    for t, v in hamiltonian.iter_image_x3(poly.terms):
        acc[t] = get(t, 0) + v
    expected = {e: eps3 * c for e, c in poly.terms.items() if eps3 * c}
    if {e: c for e, c in acc.items() if c} != expected:
        raise InternalInconsistencyError(f"character of {ch.weight} is not an eigenfunction")
    if poly.evaluate(FUNDAMENTAL_DIMENSIONS) != lattice.weyl_dimension(ch.weight):
        raise InternalInconsistencyError(
            f"character of {ch.weight} evaluates to the wrong dimension")


# ---------------------------------------------------------------------------
# Persistent cache, one JSON file per weight
# ---------------------------------------------------------------------------
def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "e6cs"


def cache_path(m) -> Path:
    return cache_dir() / ("chi_" + "-".join(str(int(x)) for x in m) + ".json")


def cache_key(path: Path) -> lattice.Vec:
    """The weight a cache file is named for; the inverse of cache_path."""
    parts = path.stem[len("chi_"):].split("-")
    if len(parts) != 6 or not all(p.isdecimal() for p in parts):
        raise CacheCorruptError(f"stray cache entry {path}: name is not chi_<six labels>.json")
    return tuple(int(p) for p in parts)


def character_to_json(ch: Character) -> dict:
    return {
        "weight": list(ch.weight),
        "terms": ch.poly.to_records(),
        "method": ch.method,
        "version": CACHE_VERSION,
    }


def character_from_json(obj: dict) -> Character:
    weight = tuple(int(x) for x in obj["weight"])
    poly = SparsePolynomial.from_records(obj["terms"])
    return Character(weight, poly, str(obj.get("method", "cache")))


def _store(ch: Character) -> None:
    path = cache_path(ch.weight)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(character_to_json(ch), fh)
        os.replace(tmp, path)  # atomic publish; identical content on races
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load(m) -> Character | None:
    path = cache_path(m)
    try:
        obj = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise CacheCorruptError(f"unreadable cache entry {path}: {exc}") from exc
    try:
        ch = character_from_json(obj)
        if ch.weight != tuple(m) or obj.get("version") != CACHE_VERSION:
            raise InternalInconsistencyError("cache entry does not match its key")
        validate_character(ch)
    except (InternalInconsistencyError, ValueError, KeyError, TypeError) as exc:
        raise CacheCorruptError(f"invalid cache entry {path}: {exc}") from exc
    return ch


_MEMORY: dict[lattice.Vec, Character] = {}
_METHODS = {"recursion": character_recursion, "annihilator": character_annihilator}


def clear_memory_cache() -> None:
    _MEMORY.clear()


def character(m, method: str = "recursion") -> Character:
    """Cache-first character lookup; computes, validates and persists on miss."""
    m = tuple(int(x) for x in m)
    if any(x < 0 for x in m):
        raise ValueError(f"not a dominant weight: {m}")
    hit = _MEMORY.get(m)
    if hit is not None:
        return hit
    hit = _load(m)
    if hit is not None:
        _MEMORY[m] = hit
        return hit
    try:
        compute = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    ch = compute(m)
    validate_character(ch)
    _store(ch)
    _MEMORY[m] = ch
    return ch
