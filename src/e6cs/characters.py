"""Irreducible characters as polynomial eigenfunctions of the operator.

Two independent routes compute the same polynomial: a coefficient recursion
descending the weight lattice from the leading monomial, and an annihilator
product that projects the leading monomial onto the eigenspace.  On the span
of the monomials below z^m the operator is diagonal in the characters, so the
projector needs each distinct eigenvalue below m once, as the minimal
polynomial does: the annihilator applies one factor per distinct eigenvalue,
and a repeated factor, which would only rescale the survivor before its monic
rescale, is skipped.  `character` computes with the recursion; the
annihilator is the second route that `verify` and the tests check the
recursion against.  A persistent one-file-per-weight cache makes repeated
products cheap across processes.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple

from . import hamiltonian, lattice
from .errors import (CacheCorruptError, CacheDirectoryError, DegenerateScaleError,
                     InternalInconsistencyError, ZeroDenominatorError)
from .ring import Exponent, SparsePolynomial, _wrap, coef_to_str

CACHE_ENV = "E6CS_CACHE_DIR"
CACHE_VERSION = 4
JSON_VERSION = 1  # of the `char --format json` record, not of the cache
_TMP_SUFFIX = ".tmp"  # of an entry that _store has not yet published by its rename


class Character(NamedTuple):
    weight: lattice.Vec
    poly: SparsePolynomial
    method: str  # recursion | annihilator


def character_recursion(m) -> Character:
    """Coefficient recursion: walk the support downward from the leading
    monomial, each coefficient fixed by the eigenvalue gap to the top.

    The walk keeps the ids first reached at each height below the top, takes
    the highest height left and visits its ids in exponent order, so the
    terms come in the order (-height, exponent).  A height is complete when
    it is taken: every term of a row off its diagonal lowers the height (a
    load check of hamiltonian.parse_tables), so only the ids of the heights
    already taken reach it, and each id is reached before it is visited."""
    m = lattice._check_dominant(m)
    index = hamiltonian.exponent_index()
    exps, heights, eps3 = index.exps, index.heights, index.eps3
    top = index.id(m)
    top_eps3 = eps3[top]
    coeffs: dict[Exponent, int] = {}
    pending: dict[int, int] = {top: 0}  # scaled contributions (x3), by id
    reached: dict[int, list[int]] = {heights[top]: [top]}  # ids first reached, by height
    while reached:
        for i in sorted(reached.pop(max(reached)), key=exps.__getitem__):
            contrib = pending.pop(i)
            if i == top:
                c = 1
            else:
                gap = top_eps3 - eps3[i]
                if gap == 0:
                    raise ZeroDenominatorError(
                        f"eigenvalue of {exps[i]} collides with {m}; operator data is corrupt")
                c, rem = divmod(contrib, gap)
                if rem:
                    raise InternalInconsistencyError(
                        f"non-integer coefficient at {exps[i]} while computing the character of {m}")
                if not c:
                    continue
            coeffs[exps[i]] = c  # the index's own tuple, the top's too
            targets, k3s = index.row(i)
            for t, k3 in zip(targets, k3s):
                if t in pending:
                    pending[t] += c * k3
                elif t != i:  # not the diagonal: i itself has left pending
                    pending[t] = c * k3
                    reached.setdefault(heights[t], []).append(t)
    return Character(m, _wrap(coeffs), "recursion")


def character_annihilator(m) -> Character:
    """Annihilator product: kill every lower candidate eigenspace inside
    z^m, then rescale the survivor to a monic leading term.

    z^m is chi_m plus a combination of the characters of the dominant
    weights below m, and 3*Delta - eps3 scales each character by its
    eigenvalue gap, so one factor per distinct eigenvalue below m leaves a
    multiple of chi_m alone.  A factor whose eigenvalue was already applied
    would only rescale that multiple, which the monic rescale undoes, so it
    is skipped.  A lower weight with the eigenvalue of m kills the leading
    term, and the product is refused.  The product runs on exponent ids."""
    m = lattice._check_dominant(m)
    index = hamiltonian.exponent_index()
    top = index.id(m)
    poly: dict[int, int] = {top: 1}
    applied: set[int] = set()
    for mu in lattice.dominant_weights_below(m):
        if mu == m:
            continue
        eps3 = hamiltonian.eigenvalue_x3(mu)
        if eps3 in applied:
            continue
        applied.add(eps3)
        nxt = hamiltonian._shifted_image_ids(poly, eps3)
        poly = {i: c for i, c in nxt.items() if c}
    lead = poly.get(top, 0)
    if not lead:
        raise DegenerateScaleError(
            f"annihilator product destroyed the leading monomial of {m}")
    exps = index.exps
    return Character(m, SparsePolynomial({exps[i]: Fraction(c, lead) for i, c in poly.items()}),
                     "annihilator")


def _dimension(terms: dict[Exponent, int]) -> int:
    """The integer polynomial with these terms at lattice.FUNDAMENTAL_DIMENSIONS:
    the sum of each coefficient times its exponent's value in the exponent
    index, which registers any term it has not met."""
    index = hamiltonian.exponent_index()
    return sum(c * index.values[index.id(e)] for e, c in terms.items())


# the eigenfunction proofs still owed in a block under owing(), by weight:
# (character, eps3), or (character, None) for the exact sigma image of an owed mate
Owed = dict[lattice.Vec, tuple[Character, int | None]]


def validate_character(ch: Character, owed: Owed | None = None) -> None:
    """Check the four structural invariants; raise on any violation.

    The one rule for when a proof is inherited.  Monic, integral and
    dimension are checked on every character.  The eigenfunction identity
    (3*Delta - eps_w) chi = 0 is inherited, with no residual pass, when chi
    is exactly a polynomial this process has already proven (every character
    in _MEMORY passed this function): the character of w itself, or sigma of
    the character of sigma(w) = lattice.conjugate(w).  The second carries
    over because (3*Delta - eps_w) chi = sigma((3*Delta - eps_sigma(w)) mate)
    = 0: the operator commutes with sigma (a load check of
    hamiltonian.parse_tables) and w and sigma(w) share their eigenvalue (an
    import check of lattice).  Any other polynomial gets the residual pass,
    computed term by term, which must vanish.

    With owed, the ledger of an owing() block, the residual pass is not run
    but owed: owed[w] becomes (ch, eps3), or (ch, None) when ch is exactly
    sigma of an owed mate, whose proof it will inherit.  Either way ch is not
    proven until pay_owed runs, and its caller keeps it out of _MEMORY.  The
    entry is made only once every other check has passed, so a rejected ch
    never reaches pay_owed, which would admit it to _MEMORY."""
    w, terms = ch.weight, ch.poly.terms
    if terms.get(w) != 1:
        raise InternalInconsistencyError(f"character of {w} is not monic")
    if any(type(c) is not int for c in terms.values()):
        raise InternalInconsistencyError(f"character of {w} has non-integer coefficients")
    conj = lattice.conjugate(w)
    known, mate = _MEMORY.get(w), _MEMORY.get(conj)
    unproven = not (known is not None and known.poly == ch.poly
                    or mate is not None and mate.poly.conjugate_variables() == ch.poly)
    if unproven and owed is None:
        _check_residual(w, terms, hamiltonian.eigenvalue_x3(w))
    got, expect = _dimension(terms), lattice.weyl_dimension(w)
    if got != expect:
        raise InternalInconsistencyError(
            f"character of {w} evaluates to {got}, expected the Weyl dimension {expect}")
    if unproven and owed is not None:
        due = owed.get(conj)
        inherits = due is not None and due[0].poly.conjugate_variables() == ch.poly
        owed[w] = (ch, None if inherits else hamiltonian.eigenvalue_x3(w))


def _check_residual(w: lattice.Vec, terms: dict[Exponent, int], eps3: int) -> None:
    """The residual pass of validate_character: (3*Delta - eps3) chi = 0,
    else the first nonzero residual in the order of shifted_image_x3 is named."""
    acc = hamiltonian.shifted_image_x3(terms, eps3)
    if any(acc.values()):
        t, r3 = next((t, r3) for t, r3 in acc.items() if r3)
        raise InternalInconsistencyError(
            f"character of {w} is not an eigenfunction: (Delta - eps) chi has "
            f"residual {coef_to_str(Fraction(r3, 3))} at exponent {t}")


def pay_owed(owed: Owed) -> None:
    """Empty owed, running the residual passes that validate_character left
    there together in hamiltonian.residuals_vanish.  If one fails, or a row
    of the operator fails its check there, each runs again alone, in load
    order, through _check_residual, so the first corrupt entry is named with
    the CacheCorruptError of a lookup that proves its hit at once, and
    nothing enters _MEMORY.  Otherwise every owed character is proven and
    enters _MEMORY, whatever its caller does next."""
    proven = list(owed.values())
    owed.clear()
    due = [(ch, eps3) for ch, eps3 in proven if eps3 is not None]
    try:
        vanish = hamiltonian.residuals_vanish([(ch.poly.terms, eps3) for ch, eps3 in due])
    except InternalInconsistencyError:  # a row failed its diagonal check: name the entry
        vanish = False
    if not vanish:
        for ch, eps3 in due:
            try:
                _check_residual(ch.weight, ch.poly.terms, eps3)
            except InternalInconsistencyError as exc:
                raise _invalid(cache_path(ch.weight), exc) from exc
    _MEMORY.update((ch.weight, ch) for ch, _ in proven)


@contextmanager
def owing() -> Iterator[Owed]:
    """A ledger for the lookups of one block, as character(m, owed) takes
    it, paid by pay_owed when the block ends, however it ends: an error that
    leaves the block still names an earlier corrupt entry first, as its load
    would have, and characters whose payment succeeds enter _MEMORY even if
    the block then fails."""
    owed: Owed = {}
    try:
        yield owed
    finally:
        pay_owed(owed)


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
    return cache_dir() / ("chi_" + "-".join(map(str, m)) + ".json")


def entry_key(path: Path) -> lattice.Vec | None:
    """The weight a cache file is named for, the inverse of cache_path; None
    for a stray file.  Only the name cache_path gives a weight is an entry:
    leading zeros or digits other than ASCII make a stray file, which no
    lookup would read."""
    key = lattice.parse_labels(path.stem[len("chi_"):].split("-"))
    return key if key is not None and cache_path(key).name == path.name else None


def cache_key(path: Path) -> lattice.Vec:
    """entry_key, or CacheCorruptError for a stray file."""
    if (key := entry_key(path)) is not None:
        return key
    raise CacheCorruptError(f"stray cache entry {path}: name is not chi_<six labels>.json "
                            "with each label in plain decimal")


def _listed(directory: Path, prefix: str, suffix: str) -> list[Path]:
    """The files of directory named prefix*suffix, sorted; none when there is
    no directory, as before the first store.  CacheDirectoryError when the
    path cannot be listed, such as a regular file or a path below one."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise _unusable(directory, exc) from exc
    return sorted(directory / name for name in names
                  if name.startswith(prefix) and name.endswith(suffix))


def cache_entries() -> list[Path]:
    """The files of the cache directory named like entries (_listed).
    cache_key tells an entry from a stray file."""
    return _listed(cache_dir(), "chi_", ".json")


def character_to_json(ch: Character) -> dict:
    """The `char --format json` record: terms in descending graded-lex order,
    coefficients as strings."""
    return {
        "weight": list(ch.weight),
        "terms": ch.poly.to_records(),
        "method": ch.method,
        "version": JSON_VERSION,
    }


def encode_cache_entry(ch: Character) -> str:
    """The text of ch's cache file; the inverse of decode_cache_entry.

    The exponents of the terms, six per term in term order, are one
    lowercase hex string of one byte each, so a polynomial has exactly one
    encoding.  An exponent over 255 raises ValueError (bytes() does): it
    needs a weight far beyond any character the engine can compute."""
    terms = ch.poly.terms
    entry = {"weight": list(ch.weight), "version": CACHE_VERSION, "method": ch.method,
             "exps": bytes(x for e in terms for x in e).hex(), "coefs": list(terms.values())}
    return json.dumps(entry, separators=(",", ":"))


def decode_cache_entry(text: str) -> Character | None:
    """Rebuild the character stored in a cache file's text.

    An entry is {"weight", "version", "method", "exps", "coefs"}
    (encode_cache_entry): `exps` holds six exponents per term as hex, one
    byte each, `coefs` one integer coefficient per term, and `method` names
    one of _METHODS.  Only the one encoding encode_cache_entry gives is
    read: `exps` as bytes.hex() writes it.
    Each term is keyed by the exponent index's own tuple, as the recursion
    keys its terms, so every loaded entry shares the index's one tuple per
    exponent; an exponent first seen here gets its id, its row stays lazy.
    Returns None for an entry of another format version, and for one whose
    version is not a plain int, such as 4.0.  Raises ValueError
    on anything malformed; the invariants are left to validate_character."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("entry nests too deeply") from None
    if type(obj) is not dict:
        raise ValueError("entry is not a JSON object")
    version = obj.get("version")
    if type(version) is not int or version != CACHE_VERSION:
        return None
    weight, exps, coefs = map(obj.get, ("weight", "exps", "coefs"))
    if type(weight) is not list or type(exps) is not str or type(coefs) is not list:
        raise ValueError("weight and coefs must be arrays, exps a string")
    try:
        raw = bytes.fromhex(exps)
    except ValueError:
        raw = None
    if raw is None or raw.hex() != exps:
        raise ValueError("exps is not a lowercase hex string of whole bytes")
    if len(weight) != 6 or len(raw) != 6 * len(coefs):
        raise ValueError(f"{len(weight)} labels, {len(raw)} exponent bytes "
                         f"for {len(coefs)} coefficients")
    if set(map(type, chain(weight, coefs))) - {int}:
        raise ValueError("labels and coefficients must be integers")
    if min(weight) < 0:
        raise ValueError("negative label")
    if 0 in coefs:
        raise ValueError("zero coefficient")
    method = obj.get("method")
    if type(method) is not str or method not in _METHODS:
        raise ValueError(f"method {method!r} is not one of {', '.join(_METHODS)}")
    index = hamiltonian.exponent_index()
    shared, id_of = index.exps, index.id
    it = iter(raw)  # bytes iterate as the exponents themselves
    terms = {shared[id_of(e)]: c for e, c in zip(zip(it, it, it, it, it, it), coefs)}
    if len(terms) != len(coefs):
        raise ValueError("repeated exponent")
    return Character(tuple(weight), _wrap(terms), method)


def _unusable(directory: Path, exc: OSError) -> CacheDirectoryError:
    """Blame the cache directory, not an entry in it."""
    return CacheDirectoryError(f"unusable cache directory {directory}: {exc.strerror or exc}")


def _store(ch: Character) -> None:
    path = cache_path(ch.weight)
    text = encode_cache_entry(ch)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=_TMP_SUFFIX)
    except OSError as exc:
        raise _unusable(path.parent, exc) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)  # atomic publish; identical content on races
    except FileNotFoundError:
        pass  # a concurrent `cache clear` removed tmp: the entry is not kept
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):  # a full disk, a quota, a file-size limit
            raise _unusable(path.parent, exc) from exc
        raise


def _load(m, owed: Owed | None = None) -> Character | None:
    """The validated cached character of m, or None on a miss.  An entry of
    another format version is a miss, so it is recomputed and overwritten.
    The one reader of an entry: lookups and the dims sweep both call it, and
    every entry it returns has passed validate_character, which alone decides
    whether the entry's eigenfunction proof is inherited, or, with owed, owed."""
    path = cache_path(m)
    try:
        # a FIFO would block the read and a device might never end it
        if stat.S_IFMT(path.stat().st_mode) not in (stat.S_IFREG, stat.S_IFDIR):
            raise ValueError("not a regular file")
        ch = decode_cache_entry(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        if isinstance(exc, OSError) and not path.parent.is_dir():  # not the entry's fault
            raise _unusable(path.parent, exc) from exc
        detail = (exc.strerror or exc) if isinstance(exc, OSError) else exc
        raise CacheCorruptError(f"unreadable cache entry {path}: {detail}") from exc
    if ch is None:
        return None
    try:
        if ch.weight != tuple(m):
            raise InternalInconsistencyError(f"entry holds the character of {ch.weight}")
        validate_character(ch, owed)
    except InternalInconsistencyError as exc:
        raise _invalid(path, exc) from exc
    return ch


def _invalid(path: Path, exc: InternalInconsistencyError) -> CacheCorruptError:
    return CacheCorruptError(f"invalid cache entry {path}: {exc}")


_MEMORY: dict[lattice.Vec, Character] = {}
_METHODS = {"recursion": character_recursion, "annihilator": character_annihilator}


def clear_memory_cache() -> None:
    _MEMORY.clear()


def clear_cache() -> tuple[list[Path], int]:
    """Remove every file cache_entries lists, stray files too, and every
    temporary file that a store killed before its rename left behind, then
    empty the memory tier; return the listed files removed and the count of
    temporaries.  A file that is already gone, as after a concurrent clear,
    is not counted."""
    listed, leftovers = cache_entries(), _listed(cache_dir(), "", _TMP_SUFFIX)
    result = [path for path in listed if _remove(path)], sum(map(_remove, leftovers))
    clear_memory_cache()
    return result


def _remove(path: Path) -> bool:
    """Unlink one file of the cache; False when it is already gone."""
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    except OSError as exc:
        raise CacheCorruptError(f"cannot remove cache entry {path}: {exc.strerror or exc}") from exc
    return True


def character(m, owed: Owed | None = None) -> Character:
    """Cache-first character lookup; on a miss, computes with the recursion,
    validates and persists.  With owed (validate_character), a cache hit
    whose eigenfunction proof is owed stays out of _MEMORY, and a miss pays
    everything owed before it computes."""
    m = lattice._check_dominant(m)
    hit = _MEMORY.get(m)
    if hit is not None:
        return hit
    hit = _load(m, owed)
    if hit is not None:
        if owed is None or m not in owed:
            _MEMORY[m] = hit
        return hit
    if owed:
        pay_owed(owed)
    ch = character_recursion(m)
    validate_character(ch)
    _store(ch)
    _MEMORY[m] = ch
    return ch
