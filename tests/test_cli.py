import errno
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import e6cs
from e6cs import characters, lattice
from e6cs.cli import main
from e6cs.ring import SparsePolynomial, parse_polynomial
from e6cs.tensor import CGSeries, tensor_decompose


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_text(capsys):
    code, out, _ = run(capsys, "char", "2,0,0,0,0,0")
    assert code == 0
    assert out.strip() == "z1^2 - z3 - z6"


def test_char_trivial(capsys):
    code, out, _ = run(capsys, "char", "0,0,0,0,0,0")
    assert code == 0
    assert out.strip() == "1"


def test_char_example_with_constant_term(capsys):
    code, out, _ = run(capsys, "char", "1,0,1,0,0,0")
    assert code == 0
    assert out.strip() == "z1*z3 - z1*z6 - z4 + 1"


def _readme_examples():
    # every command of README's Command line block, as written, with the
    # output its `# -> OUT` comment gives, or None where it gives none
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line.partition("# -> ") for line in block.splitlines()]
    return [(shlex.split(command, comments=True), out if arrow else None)
            for command, arrow, out in lines]


README_EXAMPLES = _readme_examples()


def test_readme_shows_both_leading_minus_forms():
    argvs = [argv for argv, _ in README_EXAMPLES]
    assert ["e6cs", "delta", "--", "-1/3*z1"] in argvs
    assert ["e6cs", "eig", "1,0,0,0,0,0", "--kappa=-1/2"] in argvs


@pytest.mark.parametrize("argv, out", README_EXAMPLES,
                         ids=[" ".join(argv[1:]) for argv, _ in README_EXAMPLES])
def test_readme_command_examples_print_what_they_say(capsys, isolated_cache, argv, out):
    assert argv[0] == "e6cs"
    code, got, err = run(capsys, *argv[1:])
    assert (code, err) == (0, "")
    if out is not None:
        assert got == out + "\n"


def test_char_json_output_is_pinned(capsys, isolated_cache):
    # the user-visible record, independent of the cache format; cold and warm
    expect = ('{"weight": [2, 0, 0, 0, 0, 0], "terms": ['
              '{"exp": [2, 0, 0, 0, 0, 0], "coef": "1"}, '
              '{"exp": [0, 0, 1, 0, 0, 0], "coef": "-1"}, '
              '{"exp": [0, 0, 0, 0, 0, 1], "coef": "-1"}], '
              '"version": 2}\n')
    for _ in range(2):
        assert run(capsys, "char", "2,0,0,0,0,0", "--format", "json") == (0, expect, "")
        characters.clear_memory_cache()


def test_char_json_round_trips(capsys):
    code, out, _ = run(capsys, "char", "1,1,0,0,0,0", "--format=json")
    assert code == 0
    record = json.loads(out)
    assert record["weight"] == [1, 1, 0, 0, 0, 0]
    assert SparsePolynomial.from_records(record["terms"]) == parse_polynomial("z1*z2 - z1 - z5")
    assert list(record) == ["weight", "terms", "version"]


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "0,0,0,1,0,0")
    assert code == 0
    assert out.strip() == "2925"


def test_dim_prints_an_integer_of_any_size(capsys):
    # 4,789 digits, past the limit of int-to-str conversion on Python 3.11+;
    # read back in pieces within that limit
    label = 10 ** 300 - 1
    code, out, err = run(capsys, "dim", f"{label},0,0,0,0,0")
    assert (code, err) == (0, "") and out.endswith("\n")
    digits, value = out[:-1], 0
    for i in range(0, len(digits), 1000):
        value = value * 10 ** len(digits[i:i + 1000]) + int(digits[i:i + 1000])
    assert len(digits) == 4789 and value == lattice.weyl_dimension((label, 0, 0, 0, 0, 0))


def test_eig(capsys):
    code, out, _ = run(capsys, "eig", "0,0,1,0,0,0", "--kappa=1")
    assert code == 0
    assert out.strip() == "200/3"
    code, out, _ = run(capsys, "eig", "0,0,0,0,0,0", "--kappa=7")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "eig", "1,0,0,0,0,0", "--kappa=1/2")
    assert code == 0
    assert out.strip() == "56/3"
    code, out, _ = run(capsys, "eig", "1,0,0,0,0,0", "--kappa=3/2")
    assert code == 0
    assert out.strip() == "152/3"


def test_tensor_text(capsys):
    code, out, _ = run(capsys, "tensor", "1,0,0,0,0,0", "1,0,0,0,0,0")
    assert code == 0
    assert out.splitlines() == [
        "(2,0,0,0,0,0) x 1",
        "(0,0,1,0,0,0) x 1",
        "(0,0,0,0,0,1) x 1",
    ]


def test_tensor_json_round_trips(capsys):
    code, out, _ = run(capsys, "tensor", "0,1,0,0,0,0", "0,0,1,0,0,0", "--json")
    assert code == 0
    series = CGSeries.from_json(json.loads(out))
    assert series == tensor_decompose((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))


def test_monomial(capsys):
    code, out, _ = run(capsys, "monomial", "0,0,0,0,0,1")
    assert code == 0
    assert out.strip() == "(0,0,0,0,0,1) x 1"


def test_monomial_trivial(capsys):
    code, out, _ = run(capsys, "monomial", "0,0,0,0,0,0")
    assert code == 0
    assert out == "(0,0,0,0,0,0) x 1\n"


def test_monomial_z1z2z3(capsys):
    code, out, _ = run(capsys, "monomial", "1,1,1,0,0,0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    assert "(1,0,0,0,0,1) x 5" in lines


def test_delta(capsys):
    code, out, _ = run(capsys, "delta", "z1")
    assert code == 0 and out.strip() == "104/3*z1"
    code, out, _ = run(capsys, "delta", "1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "delta", "z1^2")
    assert code == 0 and out.strip() == "224/3*z1^2 - 8*z3 - 40*z6"


def test_usage_errors_exit_2(capsys):
    for argv in [("dim", "1,2,3"),
                 ("char", "1,0,0,0,0,x"),
                 ("char", "-1,0,0,0,0,0"),
                 ("char", "0,2,0,0,0,0", "--method=annihilator"),  # the recursion only
                 # labels are plain ASCII decimal, as in cache entry names: int()
                 # would read 10, 1, 1 and 1 here
                 ("dim", "1_0,0,0,0,0,0"),
                 ("dim", "+1,0,0,0,0,0"),
                 ("dim", " 1,0,0,0,0,0"),
                 ("dim", "\u0661,0,0,0,0,0"),
                 ("eig", "1,0,0,0,0,0", "--kappa=z"),
                 # a rational literal is what ring.coef_to_str writes: Fraction()
                 # would read 10, 1, 1, 1, 100 and 3/2 here
                 ("eig", "1,0,0,0,0,0", "--kappa=1_0"),
                 ("eig", "1,0,0,0,0,0", "--kappa= 1"),
                 ("eig", "1,0,0,0,0,0", "--kappa=+1"),
                 ("eig", "1,0,0,0,0,0", "--kappa=\u0661"),
                 ("eig", "1,0,0,0,0,0", "--kappa=1e2"),
                 ("eig", "1,0,0,0,0,0", "--kappa=1.5"),
                 ("eig", "1,0,0,0,0,0", "--kappa=1/0"),
                 ("delta", "z1 +"),
                 ("delta", "1/0"),
                 ("delta", "z1 + 2/0"),
                 ("delta", "\u0663*z1"),
                 ("delta", "(" * 3000 + "z1" + ")" * 3000),
                 ("delta", "z1^" + "9" * 5000),  # past lattice.DIGIT_LIMIT
                 ("bogus",)]:
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        lines = captured.err.splitlines()  # the usage, then one error line
        assert lines[0].startswith("usage: e6cs") and lines[-1].startswith("e6cs")
        assert [": error: " in line for line in lines].count(True) == 1


@pytest.mark.parametrize("argv, error", [
    (("delta", "1" + "9" * 5000), "e6cs: error: a number of 5001 digits, over the limit of 1000"),
    (("delta", "z1^" + "9" * 5000),
     "e6cs: error: a number of 5000 digits, over the limit of 1000"),
    (("dim", "9" * 5000 + ",0,0,0,0,0"),
     "e6cs dim: error: argument weight: a number of 5000 digits, over the limit of 1000"),
    (("eig", "1,0,0,0,0,0", "--kappa=" + "9" * 5000),
     "e6cs eig: error: argument --kappa: a number of 5000 digits, over the limit of 1000"),
])
def test_numbers_over_the_digit_limit_are_refused_in_one_message(capsys, argv, error):
    # lattice.DIGIT_LIMIT is checked before int(), whose own limit (Python 3.11+)
    # would advise a call to sys.set_int_max_str_digits()
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == error


@pytest.mark.parametrize("expression", ["", "z1 +", "+"])
def test_delta_names_the_end_of_input(capsys, expression):
    with pytest.raises(SystemExit) as err:
        main(["delta", expression])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "e6cs: error: unexpected end of input"


def test_delta_over_its_budget_exits_1(capsys):
    code, out, err = run(capsys, "delta", "(z1 + z2 + z3 + z4 + z5 + z6)^10")
    assert (code, out) == (1, "")
    assert err == ("error: a power ^10 of 6 terms needs 30030 term products, "
                   "over the limit of 10000\n")


@pytest.mark.parametrize("expression, error", [
    ("z1*" + "9" * 1000 + "^2000",
     "error: a power ^2000 builds a number of 2000 digits, over the limit of 1000\n"),
    ("z1*999^2000", "error: a power ^2000 builds a number of 1002 digits, over the limit of 1000\n"),
    ("9" * 600 + "*" + "9" * 600 + "*z1",
     "error: a product builds a number of 1200 digits, over the limit of 1000\n"),
    ("1/" + "9" * 600 + "*1/" + "9" * 600,
     "error: a product builds a number of 1200 digits, over the limit of 1000\n"),
    ("9" * 1000 + " + " + "9" * 1000 + " + z1",
     "error: a sum builds a number of 1001 digits, over the limit of 1000\n"),
], ids=["power-of-1000-digits", "power-of-3-digits", "product", "product-of-fractions", "sum"])
def test_delta_refuses_to_build_a_number_over_the_digit_limit(capsys, expression, error):
    # each step's inputs are within the limit, so each refusal comes at once
    start = time.perf_counter()
    assert run(capsys, "delta", expression) == (1, "", error)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("expression", [
    "z1^10001", "z1^99999", "z1^" + "9" * 100, "z1^" + "9" * 1000, "z1^1" + "0" * 999,
    "(z1 + z2 + z3 + z4 + z5 + z6)^10000",
    "(" + " + ".join(f"z1^{i}" for i in range(100)) + ")^10000",
], ids=["10001", "99999", "9-of-100-digits", "9-of-1000-digits", "1-of-1000-digits",
        "6-terms", "100-terms"])
def test_a_power_budget_error_is_one_short_line(capsys, expression):
    # the count of multiplications or term products a power needs is named in
    # full up to TERM_LIMIT ** 2 and by its digit count past it
    code, out, err = run(capsys, "delta", expression)
    assert (code, out) == (1, "")
    assert err.startswith("error: a power ") and err.count("\n") == 1
    assert len(err.encode()) <= 120 and "9" * 10 not in err and "0" * 10 not in err


@pytest.mark.parametrize("labels, count", [
    ("10001,0,0,0,0,0", "10001"), ("1" + "0" * 29 + ",0,0,0,0,0", "a 30-digit number of"),
], ids=["10001", "30-digits"])
def test_a_monomial_over_the_factor_budget_exits_1(capsys, isolated_cache, labels, count):
    # refused before its factors are listed, as one line, not an OverflowError
    assert run(capsys, "monomial", labels) == \
        (1, "", f"error: a monomial needs {count} factors, over the limit of 10000\n")


def test_computation_error_exits_1(capsys, isolated_cache, term_index):
    assert main(["char", "2,0,0,0,0,0"]) == 0
    capsys.readouterr()
    path = characters.cache_path((2, 0, 0, 0, 0, 0))
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["coefs"][term_index(payload, (2, 0, 0, 0, 0, 0))] = 3
    path.write_text(json.dumps(payload), encoding="utf-8")
    characters.clear_memory_cache()
    code, _, err = run(capsys, "char", "2,0,0,0,0,0")
    assert code == 1
    assert "error:" in err


# The lines of each suite of `verify --suite=all`, by their own digest, cold
# and warm; only dims differs warm, as it sweeps the stored entries.
SUITE_DIGESTS = {
    "appendix-a": "5676100804aa53e03e1f4b0ebfed44935b40164334b6ba0a73bfcf0397f01cf0",
    "appendix-b": "ccd96aa9f5155a89fde5d8ef310d34ca5d5a2c88c25671d7bf1aba8674662705",
    "dims": ("88815e65f3238ac0b239cf43994841bc7ec9fe73da4e892cfb6a9a8224b7f13a",
             "8f59b10f7c5c33ce7b019592edac5ba7a34f9324f693b369656cc2b481b942e8"),
    "duality": "fcf28e809a27defd6383bf952db9af7922f06e8d3c0e607275da7376dbf7119c",
    "quadratic": "aba74b387a12b0b3a8e83db181b0cb9db516172501f1203c5ddcf6a51e37f93c",
    "roots": "4355a103ffa31dea6da01d4ec24fd44f9334e0697cece35c62132a59a95264db",
    "tables": "dfd5333568ee7aaa66f8185f4ade74e885d361176b7230a3617bc747c65ddacb",
}


def test_verify_all_output_is_pinned(capsys, isolated_cache):
    # cold: the stdout the benchmark's correctness gate holds every run to;
    # warm, on the same cache with the memory tier emptied as in a new
    # process: the dims suite sweeps the 190 stored entries.  The output is
    # each suite's block of [name] lines, in sorted suite order, then the
    # summary line.
    for warm, last in [(0, "474/474"), (1, "475/475")]:
        code, out, _ = run(capsys, "verify", "--suite=all")
        assert code == 0
        *lines, summary = out.splitlines()
        assert summary == f"{last} checks passed"
        blocks: dict[str, list[str]] = {}
        for line in lines:
            blocks.setdefault(line.split()[1].strip("[]"), []).append(line)
        assert list(blocks) == sorted(SUITE_DIGESTS)
        assert out == "".join(f"{line}\n" for block in blocks.values() for line in block) \
            + f"{summary}\n"
        for name, block in blocks.items():
            pin = SUITE_DIGESTS[name]
            digest = hashlib.sha256("".join(f"{line}\n" for line in block).encode()).hexdigest()
            assert digest == (pin[warm] if name == "dims" else pin), name
        characters.clear_memory_cache()


def _entry_digests(cache):
    """The entry count, the digest of the entry files by name, and the digest
    of the same entries decoded and rendered again in the version-2 layout
    (flat integer arrays, and the `method` every entry then recorded), which
    the version-2 files hashed to: so only the exponent field changed with
    version 3, version 4 only dropped `width` and version 5 only `method`."""
    files, v2 = hashlib.sha256(), hashlib.sha256()
    entries = sorted(cache.glob("chi_*.json"))
    for path in entries:
        text = path.read_bytes()
        ch = characters.decode_cache_entry(text.decode())
        old = json.dumps({"weight": list(ch.weight), "version": 2, "method": "recursion",
                          "exps": [x for e in ch.poly.terms for x in e],
                          "coefs": list(ch.poly.terms.values())}, separators=(",", ":"))
        files.update(path.name.encode() + b"\0" + text + b"\0")
        v2.update(path.name.encode() + b"\0" + old.encode() + b"\0")
    return len(entries), files.hexdigest(), v2.hexdigest()


def test_cache_entries_written_by_a_cold_job_are_pinned(capsys, isolated_cache):
    # the recursion's term order reaches the cache files byte for byte
    code, _, _ = run(capsys, "monomial", "0,0,1,1,0,0")
    assert code == 0
    assert _entry_digests(isolated_cache) == (
        14, "8e0ccdb0172545ca51fc4d2b4625b1b19769d566f2409ac7bdb9eac2d338437a",
        "ebc86e4a5611ec4acc06b2846666b3ffb19d64b389bdb5b7063ada70e4b2696b")


def test_the_cold_monomial_job_is_pinned(capsys, isolated_cache):
    # cold: the recursion builds and stores 633 characters, pinned byte for
    # byte; warm, with the memory tier emptied as in a new process: each is
    # loaded and validated; then the third reader, `cache validate`, agrees
    expect = "2aa027ba6569838dfb77e44e09f741711e26ffceb9ef9baa95c4afc9f00ba65e"
    code, out, _ = run(capsys, "monomial", "0,0,0,5,0,0", "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == expect
    assert _entry_digests(isolated_cache) == (
        633, "61afaf2bc3af37c77bac9cb46263bec53b33c893be31e90472b49e56ca7d95bf",
        "da7c8f1e4990bbf6d3f7e1e36680ad216530b3c46dc21fc3c0601dc52be89b5b")
    characters.clear_memory_cache()
    code, out, _ = run(capsys, "monomial", "0,0,0,5,0,0", "--json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == expect
    assert run(capsys, "cache", "validate") == \
        (0, f"validated 633 entries in {isolated_cache}\n", "")


def test_verify_dims_suite_vacuous_on_empty_cache(capsys, isolated_cache):
    code, out, _ = run(capsys, "verify", "--suite=dims")
    assert code == 0
    assert "cached entries swept: 0" in out


def test_cache_admin(capsys, isolated_cache, monkeypatch):
    # a directory that is not there yet lists as empty; the first store makes it
    directory = isolated_cache / "new"
    monkeypatch.setenv(characters.CACHE_ENV, str(directory))
    assert run(capsys, "cache", "info") == (0, f"cache directory: {directory}\nentries: 0\n", "")
    assert not directory.exists()
    run(capsys, "char", "1,0,0,0,0,1")
    code, out, _ = run(capsys, "cache", "info")
    assert code == 0
    assert str(directory) in out and "entries: 1" in out
    code, out, _ = run(capsys, "cache", "validate")
    assert code == 0 and "validated 1" in out
    code, out, _ = run(capsys, "cache", "clear")
    assert code == 0 and "removed 1" in out
    code, out, _ = run(capsys, "cache", "info")
    assert "entries: 0" in out


def test_cache_clear_removes_interrupted_store_temporaries(capsys, isolated_cache):
    # what _store leaves when it is killed between mkstemp and the rename
    run(capsys, "char", "1,0,0,0,0,0")
    leftover = isolated_cache / "tmpk3x9q1.tmp"
    leftover.write_text('{"weight": [1, 0', encoding="utf-8")
    code, out, _ = run(capsys, "cache", "clear")
    assert code == 0
    assert out.splitlines() == [f"removed 1 entries from {isolated_cache}",
                                "removed 1 temporary files left by interrupted stores"]
    assert list(isolated_cache.iterdir()) == []


def test_cache_info_and_clear_count_stray_files_apart(capsys, isolated_cache):
    run(capsys, "char", "1,0,0,0,0,0")
    entry = characters.cache_path((1, 0, 0, 0, 0, 0))
    (isolated_cache / "chi_01-0-0-0-0-0.json").write_bytes(entry.read_bytes())
    (isolated_cache / "chi_x.json").write_text("junk", encoding="utf-8")
    assert run(capsys, "cache", "info") == (
        0, f"cache directory: {isolated_cache}\nentries: 1\nstray files: 2\n", "")
    # the dims sweep names each stray file, but counts only the one entry
    code, out, _ = run(capsys, "verify", "--suite=dims")
    assert code == 1 and "cached entries swept: 1\n" in out
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL [dims] cached entry chi_01-0-0-0-0-0.json", "FAIL [dims] cached entry chi_x.json"]
    assert run(capsys, "cache", "clear") == (
        0, f"removed 1 entries from {isolated_cache}\nremoved 2 stray files\n", "")
    assert list(isolated_cache.iterdir()) == []


@pytest.mark.parametrize("plant, reason", [
    (lambda path: path.write_text("[" * 100_000, encoding="utf-8"), "entry nests too deeply"),
    (lambda path: path.mkdir(), "Is a directory"),
    # a read would block on a FIFO and never end on /dev/zero
    pytest.param(lambda path: os.mkfifo(path), "not a regular file",
                 marks=pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")),
    pytest.param(lambda path: path.symlink_to("/dev/zero"), "not a regular file",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")),
], ids=["nested", "directory", "fifo", "device"])
def test_a_hostile_entry_gives_one_line_in_every_reader(capsys, isolated_cache, plant, reason):
    path = characters.cache_path((1, 0, 0, 0, 0, 0))
    plant(path)
    for argv in (["char", "1,0,0,0,0,0"], ["cache", "validate"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: unreadable cache entry {path}: {reason}\n"
    code, out, _ = run(capsys, "verify", "--suite=dims")
    assert code == 1
    (fail,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fail == f"FAIL [dims] cached entry {path.name}: unreadable cache entry {path}: {reason}"
    # the documented remedy: clear removes an entry it can unlink, names one it cannot
    code, out, err = run(capsys, "cache", "clear")
    if path.is_dir():
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot remove cache entry {path}: ")
        assert err.count("\n") == 1
    else:
        assert (code, out, err) == (0, f"removed 1 entries from {isolated_cache}\n", "")


def test_cache_clear_skips_an_entry_already_removed(capsys, isolated_cache, monkeypatch):
    # as when a concurrent `cache clear` unlinks it between the listing and the unlink
    run(capsys, "char", "1,0,0,0,0,0")
    listed = characters.cache_entries() + [characters.cache_path((0, 0, 0, 0, 0, 1))]
    monkeypatch.setattr(characters, "cache_entries", lambda: listed)
    assert run(capsys, "cache", "clear") == (0, f"removed 1 entries from {isolated_cache}\n", "")
    assert list(isolated_cache.iterdir()) == []


def test_cache_validate_rejects_stray_file(capsys, isolated_cache):
    # only the name a lookup would read is an entry, and the dims sweep agrees:
    # no labels, a leading zero, an Arabic-Indic digit one
    for name, text in [("chi_foo.json", "{}"), ("chi_01-0-0-0-0-0.json", "garbage"),
                       ("chi_\u0661-0-0-0-0-0.json", "garbage")]:
        stray = isolated_cache / name
        stray.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "cache", "validate")
        assert code == 1
        assert err.startswith("error:") and name in err
        code, out, _ = run(capsys, "verify", "--suite=dims")
        assert code == 1 and f"FAIL [dims] cached entry {name}: stray cache entry {stray}: " in out
        stray.unlink()


_LOOKUPS = [["char", "1,0,0,0,0,0"], ["tensor", "1,0,0,0,0,0", "0,0,0,0,0,1"]]
_LISTINGS = [["cache", "info"], ["cache", "clear"], ["cache", "validate"],
             ["verify", "--suite=dims"]]


@pytest.mark.parametrize("argv, side", [
    pytest.param(argv, side, id=f"{side}-{' '.join(argv)}")
    for argv in _LOOKUPS + _LISTINGS for side in ("read", "file", "write")
    if side != "write" or argv in _LOOKUPS])
def test_unusable_cache_directory_is_named(capsys, tmp_path, monkeypatch, argv, side):
    # read: a path below a regular file; file: the regular file itself; both
    # fail a lookup and a listing of the entries alike.  write: a miss whose
    # store cannot mkdir (a listing of a missing directory is an empty cache)
    (tmp_path / "file").write_text("", encoding="utf-8")
    if side == "read":
        directory = tmp_path / "file" / "sub"
    elif side == "file":
        directory = tmp_path / "file"
    else:
        directory = tmp_path / "dangling"
        directory.symlink_to(tmp_path / "nowhere")
    monkeypatch.setenv(characters.CACHE_ENV, str(directory))
    characters.clear_memory_cache()
    try:
        code, out, err = run(capsys, *argv)
    finally:
        characters.clear_memory_cache()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: unusable cache directory {directory}: ")
    assert err.count("\n") == 1 and "chi_" not in err


@pytest.mark.parametrize("fault", [
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    KeyboardInterrupt(),
], ids=["no-space", "interrupt"])
def test_a_failed_cache_write_gives_one_line(fault, capsys, isolated_cache, monkeypatch):
    # a full disk or a quota fails the store's rename with one error line;
    # another exception there, as an interrupt, is raised again unchanged.
    # Either way the tmp file is removed and no entry is published
    def failing(src, dst):
        raise fault
    monkeypatch.setattr(os, "replace", failing)
    if isinstance(fault, OSError):
        code, out, err = run(capsys, "char", "1,0,0,0,0,0")
        assert (code, out) == (1, "")
        assert err == f"error: unusable cache directory {isolated_cache}: {os.strerror(errno.ENOSPC)}\n"
    else:
        with pytest.raises(KeyboardInterrupt) as info:
            main(["char", "1,0,0,0,0,0"])
        assert info.value is fault and info.value.__cause__ is None
    assert list(isolated_cache.iterdir()) == []


def test_a_file_size_limit_gives_one_line(tmp_path):
    # a real failed write, as under `ulimit -f`: the 207-byte entry of
    # 0,0,0,2,0,0 is over a 100-byte limit, and the write raises EFBIG
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100)); "
              "from e6cs.cli import main; sys.exit(main(['char', '0,0,0,2,0,0']))")
    env = dict(os.environ, PYTHONPATH=str(Path(e6cs.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1", **{characters.CACHE_ENV: str(tmp_path)})
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          encoding="utf-8", timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: unusable cache directory {tmp_path}: {os.strerror(errno.EFBIG)}\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_the_engine_names_the_encoding_of_every_file_it_reads_or_writes(tmp_path):
    # under warn_default_encoding, a text read or write that leaves its
    # encoding to the locale warns, and the warning is made an error
    script = "import sys; from e6cs.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(e6cs.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1", **{characters.CACHE_ENV: str(tmp_path)})
    for argv in (["verify", "--suite=all"], ["verify", "--suite=all"],  # cold, then warm
                 ["tensor", "0,0,1,0,0,0", "0,0,0,1,0,0"], ["cache", "validate"]):
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-c", script, *argv],
                              env=env, capture_output=True, encoding="utf-8", timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["char", "2,0,0,0,0,0"], ["verify", "--suite=roots"]],
                         ids=" ".join)
def test_a_closed_stdout_exits_1_quietly(tmp_path, argv, unbuffered):
    # as in `e6cs … | head -c 0`: the reader closes its end before a byte is written
    script = "import sys; from e6cs.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(e6cs.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1", **{characters.CACHE_ENV: str(tmp_path)})
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, encoding="utf-8",
                              timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
