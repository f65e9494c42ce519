"""Acceptance facts that no `e6cs verify` suite states: the sizes of the
shipped reference data and how its loaders refuse a planted fault, spot
multiplicities of l3 x l4 and z4^3, and the closed-form z1 * chi(n l_k)
product families.  The suites themselves are gated once, by the pinned
output of `e6cs verify --suite=all` in test_cli.py.  Every comparison is
exact."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e6cs import characters, golden, lattice, tensor
from e6cs.errors import InternalInconsistencyError

REFERENCE_SIZES = {
    golden.characters_degree2: 28,
    golden.characters_degree3: 32,
    golden.series_quadratic: 21,
    golden.series_cubic: 31,
    golden.tensor_candidates_l3_l4: 14,
}


@pytest.fixture
def planted_reference(monkeypatch):
    """The loaders of golden read the records of this dict, by file name,
    in place of the shipped ones, still through lattice.read_shipped; their
    caches are emptied before and after."""
    def forget():
        for loader in (*REFERENCE_SIZES, golden.all_characters):
            loader.cache_clear()

    def planted(name, read):
        return lattice.read_shipped(name, lambda _: read(files[name]))

    files = {}
    forget()
    monkeypatch.setattr(golden, "read_shipped", planted)
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
    # a factor pair listed twice, in either order, would be checked twice
    ("series_quadratic.json", [{"factors": [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]], "terms": []},
                               {"factors": [[0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]], "terms": []}],
     "repeated factors ((0, 0, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0))"),
    ("series_cubic.json", [{"monomial": [0, 0, 0, 2, 0, 0], "factors": [], "terms": []},
                           {"monomial": [0, 0, 0, 2, 0, 0], "factors": [], "terms": []}],
     "repeated monomial (0, 0, 0, 2, 0, 0)"),
    ("tensor_candidates_l3_l4.json", [{"weight": [0, 0, 0, 1, 0, 0], "dim": 2925},
                                      {"weight": [0, 0, 0, 1, 0, 0], "dim": 2925}],
     "repeated weight (0, 0, 0, 1, 0, 0)"),
    # a record that lacks a field, or is not an object, is named, never a KeyError
    ("tensor_candidates_l3_l4.json", [{"weight": [0, 0, 0, 1, 0, 0]}],
     "record lacks the field 'dim': {'weight': [0, 0, 0, 1, 0, 0]}"),
    ("characters_degree2.json", [{"terms": []}], "record lacks the field 'weight'"),
    ("characters_degree2.json", [[2, 0, 0, 0, 0, 0]],
     "record is not an object: [2, 0, 0, 0, 0, 0]"),
    ("characters_degree3.json", [{"weight": [0, 0, 0, 1, 0, 0], "terms": [{"exp": [0] * 6}]}],
     "record lacks the field 'coef': {'exp': [0, 0, 0, 0, 0, 0]}"),
    ("series_quadratic.json", [{"factors": []}], "record lacks the field 'terms': {'factors': []}"),
    ("series_cubic.json", [{"monomial": [0, 0, 0, 2, 0, 0], "terms": []}],
     "record lacks the field 'factors'"),
    ("series_cubic.json", [{"monomial": [0, 0, 0, 2, 0, 0], "factors": [],
                            "terms": [{"weight": [0] * 6}]}],
     "record lacks the field 'mult': {'weight': [0, 0, 0, 0, 0, 0]}"),
    # int() would round this to 2925
    ("tensor_candidates_l3_l4.json", [{"weight": [0, 0, 0, 1, 0, 0], "dim": 2925.9}],
     "dimension must be an int"),
    # a quadratic series is z_i * z_j: exactly two factors, each a fundamental weight
    ("series_quadratic.json", [{"factors": [[2, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]], "terms": []}],
     "factors ((2, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)) are not two fundamental weights"),
    ("series_quadratic.json", [{"factors": [[1, 0, 0, 0, 0, 0]] * 3, "terms": []}],
     "factors ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)) are not two "
     "fundamental weights"),
])
def test_reference_weights_and_dimensions_are_read_exactly(planted_reference, name, records,
                                                           fault):
    planted_reference[name] = records
    loader = getattr(golden, name.removesuffix(".json"))
    with pytest.raises(InternalInconsistencyError,
                       match=f"^shipped file {re.escape(name)}: .*{re.escape(fault)}"):
        loader()


# spot multiplicities of two shipped series; the l3 x l4 ones include the five
# left to the dimension count and the lowest term, pinned jointly by the
# dimension balance, the orthogonality identity and the series display itself
L3_L4 = {(0, 1, 1, 0, 0, 0): 2, (1, 0, 0, 0, 1, 0): 2, (0, 1, 0, 0, 0, 1): 2,
         (0, 0, 0, 0, 2, 0): 1, (0, 2, 0, 0, 0, 1): 1, (0, 0, 0, 1, 0, 1): 1,
         (2, 1, 0, 0, 0, 0): 1, (1, 0, 0, 0, 0, 2): 1, (0, 0, 0, 0, 0, 1): 1}
Z4_CUBED = {(1, 0, 0, 1, 0, 1): 156, (1, 1, 0, 0, 0, 1): 150, (0, 0, 1, 0, 1, 0): 128,
            (0, 0, 0, 0, 0, 0): 2}


# the verb that reads each shipped data file
SHIPPED_READERS = {
    "operator_tables.json": ["char", "1,0,0,0,0,0"],
    "characters_degree2.json": ["verify", "--suite=quadratic"],
    "characters_degree3.json": ["verify", "--suite=appendix-a"],
    "series_quadratic.json": ["verify", "--suite=tables"],
    "series_cubic.json": ["verify", "--suite=appendix-b"],
    "tensor_candidates_l3_l4.json": ["verify", "--suite=dims"],
}


def _truncated(text):
    return text[:len(text) // 2]


def _first_record_not_an_object(text):
    records = json.loads(text)
    records[0] = [1]
    return json.dumps(records)


def _first_field_dropped(text):
    records = json.loads(text)
    del records[0][next(iter(records[0]))]
    return json.dumps(records)


def _nested_too_deeply(text):
    return "[" * 100_000


def _removed(text):
    return None  # the file is deleted


@pytest.mark.parametrize("fault", [_truncated, _first_record_not_an_object, _first_field_dropped,
                                   _nested_too_deeply, _removed],
                         ids=lambda fault: fault.__name__.strip("_"))
@pytest.mark.parametrize("name", sorted(SHIPPED_READERS))
def test_a_corrupt_shipped_file_exits_1_with_one_error_line(tmp_path, name, fault):
    # on a copy of the package, in a process of its own: the operator tables
    # and the exponent index are process-wide
    package = tmp_path / "src" / "e6cs"
    shutil.copytree(Path(golden.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = package / "data" / name
    text = fault(path.read_text(encoding="utf-8"))
    if text is None:
        path.unlink()
    else:
        path.write_text(text, encoding="utf-8")
    script = "import sys; from e6cs.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1",
               **{characters.CACHE_ENV: str(tmp_path / "cache")})
    proc = subprocess.run([sys.executable, "-c", script, *SHIPPED_READERS[name]], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    if fault is _removed:
        assert proc.stderr.startswith(f"error: shipped file {name}: "), proc.stderr


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
