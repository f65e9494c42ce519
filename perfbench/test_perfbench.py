"""Tests of the benchmark's tracer and correctness gate, on a tiny query."""

from __future__ import annotations

import run
import tracer

TINY = ("tensor", "0,0,1,0,0,0", "0,0,0,1,0,0", "--json")


def test_install_rebinds_every_alias_and_restores_them():
    originals = tracer.traced_functions()
    before = tracer.aliases(originals)
    # names imported with `from ... import` and the dispatch tables included
    assert "e6cs.tensor.character" in before
    assert "e6cs.verify.character_recursion" in before
    assert "e6cs.characters._METHODS['annihilator']" in before
    assert "e6cs.verify.SUITES['duality']" in before
    restore = tracer.install(tracer.Tracer())
    try:
        assert tracer.aliases(originals) == []
    finally:
        restore()
    assert tracer.aliases(originals) == before


def test_traced_tiny_query_has_exact_counts(tmp_path):
    op = run.run_child("traced", TINY, tmp_path / "cache", tmp_path, timeout=60)
    assert op.problem is None
    assert run.series_problem(op.stdout, 14) is None
    layers = {name: value for name, (value, _) in run.layer_metrics(op.trace).items()}
    assert {name: layers[name] for name in (
        "characters.computed", "characters.lookups", "characters.cache_misses",
        "characters.cache_hits", "characters.validate_calls", "lattice.enum_calls",
        "tensor.peels", "tensor.candidates", "tensor.nonzero", "ring.mul_calls",
        "verify.checks",
    )} == {
        "characters.computed": 15, "characters.lookups": 16, "characters.cache_misses": 15,
        "characters.cache_hits": 0, "characters.validate_calls": 15, "lattice.enum_calls": 1,
        "tensor.peels": 1, "tensor.candidates": 14, "tensor.nonzero": 14, "ring.mul_calls": 1,
        "verify.checks": 0,
    }
    # self times partition the job: they add up to the root span's duration
    trace = op.trace
    assert abs(sum(trace["self_s"].values()) - trace["total_s"]["cli.main"]) < 1e-6
    assert len(list((tmp_path / "cache").glob("chi_*.json"))) == 15


def test_wrong_output_is_a_failed_operation():
    op = run.Op(None, 0.1, 1.0, 50.0, "plain", stdout='{"factors": [], "terms": []}')
    run.check_op(op, run.WORKLOADS["scaleup_warm"])
    assert op.problem == "0 terms, expected 342"


def test_timeout_is_a_failed_operation(tmp_path):
    op = run.run_child("plain", ("verify", "--suite=all"), tmp_path / "cache", tmp_path,
                       timeout=0.05)
    assert op.problem is not None and op.problem.startswith("timed out")
