"""Benchmark of the e6cs command line: fresh-process workloads with end-to-end
metrics, and a traced run that breaks the job down by engine module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one CLI invocation in a fresh interpreter, started one at a
time, because the engine's memo tables are process-global and every user call
starts with them empty.  Each gets its own character cache directory, a pinned
PYTHONHASHSEED, an address-space cap and a timeout.  Outputs are checked
against digests recorded from the seed engine and against invariants computed
here independently.  Human-readable lines come first; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  See README.md in this directory for the choice of workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from math import prod
from pathlib import Path
from statistics import median
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

OP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0       # a whole run, set-up included, ends before this
SETUP_ONLY_CHILDREN = 8      # extra set-up samples besides one per operation

# ---------------------------------------------------------------------------
# Output checks, written apart from the engine's own lattice code so that a
# fault there cannot hide itself
# ---------------------------------------------------------------------------
CARTAN = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)


def _positive_roots() -> list[tuple[int, ...]]:
    # in a simply-laced system r + a_i is a root iff <r, a_i> = -1
    simple = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    roots, frontier = set(simple), simple
    while frontier:
        grown = {r[:i] + (r[i] + 1,) + r[i + 1:]
                 for r in frontier for i in range(6)
                 if sum(r[j] * CARTAN[j][i] for j in range(6)) == -1}
        frontier = list(grown - roots)
        roots |= grown
    if len(roots) != 36:
        raise RuntimeError(f"E6 has 36 positive roots, generated {len(roots)}")
    return sorted(roots)


POSITIVE_ROOTS = _positive_roots()


def weyl_dimension(w) -> int:
    num = prod(sum(c * (x + 1) for c, x in zip(r, w)) for r in POSITIVE_ROOTS)
    return num // prod(sum(r) for r in POSITIVE_ROOTS)


def series_problem(stdout: str, n_terms: int) -> str | None:
    """Check a `--json` Clebsch-Gordan series: term count, top multiplicity 1,
    positive integer multiplicities and exact dimension balance."""
    try:
        obj = json.loads(stdout)
        factors = [tuple(f) for f in obj["factors"]]
        terms = [(tuple(t["weight"]), t["mult"]) for t in obj["terms"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable series: {exc}"
    if len(terms) != n_terms:
        return f"{len(terms)} terms, expected {n_terms}"
    mults = dict(terms)
    top = tuple(map(sum, zip(*factors)))
    if mults.get(top) != 1:
        return f"top weight {top} has multiplicity {mults.get(top)}"
    if any(not isinstance(m, int) or m <= 0 for m in mults.values()):
        return "a multiplicity is not a positive integer"
    total = sum(m * weyl_dimension(w) for w, m in mults.items())
    expected = prod(weyl_dimension(f) for f in factors)
    if total != expected:
        return f"dimensions sum to {total}, the factors give {expected}"
    return None


def verify_problem(stdout: str, n_checks: int) -> str | None:
    lines = stdout.splitlines()
    passed = sum(line.startswith("ok   [") for line in lines)
    failed = [line for line in lines if line.startswith("FAIL")]
    if failed:
        return failed[0]
    if passed != n_checks or not lines or lines[-1] != f"{n_checks}/{n_checks} checks passed":
        return f"{passed} checks passed, expected {n_checks}"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    warm: bool  # run on a copy of a cache prefilled by this same query
    digest: str  # sha256 of the job's standard output on the seed engine
    check: Callable[[str], str | None]
    trace_counts: dict[str, int]  # exact per-layer counts of a traced operation


WORKLOADS = {
    "paper_verify": Workload(
        ("verify", "--suite=all"), False,
        "99b3ce07bf2cd2c1c20487f1363cdbd23352d16ecd05dcb8e9502fd9921bc460",
        lambda out: verify_problem(out, 474),
        {"verify.checks": 474}),
    "scaleup_cold": Workload(
        ("monomial", "0,0,0,5,0,0", "--json"), False,
        "2aa027ba6569838dfb77e44e09f741711e26ffceb9ef9baa95c4afc9f00ba65e",
        lambda out: series_problem(out, 633),
        {"characters.computed": 633, "tensor.candidates": 633}),
    "scaleup_warm": Workload(
        ("tensor", "1,1,1,1,1,1", "0,0,0,1,0,0", "--json"), True,
        "856023939f18d50e71d0c8cf76972176fbd034291c7a4ca2828ccb224536ba72",
        lambda out: series_problem(out, 342),
        {"characters.cache_hits": 343, "characters.computed": 0}),
}

VERIFY_SUITES = ("appendix-a", "appendix-b", "dims", "duality", "quadratic", "roots", "tables")


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced job; every `_s` figure except the
    verify suites is self time, so those figures partition the job."""
    calls, counts, self_s = trace["calls"], trace["counts"], trace["self_s"]
    c = lambda key: (calls.get(key, 0), "count")
    n = lambda key: (counts.get(key, 0), "count")
    s = lambda key: (self_s.get(key, 0.0), "s")
    out = {
        "lattice.enum_calls": c("lattice.enum"),
        "lattice.enum_weights": n("lattice.enum_weights"),
        "lattice.enum_s": s("lattice.enum"),
        "hamiltonian.image_calls": c("hamiltonian.image"),
        "hamiltonian.image_distinct": n("hamiltonian.image_distinct"),
        "hamiltonian.image_s": s("hamiltonian.image"),
        "hamiltonian.eigenvalue_calls": c("hamiltonian.eigenvalue"),
        "hamiltonian.eigenvalue_s": s("hamiltonian.eigenvalue"),
        "characters.computed": (calls.get("characters.recursion", 0)
                                + calls.get("characters.annihilator", 0), "count"),
        "characters.recursion_s": s("characters.recursion"),
        "characters.validate_calls": c("characters.validate"),
        "characters.validate_s": s("characters.validate"),
        "characters.cache_store_s": s("characters.cache_store"),
        "characters.cache_bytes": (counts.get("characters.cache_bytes", 0), "bytes"),
        "characters.lookups": c("characters.lookup"),
        "characters.cache_hits": n("characters.cache_hits"),
        "characters.cache_misses": n("characters.cache_misses"),
        "characters.cache_load_s": s("characters.cache_load"),
        "characters.annihilator_calls": c("characters.annihilator"),
        "characters.annihilator_s": s("characters.annihilator"),
        "tensor.peels": c("tensor.peel"),
        "tensor.candidates": n("tensor.candidates"),
        "tensor.nonzero": n("tensor.nonzero"),
        "tensor.peel_self_s": s("tensor.peel"),
        "ring.mul_calls": c("ring.mul"),
        "ring.mul_terms": n("ring.mul_terms"),
        "ring.mul_s": s("ring.mul"),
        "verify.checks": n("verify.checks"),
        "cli.self_s": s("cli.main"),
    }
    for suite in VERIFY_SUITES:
        out[f"verify.suite_s.{suite}"] = (trace["total_s"].get(f"verify.suite.{suite}", 0.0), "s")
    return out


# ---------------------------------------------------------------------------
# Fresh-process operations
# ---------------------------------------------------------------------------
@dataclass
class Op:
    problem: str | None  # None when the operation succeeded
    setup_s: float | None
    wall_s: float
    rss_mb: float
    mode: str
    trace: dict | None = None
    stdout: str = ""


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for `proc`, killing it at `deadline` or when this process is
    interrupted; return its resource usage and whether it was timed out."""
    timed_out = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage, timed_out
            if not timed_out and time.monotonic() > deadline:
                proc.kill()
                timed_out = True
            time.sleep(0.005)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
        raise


def run_child(mode: str, argv, cache: Path, scratch: Path, timeout: float) -> Op:
    """Run child.py once in a fresh interpreter and wait for it to end."""
    out = scratch / "result.json"
    out.unlink(missing_ok=True)
    # OpenBLAS reserves address space per thread at import, which on a large
    # machine would trip the child's cap; the engine never calls BLAS
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               E6CS_CACHE_DIR=str(cache), XDG_CACHE_HOME=str(scratch / "xdg"))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(out), mode, *argv],
                            env=env, cwd=scratch, stdout=subprocess.DEVNULL)
    usage, timed_out = _reap(proc, start + timeout)
    elapsed = time.monotonic() - start
    rss_mb = usage.ru_maxrss / 1024
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError):
        result = {}
    setup_s = result["setup_end"] - start if "setup_end" in result else None
    wall_s = result.get("job_s", elapsed)
    problem = None
    if timed_out:
        problem = f"timed out after {timeout:.0f} s"
    elif "error" in result:
        problem = result["error"].strip().splitlines()[-1]
    elif proc.returncode != 0 or not result:
        problem = f"child exited with status {proc.returncode}"
    elif mode != "setup" and result.get("exit_code") != 0:
        problem = f"CLI exit code {result.get('exit_code')}"
    return Op(problem, setup_s, wall_s, rss_mb, mode, result.get("trace"), result.get("stdout", ""))


def check_op(op: Op, workload: Workload) -> None:
    """Record in `op.problem` the first way its output or trace is wrong."""
    if op.problem:
        return
    digest = hashlib.sha256(op.stdout.encode()).hexdigest()
    op.problem = workload.check(op.stdout)
    if op.problem is None and digest != workload.digest:
        op.problem = f"output digest {digest} differs from the seed engine's"
    if op.problem is None and op.trace is not None:
        layers = layer_metrics(op.trace)
        for key, want in workload.trace_counts.items():
            if layers[key][0] != want:
                op.problem = f"traced {key} = {layers[key][0]}, expected {want}"
                break


def source_key() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "e6cs").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:20]


class Runner:
    def __init__(self, workload: Workload, scratch: Path, deadline: float):
        self.workload = workload
        self.scratch = scratch
        self.deadline = deadline
        self.ops: list[Op] = []
        self.setup_samples: list[float] = []
        self.warm_source: Path | None = None
        self._caches = 0

    def child(self, mode: str, cache: Path, argv=()) -> Op:
        timeout = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        op = run_child(mode, argv, cache, self.scratch, max(timeout, 1.0))
        if op.setup_s is not None:
            self.setup_samples.append(op.setup_s)
        return op

    def fresh_cache(self) -> Path:
        self._caches += 1
        cache = self.scratch / f"cache-{self._caches}"
        if self.warm_source is not None:
            shutil.copytree(self.warm_source, cache)
        else:
            cache.mkdir()
        return cache

    def setup(self) -> None:
        """Untimed set-up: compile bytecode and warm the file cache, sample
        set-up time, and for a warm workload prefill its cache once per
        engine source tree."""
        self.child("setup", self.scratch / "unused")
        self.setup_samples.clear()
        for _ in range(SETUP_ONLY_CHILDREN):
            self.child("setup", self.scratch / "unused")
        if not self.workload.warm:
            return
        prefilled = WORK / f"warm-{source_key()}"
        if not prefilled.is_dir():
            partial = self.scratch / "prefill"
            partial.mkdir()
            op = self.child("plain", partial, self.workload.argv)
            check_op(op, self.workload)
            if op.problem:  # measured on all the same, and deleted with the run
                self.ops.append(op)
                prefilled = partial
            else:
                try:
                    partial.rename(prefilled)
                except OSError:  # prefilled by a concurrent run meanwhile
                    pass
        self.warm_source = prefilled

    def op(self, mode: str) -> Op:
        # caches are deleted with the run's scratch directory, not between
        # operations, so that file deletion does not overlap a measurement
        op = self.child(mode, self.fresh_cache(), self.workload.argv)
        check_op(op, self.workload)
        self.ops.append(op)
        return op


def measure(workload: Workload, seconds: float, traced: bool, scratch: Path):
    deadline = time.monotonic() + RUN_DEADLINE_S
    runner = Runner(workload, scratch, deadline)
    runner.setup()
    plain: list[Op] = []
    traces: list[Op] = []
    start = time.monotonic()
    rounds = 0
    while True:
        now = time.monotonic()
        spent = now - start
        if rounds and (spent + spent / rounds > seconds or now + spent / rounds > deadline):
            break
        plain.append(runner.op("plain"))
        if traced:
            traces.append(runner.op("traced"))
        rounds += 1
    return runner, plain, traces


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: every workload is a fixed exact query")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "e6cs" / "cli.py").is_file():
        print(f"error: the e6cs sources are not at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        runner, plain, traces = measure(workload, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = runner.ops
    failed = [op for op in ops if op.problem]
    print(f"workload {args.workload}: e6cs {' '.join(workload.argv)}")
    print(f"seed {args.seed} (recorded only), trace {args.trace}, {len(ops)} operations")
    for i, op in enumerate(ops, 1):
        status = "ok" if op.problem is None else f"FAILED: {op.problem}"
        print(f"  op {i} {op.mode:6s} wall {op.wall_s:8.4f} s  rss {op.rss_mb:7.1f} MB  {status}")
    print(f"ops_failed {len(failed)} of ops_attempted {len(ops)}")
    if not runner.setup_samples:
        print("error: no child finished importing e6cs", file=sys.stderr)
        return 1

    if args.trace:
        with_trace = [op.trace for op in traces if op.trace is not None]
        per_op = [layer_metrics(trace) for trace in with_trace]
        if not per_op:
            print("error: no traced operation produced a trace", file=sys.stderr)
            return 1
        metrics = {name: {"value": median([m[name][0] for m in per_op]), "unit": unit}
                   for name, (_, unit) in per_op[0].items()}
        overhead = median([op.wall_s for op in traces]) - median([op.wall_s for op in plain])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        spans = WORK / f"trace-{args.workload}.json"
        spans.write_text(json.dumps(with_trace[-1]))
        print(f"spans and counts of the last traced operation: {spans}")
        print(f"medians over {len(per_op)} traced and {len(plain)} untraced operations:")
    else:
        metrics = {
            "setup_s": {"value": median(runner.setup_samples), "unit": "s"},
            "wall_s": {"value": median([op.wall_s for op in plain]), "unit": "s"},
            "peak_rss_mb": {"value": median([op.rss_mb for op in plain]), "unit": "MB"},
        }
        print(f"medians over {len(plain)} operations ({len(runner.setup_samples)} set-up samples):")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
