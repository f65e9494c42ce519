"""In-memory tracing of the e6cs layers, installed from outside the package.

`install(tracer)` rebinds every module attribute, import-by-name alias and
dispatch-table entry through which the engine reaches a traced function, so
the engine itself carries no instrumentation.  Each call becomes a span
(name, start, end, parent); a span's self time is its duration minus the time
its child spans cover.  The two hottest functions (`image_x3` and
`eigenvalue_x3`, called hundreds of thousands of times) are aggregated
without a per-call record, so that tracing stays affordable in time and
memory; their time still counts as child time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

class Tracer:
    """Spans and counts kept in memory until `report()`."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, id, start, child time]
        self._next_id = 1

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name: str, fn: Callable, record: bool = True,
             after: Callable | None = None) -> Callable:
        """Return `fn` timed as span `name`; `after(result, args)` runs once
        the span has closed, to update counts."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if record:
                    self.spans.append((span_id, name, frame[2], end,
                                       stack[-1][1] if stack else 0))
            if after is not None:
                after(result, args)
            return result

        return traced

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "spans": self.spans,
        }


def _modules() -> list:
    importlib.import_module("e6cs.cli")  # imports every module the CLI can reach
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "e6cs" or name.startswith("e6cs.")]


def _targets(tracer: Tracer) -> list[tuple[Callable, Callable]]:
    """(original, traced) pairs for every function the benchmark times."""
    from e6cs import characters, cli, hamiltonian, lattice, ring, tensor, verify

    counts = tracer.counts

    def after_enum(result, args):
        counts["lattice.enum_weights"] += len(result)
        if tracer.parent_name() == "tensor.peel":
            counts["tensor.candidates"] += len(result)

    seen_images: set = set()

    def after_image(result, args):
        if args[0] not in seen_images:
            seen_images.add(args[0])
            counts["hamiltonian.image_distinct"] += 1

    def after_load(result, args):
        counts["characters.cache_hits" if result is not None else "characters.cache_misses"] += 1

    def after_store(result, args):
        counts["characters.cache_bytes"] += characters.cache_path(args[0].weight).stat().st_size

    def after_peel(result, args):
        counts["tensor.nonzero"] += len(result.terms)

    def after_suite(result, args):
        counts["verify.checks"] += len(result)

    def after_mul(result, args):
        counts["ring.mul_terms"] += len(result.terms)

    # span name, function, whether each call keeps a span record, count hook
    spec = [
        ("cli.main", cli.main, True, None),
        ("lattice.enum", lattice.dominant_weights_below, True, after_enum),
        ("hamiltonian.image", hamiltonian.image_x3, False, after_image),
        ("hamiltonian.eigenvalue", hamiltonian.eigenvalue_x3, False, None),
        ("characters.lookup", characters.character, True, None),
        ("characters.recursion", characters.character_recursion, True, None),
        ("characters.annihilator", characters.character_annihilator, True, None),
        ("characters.validate", characters.validate_character, True, None),
        ("characters.cache_load", characters._load, True, after_load),
        ("characters.cache_store", characters._store, True, after_store),
        ("tensor.peel", tensor._peel, True, after_peel),
        ("ring.mul", ring.SparsePolynomial.__mul__, True, after_mul),
    ]
    spec += [(f"verify.suite.{name}", suite, True, after_suite)
             for name, suite in verify.SUITES.items()]
    return [(fn, tracer.wrap(name, fn, record, after)) for name, fn, record, after in spec]


def _bindings():
    """Every place the engine looks up a traced function at call time, as
    (label, get, set) triples: module attributes (which covers names imported
    with `from ... import`), `SparsePolynomial.__mul__`, and the entries of
    the dispatch tables `characters._METHODS` and `verify.SUITES`."""
    from e6cs import characters, ring, verify

    def attr(obj, name, label):
        return label, lambda: getattr(obj, name), lambda value: setattr(obj, name, value)

    for mod in _modules():
        for name in list(vars(mod)):
            yield attr(mod, name, f"{mod.__name__}.{name}")
    yield attr(ring.SparsePolynomial, "__mul__", "e6cs.ring.SparsePolynomial.__mul__")
    for label, table in (("e6cs.characters._METHODS", characters._METHODS),
                         ("e6cs.verify.SUITES", verify.SUITES)):
        for key in table:
            yield (f"{label}[{key!r}]", functools.partial(table.__getitem__, key),
                   functools.partial(table.__setitem__, key))


def traced_functions() -> list[Callable]:
    """The functions `install` routes through a tracer, as currently bound."""
    return [orig for orig, _ in _targets(Tracer())]


def aliases(functions: list[Callable]) -> list[str]:
    """Labels of the bindings that refer to one of `functions`."""
    ids = {id(fn) for fn in functions}
    return [label for label, get, _ in _bindings() if id(get()) in ids]


def install(tracer: Tracer) -> Callable[[], None]:
    """Route every engine call to a traced function through `tracer`, and
    return a function that undoes it."""
    by_id = {id(orig): new for orig, new in _targets(tracer)}
    undo = []
    for _, get, put in _bindings():
        value = get()
        if id(value) in by_id:
            undo.append((put, value))
            put(by_id[id(value)])

    def restore() -> None:
        for put, value in reversed(undo):
            put(value)

    return restore
