"""Command-line front end.

Exit codes: 0 on success, 1 on a computational or verification failure,
2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import hamiltonian, lattice, tensor, verify
from .characters import (cache_dir, cache_entries, cache_key, character, character_to_json,
                         clear_cache, clear_memory_cache, entry_key, owing)
from .errors import E6CSError
from .ring import Coef, PolynomialSyntaxError, coef_from_str, coef_to_str, parse_polynomial


def weight_arg(text: str) -> lattice.Vec:
    """Six comma-separated labels, each in plain ASCII decimal digits, the
    rule characters.cache_key applies to entry names."""
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(f"expected six comma-separated integers, got {text!r}")
    try:
        values = lattice.parse_labels(parts)
    except ValueError as exc:  # a label over lattice.DIGIT_LIMIT digits
        raise argparse.ArgumentTypeError(str(exc)) from None
    if values is None:
        raise argparse.ArgumentTypeError(
            f"labels must be non-negative integers in plain decimal digits: {text!r}")
    return values


def kappa_arg(text: str) -> Coef:
    """A rational literal as ring.coef_from_str reads it: 1, -2 or 3/2."""
    try:
        return coef_from_str(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb; each subparser binds its handler as `run`,
    which prints the verb's output and returns its exit code (None for 0)."""
    parser = argparse.ArgumentParser(
        prog="e6cs",
        description="Exact E6 characters and Clebsch-Gordan series via the "
                    "kappa=1 Calogero-Sutherland operator.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("char", help="irreducible character as a polynomial in z1..z6")
    p.add_argument("weight", type=weight_arg)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=_cmd_char)

    p = sub.add_parser("dim", help="dimension of an irreducible representation")
    p.add_argument("weight", type=weight_arg)
    p.set_defaults(run=lambda args: print(coef_to_str(lattice.weyl_dimension(args.weight))))

    p = sub.add_parser("eig", help="operator eigenvalue of a weight")
    p.add_argument("weight", type=weight_arg)
    p.add_argument("--kappa", type=kappa_arg, default=1)
    p.set_defaults(run=lambda args: print(
        coef_to_str(hamiltonian.eigenvalue(args.weight, args.kappa))))

    p = sub.add_parser("tensor", help="Clebsch-Gordan series of a product of irreducibles")
    p.add_argument("left", type=weight_arg)
    p.add_argument("right", type=weight_arg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=lambda args: _print_series(
        tensor.tensor_decompose(args.left, args.right), args.json))

    p = sub.add_parser("monomial", help="decompose a bare monomial in z1..z6")
    p.add_argument("exponent", type=weight_arg)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=lambda args: _print_series(
        tensor.monomial_decompose(args.exponent), args.json))

    p = sub.add_parser("delta", help="apply the kappa=1 operator to a polynomial expression")
    p.add_argument("expression")
    p.set_defaults(run=lambda args: print(
        hamiltonian.apply_delta(parse_polynomial(args.expression))))

    p = sub.add_parser("verify", help="run verification suites against the shipped data")
    p.add_argument("--suite", choices=sorted(verify.SUITES) + ["all"], default="all")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("cache", help="character cache administration")
    p.add_argument("action", choices=["info", "clear", "validate"])
    p.set_defaults(run=_cmd_cache)

    return parser


def _print_series(series: tensor.CGSeries, as_json: bool) -> None:
    if as_json:
        print(json.dumps(series.to_json()))
        return
    for w, mult in series.sorted_terms():
        print(f"({','.join(str(x) for x in w)}) x {coef_to_str(mult)}")


def _cmd_char(args) -> None:
    ch = character(args.weight)
    if args.format == "json":
        print(json.dumps(character_to_json(ch)))
    else:
        print(ch.poly)


def _cmd_verify(args) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    results = [(name, check) for name in names for check in verify.SUITES[name]()]
    for name, check in results:  # every suite has run before the first line prints
        print(f"ok   [{name}] {check.name}" if check.ok
              else f"FAIL [{name}] {check.name}: {check.detail}")
    passed = sum(check.ok for _, check in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _cmd_cache(args) -> None:
    directory = cache_dir()
    if args.action == "info":
        listed = cache_entries()
        strays = sum(entry_key(path) is None for path in listed)
        print(f"cache directory: {directory}")
        print(f"entries: {len(listed) - strays}")
        if strays:
            print(f"stray files: {strays}")
    elif args.action == "clear":
        removed, leftovers = clear_cache()
        strays = sum(entry_key(path) is None for path in removed)
        print(f"removed {len(removed) - strays} entries from {directory}")
        if strays:
            print(f"removed {strays} stray files")
        if leftovers:
            print(f"removed {leftovers} temporary files left by interrupted stores")
    else:  # validate: reload every entry through the invariant checks
        clear_memory_cache()
        entries = cache_entries()
        with owing() as owed:  # one packed proof, as a peel's hits have
            for path in entries:
                character(cache_key(path), owed)
        print(f"validated {len(entries)} entries in {directory}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args) or 0
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: point fd 1 at devnull so that the flush at exit
        # cannot fail again, as the Python signal docs advise for SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except PolynomialSyntaxError as exc:
        parser.error(str(exc))  # exits 2
    except E6CSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
