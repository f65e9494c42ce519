"""Command-line front end.

Exit codes: 0 on success, 1 on a computational or verification failure,
2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import hamiltonian, lattice, tensor, verify
from .characters import (cache_dir, cache_entries, cache_key, character, character_to_json,
                         clear_cache, clear_memory_cache)
from .errors import E6CSError
from .ring import PolynomialSyntaxError, coef_to_str, parse_polynomial


def weight_arg(text: str) -> lattice.Vec:
    """Six comma-separated labels, each in plain ASCII decimal digits, the
    rule characters.cache_key applies to entry names."""
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(f"expected six comma-separated integers, got {text!r}")
    values = lattice.parse_labels(parts)
    if values is None:
        raise argparse.ArgumentTypeError(
            f"labels must be non-negative integers in plain decimal digits: {text!r}")
    return values


def kappa_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational literal: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e6cs",
        description="Exact E6 characters and Clebsch-Gordan series via the "
                    "kappa=1 Calogero-Sutherland operator.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("char", help="irreducible character as a polynomial in z1..z6")
    p.add_argument("weight", type=weight_arg)
    p.add_argument("--method", choices=["recursion", "annihilator"], default="recursion")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("dim", help="dimension of an irreducible representation")
    p.add_argument("weight", type=weight_arg)

    p = sub.add_parser("eig", help="operator eigenvalue of a weight")
    p.add_argument("weight", type=weight_arg)
    p.add_argument("--kappa", type=kappa_arg, default=Fraction(1))

    p = sub.add_parser("tensor", help="Clebsch-Gordan series of a product of irreducibles")
    p.add_argument("left", type=weight_arg)
    p.add_argument("right", type=weight_arg)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("monomial", help="decompose a bare monomial in z1..z6")
    p.add_argument("exponent", type=weight_arg)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("delta", help="apply the kappa=1 operator to a polynomial expression")
    p.add_argument("expression")

    p = sub.add_parser("verify", help="run verification suites against the shipped data")
    p.add_argument("--suite", choices=sorted(verify.SUITES) + ["all"], default="all")

    p = sub.add_parser("cache", help="character cache administration")
    p.add_argument("action", choices=["info", "clear", "validate"])

    return parser


def _print_series(series: tensor.CGSeries, as_json: bool) -> None:
    if as_json:
        print(json.dumps(series.to_json()))
        return
    for w, mult in series.sorted_terms():
        print(f"({','.join(str(x) for x in w)}) x {mult}")


def _cmd_char(args) -> int:
    ch = character(args.weight, method=args.method)
    if args.format == "json":
        print(json.dumps(character_to_json(ch)))
    else:
        print(ch.poly)
    return 0


def _cmd_verify(args) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    total = 0
    for name, checks in verify.run_suites(names):
        for check in checks:
            total += 1
            if check.ok:
                print(f"ok   [{name}] {check.name}")
            else:
                failed += 1
                print(f"FAIL [{name}] {check.name}: {check.detail}")
    print(f"{total - failed}/{total} checks passed")
    return 1 if failed else 0


def _cmd_cache(args) -> int:
    directory = cache_dir()
    if args.action == "info":
        print(f"cache directory: {directory}")
        print(f"entries: {len(cache_entries())}")
    elif args.action == "clear":
        entries, leftovers = clear_cache()
        print(f"removed {entries} entries from {directory}")
        if leftovers:
            print(f"removed {leftovers} temporary files left by interrupted stores")
    else:  # validate: reload every entry through the invariant checks
        clear_memory_cache()
        entries = cache_entries()
        for path in entries:
            character(cache_key(path))
        print(f"validated {len(entries)} entries in {directory}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "char":
            return _cmd_char(args)
        if args.verb == "dim":
            print(lattice.weyl_dimension(args.weight))
            return 0
        if args.verb == "eig":
            print(coef_to_str(hamiltonian.eigenvalue(args.weight, args.kappa)))
            return 0
        if args.verb == "tensor":
            _print_series(tensor.tensor_decompose(args.left, args.right), args.json)
            return 0
        if args.verb == "monomial":
            _print_series(tensor.monomial_decompose(args.exponent), args.json)
            return 0
        if args.verb == "delta":
            try:
                poly = parse_polynomial(args.expression)
            except PolynomialSyntaxError as exc:
                parser.error(str(exc))  # exits 2
            print(hamiltonian.apply_delta(poly))
            return 0
        if args.verb == "verify":
            return _cmd_verify(args)
        if args.verb == "cache":
            return _cmd_cache(args)
        raise AssertionError(f"unhandled verb {args.verb}")
    except E6CSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
