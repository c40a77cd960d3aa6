"""Command line surface: build, verify, check, table.

Exit codes are a stable contract:
    0  built and verified / verification passed
    1  I/O or argument failure
    2  infeasible parameters
    3  open exception family
    4  unsupported parameters
    5  construction failed its own verification
    6  verification of an input file failed
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import io
import json
import sys
import time

from . import serialize
from .arcs import (ArcsUnavailable, FEASIBLE, INFEASIBLE, OPEN_EXCEPTION,
                   Params, UNSUPPORTED, build_arcs, check_feasibility)
from .graphs import ConstructionBugError, ParameterError, UnsupportedBlockError
from .verify import verify_arcs

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_OPEN_EXCEPTION = 3
EXIT_UNSUPPORTED = 4
EXIT_CONSTRUCTION_BUG = 5
EXIT_VERIFY_FAILED = 6

_VERDICT_EXIT = {
    INFEASIBLE: EXIT_INFEASIBLE,
    OPEN_EXCEPTION: EXIT_OPEN_EXCEPTION,
    UNSUPPORTED: EXIT_UNSUPPORTED,
}

_VERDICT_LABEL = {
    FEASIBLE: "Feasible",
    INFEASIBLE: "Infeasible",
    OPEN_EXCEPTION: "OpenException",
    UNSUPPORTED: "UnsupportedCase",
}


def _add_param_args(sub: argparse.ArgumentParser):
    sub.add_argument("--lambda", dest="lam", type=int, required=True,
                     help="edge multiplicity")
    sub.add_argument("--k", type=int, required=True, help="cycle length (even, >= 4)")
    sub.add_argument("--u", type=int, required=True, help="number of parts")
    sub.add_argument("--g", type=int, required=True, help="part size")


def _params(args) -> Params:
    return Params(args.lam, args.k, args.u, args.g)


@contextlib.contextmanager
def _collector_paused():
    """Run one operation with the cyclic garbage collector paused.

    Decompositions are frozen dataclasses of tuples and JSON documents are
    trees, so reference counting frees everything an operation drops; the
    collector would only re-walk millions of live vertex lists and tuples.
    The few small cycles an operation makes (the search's self-recursive
    closures) are freed once it resumes.  A caller that had the collector
    off finds it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def cmd_build(args) -> int:
    try:
        p = _params(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    feas = check_feasibility(p)
    if not feas:
        print(f"{_VERDICT_LABEL[feas.verdict]}: {feas.detail}", file=sys.stderr)
        return _VERDICT_EXIT[feas.verdict]
    try:
        dec = build_arcs(p, verify=not args.no_verify)
    except ConstructionBugError as exc:
        print(f"ConstructionBug: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION_BUG
    except ArcsUnavailable as exc:
        print(f"{_VERDICT_LABEL[exc.feasibility.verdict]}: {exc.feasibility.detail}",
              file=sys.stderr)
        return _VERDICT_EXIT[exc.feasibility.verdict]
    except UnsupportedBlockError as exc:
        print(f"UnsupportedCase: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    payload = serialize.decomposition_to_obj(dec, p)
    data = serialize.canonical_json_bytes(payload)
    try:
        if args.output == "-":
            sys.stdout.buffer.write(data)
        else:
            with open(args.output, "wb") as fh:
                fh.write(data)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"built {len(dec.factors)} partial factors ({feas.detail})", file=sys.stderr)
    return EXIT_OK


@_collector_paused()
def cmd_verify(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        params, dec = serialize.decomposition_from_obj(obj)
    except (OSError, ValueError, KeyError, TypeError, RecursionError, ParameterError) as exc:
        print(f"error: cannot read decomposition: {exc}", file=sys.stderr)
        return EXIT_ERROR
    result = verify_arcs(dec, params)
    if result:
        print(f"OK: {len(dec.factors)} partial factors verified")
        return EXIT_OK
    print(f"FAIL: {result.reason} {result.path}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def cmd_check(args) -> int:
    try:
        p = _params(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    feas = check_feasibility(p)
    label = _VERDICT_LABEL[feas.verdict]
    print(f"{label} ({feas.detail})" if feas.detail else label)
    return EXIT_OK if feas else _VERDICT_EXIT[feas.verdict]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_table(args) -> int:
    try:
        grid = [Params(lam, k, u, g)
                for lam in _int_list(args.lambdas) for k in _int_list(args.ks)
                for u in range(3, args.max_u + 1) for g in range(2, args.max_g + 1)]
    except ValueError as exc:  # a bad list entry or a ParameterError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    rows = []
    failures = 0
    for p in grid:
        # per cell, so a long sweep never holds more than one cell's cycles
        with _collector_paused():
            feas = check_feasibility(p)
            count = ""
            started = time.perf_counter()
            if feas:
                try:
                    count = len(build_arcs(p).factors)
                except (ConstructionBugError, ArcsUnavailable, UnsupportedBlockError) as exc:
                    failures += 1
                    count = f"FAILED: {exc}"
            millis = round((time.perf_counter() - started) * 1000)
        rows.append([p.lam, p.k, p.u, p.g, _VERDICT_LABEL[feas.verdict], count, millis])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["lambda", "k", "u", "g", "verdict", "factors", "millis"])
    writer.writerows(rows)
    try:
        if args.output == "-":
            sys.stdout.write(buf.getvalue())
        else:
            with open(args.output, "w", newline="", encoding="utf-8") as fh:
                fh.write(buf.getvalue())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if failures:
        print(f"{failures} feasible cells failed to build", file=sys.stderr)
        return EXIT_CONSTRUCTION_BUG
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="cycleframe",
        description="Build and verify almost resolvable cycle systems of "
                    "tensor products of complete graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a decomposition and write it as JSON")
    _add_param_args(p_build)
    p_build.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    p_build.add_argument("--no-verify", action="store_true",
                         help="skip the internal verification (benchmarking only)")

    p_verify = sub.add_parser("verify", help="verify a decomposition JSON file")
    p_verify.add_argument("path")

    p_check = sub.add_parser("check", help="print the feasibility verdict without building")
    _add_param_args(p_check)

    p_table = sub.add_parser("table", help="sweep a parameter grid into a CSV summary")
    p_table.add_argument("--lambdas", default="1,2", help="comma separated multiplicities")
    p_table.add_argument("--ks", default="4,6,8", help="comma separated cycle lengths")
    p_table.add_argument("--max-u", type=int, default=13)
    p_table.add_argument("--max-g", type=int, default=8)
    p_table.add_argument("-o", "--output", default="-", help="CSV path (default stdout)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a command rebound after the parser was built runs
    commands = {"build": cmd_build, "verify": cmd_verify, "check": cmd_check,
                "table": cmd_table}
    return commands[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
