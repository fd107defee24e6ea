"""Command-line front end: solve, reduce, verify.

Exit codes: 0 success, 1 verification found equivalence failures,
2 parse/validation error, 3 guard refusal, 4 internal error (any other
exception, reported with its traceback on stderr).  stdout carries
exactly the machine-readable result; diagnostics go to stderr.  The environment
variable ``GENCONN_FORCE=1`` overrides the desk-scale size guards (the
random seed can only be set by flag, never by environment).

The argument parser is built once per process, on the first ``main``
call, and reused by every later call; ``GENCONN_FORCE`` and the handler
for each command are looked up on every call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import io, reductions, solver, verify
from .graphs import Graph, GraphError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _parse_terminal_flag(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise GraphError(f"malformed terminal list {raw!r}; expected e.g. 0,2,5")


def _load_graph_and_set(args) -> tuple[Graph, tuple[int, ...] | None]:
    g, file_set = io.parse_graph_and_set(_read(args.input))
    if args.terminals is not None:  # an empty -S is malformed, not absent
        return g, _parse_terminal_flag(args.terminals)
    return g, file_set


def _empty_set(name: str) -> GraphError:
    """The error for a graph file whose 'set' line names no terminal."""
    return GraphError(
        f"{name} got an empty terminal set from the graph file's 'set 0' line")


def _force(args) -> bool:
    return bool(getattr(args, "force", False)) or os.environ.get("GENCONN_FORCE") == "1"


def _cmd_solve(args) -> int:
    g, terminals = _load_graph_and_set(args)
    problem = args.problem
    need_set = problem in ("kappa-set", "lambda-set")
    if need_set and terminals == ():
        raise _empty_set(problem)
    if need_set and terminals is None:
        raise GraphError(f"{problem} requires -S or a 'set' line in the graph file")

    if problem in ("kappa", "lambda"):
        value = solver.classical_kappa(g) if problem == "kappa" else solver.classical_lambda(g)
        print(value)
        return EXIT_OK

    if problem in ("kappa-k", "lambda-k"):
        if args.k is None:
            raise GraphError(f"{problem} requires -k")
        fn = solver.kappa_k if problem == "kappa-k" else solver.lambda_k
        print(fn(g, args.k, force=_force(args)))
        return EXIT_OK

    assert need_set and terminals is not None
    if args.decide is not None:
        fn = solver.decide_kappa_set if problem == "kappa-set" else solver.decide_lambda_set
        print("yes" if fn(g, terminals, args.decide) else "no")
        return EXIT_OK
    fn = solver.kappa_set if problem == "kappa-set" else solver.lambda_set
    result = fn(g, terminals)
    print(result.value)
    if args.witness:
        for tree in result.witness:
            print("tree: " + " ; ".join(f"e {u} {v}" for u, v in tree.edges))
    return EXIT_OK


_REDUCE_KINDS = {row.kind: row for row in verify.REDUCTIONS.values()}


def _cmd_reduce(args) -> int:
    row = _REDUCE_KINDS[args.kind]
    if row.reads == "graph_and_set":
        g, terminals = _load_graph_and_set(args)
        params = tuple(getattr(args, flag) for flag in row.flags)
        if terminals == ():
            raise _empty_set(args.kind)
        if terminals is None or None in params:
            raise GraphError(f"{args.kind} requires -S or a 'set' line in the graph file"
                             + "".join(f", --{flag}" for flag in row.flags))
        source = (g, terminals, *params)
    else:
        source = (getattr(io, f"parse_{row.reads}")(_read(args.input)),)
    out = getattr(reductions, row.build)(*source)

    with open(args.output, "w", encoding="utf-8") as f:
        f.write(io.serialize_reduction(out))
    threshold = "-" if out.threshold is None else str(out.threshold)
    print(f"V={out.graph.n} E={out.graph.m} {row.label}={threshold}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(verify.REDUCTION_NAMES) if args.reduction == "all" else [args.reduction]
    exit_code = EXIT_OK
    chunks = []
    overrides = {key: value for key, value in (("max_n", args.max_n), ("seed", args.seed))
                 if value is not None}
    for name in names:
        budget = verify.reduction(name).budget._replace(**overrides)
        report = verify.verify_reduction(name, budget)
        chunks.append(report.text())
        # stdout stays byte-identical across runs; timing lives in the file
        print(report.summary_line(with_time=False), flush=True)
        if not report.passed:
            exit_code = EXIT_VERIFY_FAILED
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("\n".join(chunks))
    return exit_code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genconn",
        description="Exact generalized-connectivity solving, reductions, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute or decide a connectivity value")
    p_solve.add_argument(
        "problem",
        choices=["kappa-set", "lambda-set", "kappa-k", "lambda-k", "kappa", "lambda"],
    )
    p_solve.add_argument("-g", "--graph", "-i", "--input", dest="input", required=True,
                         help="graph file")
    p_solve.add_argument("-S", "--set", dest="terminals",
                         help="comma-separated 0-based terminal ids")
    p_solve.add_argument("-k", type=int, help="terminal-set size for kappa-k/lambda-k")
    p_solve.add_argument("--decide", type=int, metavar="L",
                         help="decide value >= L instead of maximizing")
    p_solve.add_argument("--witness", action="store_true",
                         help="print the witness trees")
    p_solve.add_argument("--force", action="store_true",
                         help="override desk-scale size guards")

    p_reduce = sub.add_parser("reduce", help="apply an instance transformation")
    p_reduce.add_argument("kind", choices=list(_REDUCE_KINDS))
    p_reduce.add_argument("-i", "--input", "-g", "--graph", dest="input", required=True)
    p_reduce.add_argument("-o", "--output", required=True)
    p_reduce.add_argument("-S", "--set", dest="terminals",
                          help="comma-separated 0-based terminal ids")
    p_reduce.add_argument("--k", type=int, help="target terminal count (expand-k)")
    p_reduce.add_argument("--l", type=int, help="packing threshold (expand-k, expand-l)")

    p_verify = sub.add_parser("verify", help="certify reductions against oracles")
    p_verify.add_argument("--reduction", required=True,
                          help=f"one of {', '.join(verify.REDUCTION_NAMES)}, or 'all'")
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", help="write the full report to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # by name on every call, so a wrapper or patch on ``_cmd_*`` is seen
        return globals()[f"_cmd_{args.command}"](args)
    except solver.GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (GraphError, io.FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only on this path: it adds to every start-up

        traceback.print_exc(file=sys.stderr)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
