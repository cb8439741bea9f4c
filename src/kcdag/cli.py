"""Command line interface.

Machine-readable results go to stdout (JSON for scalar results, kdag/dot/
DIMACS text for artifacts); diagnostics go to stderr, and so does compile's
stats line when the diagram goes to stdout.  Exit codes: 0 on
success, 1 on operational failure (bad input, failed validation), 2 on usage
errors (argparse's default).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import diagram_io, ops
from .convert import convert as do_convert
from .decompose import decompose as do_decompose
from .validate import DEFAULT_SEMANTIC_LIMIT, validate as do_validate
from .cnf import parse_dimacs, format_dimacs
from .compiler import SCHEDULES, compile_cnf
from .errors import InputError, KcdagError
from .families import chain_family, random_cnf
from .ordering import natural_order
from .store import format_bound, parse_bound


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_diagram(path: str, store=None):
    return diagram_io.deserialize(_read_text(path), store=store)


def _parse_lits(text: str) -> list[int]:
    try:
        lits = [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"expected integers, got {text!r}")
    if not lits or 0 in lits:
        raise InputError("literals must be non-zero integers")
    return lits


def _parse_assignment(text: str) -> dict[int, bool]:
    out: dict[int, bool] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise InputError(f"expected var=true/false, got {chunk!r}")
        name, _, val = chunk.partition("=")
        val = val.strip().lower()
        if val in ("true", "1", "t"):
            b = True
        elif val in ("false", "0", "f"):
            b = False
        else:
            raise InputError(f"expected true or false, got {val!r}")
        try:
            out[int(name.strip())] = b
        except ValueError:
            raise InputError(f"bad variable {name!r}")
    if not out:
        raise InputError("empty assignment")
    return out


def _parse_vars(text: str) -> list[int]:
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"expected variable numbers, got {text!r}")


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_compile(args) -> int:
    cnf = parse_dimacs(_read_text(args.input))
    bound = parse_bound(args.bound)
    order = natural_order(cnf.num_vars) if args.order == "natural" else None
    t0 = time.perf_counter()
    store, root = compile_cnf(cnf, bound, order=order, schedule=args.schedule)
    ms = (time.perf_counter() - t0) * 1000.0
    if args.output:
        _write_text(args.output, diagram_io.serialize(store, root, bound))
    # with the diagram on stdout, the stats line is a diagnostic
    print(json.dumps({
        "vertices": store.vertex_count(root),
        "edges": store.size(root),
        "ms": round(ms, 3),
        "interned": store.num_vertices,
    }), file=sys.stderr if args.output == "-" else sys.stdout)
    return 0


def _cmd_convert(args) -> int:
    store, root, src = _load_diagram(args.input)
    dst = parse_bound(args.bound)
    out = do_convert(store, root, src, dst)
    _write_text(args.output, diagram_io.serialize(store, out, dst))
    return 0


def _cmd_decompose(args) -> int:
    store, root, _ = _load_diagram(args.input)
    bound = parse_bound(args.bound)
    out = do_decompose(store, root, bound)
    _write_text(args.output, diagram_io.serialize(store, out, bound))
    return 0


def _cmd_query(args) -> int:
    store, root, bound = _load_diagram(args.input)
    kind = args.kind
    if kind == "co":
        result = ops.is_consistent(store, root)
    elif kind == "va":
        result = ops.is_valid(store, root)
    elif kind == "ce":
        if args.clause is None:
            raise InputError("ce needs --clause")
        result = ops.entails_clause(store, root, _parse_lits(args.clause))
    elif kind == "im":
        if args.term is None:
            raise InputError("im needs --term")
        result = ops.implied_by_term(store, root, _parse_lits(args.term))
    else:  # eq / se take a second diagram
        if args.other is None:
            raise InputError(f"{kind} needs a second diagram file")
        store2, root2, bound2 = _load_diagram(args.other, store=store)
        if kind == "eq":
            result = ops.equivalent(store, root, root2)
        else:
            common = bound if bound == bound2 else 0
            a = do_convert(store, root, bound, common)
            b = do_convert(store, root2, bound2, common)
            result = ops.entails(store, a, b, common)
    print(json.dumps({"result": bool(result)}))
    return 0


def _cmd_count(args) -> int:
    store, root, _ = _load_diagram(args.input)
    scope = store.order.vars if args.scope == "all" else None
    print(json.dumps({"models": str(ops.model_count(store, root, scope=scope))}))
    return 0


def _cmd_enumerate(args) -> int:
    store, root, _ = _load_diagram(args.input)
    scope = store.order.vars if args.scope == "all" else None
    for model in ops.enumerate_models(store, root, scope=scope, limit=args.limit):
        print(" ".join(str(v if model[v] else -v) for v in sorted(model)))
    return 0


def _cmd_apply(args) -> int:
    store, root, bound = _load_diagram(args.input)
    target = parse_bound(args.bound) if args.bound is not None else bound
    if args.op == "not":
        a = do_convert(store, root, bound, target)
        out = ops.negate(store, a, target)
    else:
        if args.other is None:
            raise InputError(f"{args.op} needs a second diagram file")
        store2, root2, bound2 = _load_diagram(args.other, store=store)
        a = do_convert(store, root, bound, target)
        b = do_convert(store, root2, bound2, target)
        if args.op == "and":
            out = ops.conjoin(store, a, b, target)
        else:
            out = ops.disjoin(store, a, b, target)
    _write_text(args.output, diagram_io.serialize(store, out, target))
    return 0


def _cmd_condition(args) -> int:
    store, root, bound = _load_diagram(args.input)
    out = ops.condition(store, root, _parse_assignment(args.set), bound)
    _write_text(args.output, diagram_io.serialize(store, out, bound))
    return 0


def _cmd_forget(args) -> int:
    store, root, bound = _load_diagram(args.input)
    out = ops.forget(store, root, _parse_vars(args.vars), bound)
    _write_text(args.output, diagram_io.serialize(store, out, bound))
    return 0


def _cmd_validate(args) -> int:
    store, root, bound = _load_diagram(args.input)
    if args.bound is not None:
        bound = parse_bound(args.bound)
    report = do_validate(store, root, bound,
                         semantic_limit=args.semantic_limit)
    print(json.dumps({
        "bound": format_bound(report.bound),
        "vertices": report.vertex_count,
        "ordered": report.ordered_ok,
        "reduced": report.reduced_ok,
        "bounded": report.bounded_ok,
        "finest": report.decomposition_finest_ok,
        "exact_checked": report.exact_checked,
        "skipped": report.skipped,
        "offending": {k: int(v) for k, v in report.offending.items()},
        "ok": report.ok,
    }))
    return 0 if report.ok else 1


def _cmd_stats(args) -> int:
    store, root, bound = _load_diagram(args.input)
    print(json.dumps({
        "vertices": store.vertex_count(root),
        "edges": store.size(root),
        "vars": len(store.vars_of(root)),
        "num_vars": len(store.order.vars),
        "bound": format_bound(bound),
    }))
    return 0


def _cmd_dot(args) -> int:
    store, root, _ = _load_diagram(args.input)
    _write_text(args.output, diagram_io.export_dot(store, root))
    return 0


def _cmd_gen(args) -> int:
    if args.family == "chain":
        cnf = chain_family(args.chains, args.length, mode=args.mode)
    else:
        cnf = random_cnf(args.vars, args.clauses, width=args.width,
                         seed=args.seed)
    _write_text(args.output, format_dimacs(cnf))
    return 0


# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kcdag",
        description="Compile CNF into canonical decision diagrams with "
                    "bounded conjunctive decomposition, then query them.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile DIMACS CNF to a diagram")
    c.add_argument("input", help="DIMACS file, or - for stdin")
    c.add_argument("--bound", required=True,
                   help="decomposition bound: non-negative integer or inf")
    c.add_argument("--order", choices=["minfill", "natural"], default="minfill")
    c.add_argument("--schedule", choices=SCHEDULES, default="bucket")
    c.add_argument("-o", "--output",
                   help="write the diagram here (kdag format); with -, the "
                        "stats line goes to stderr")
    c.set_defaults(fn=_cmd_compile)

    c = sub.add_parser("convert", help="convert a diagram to another bound")
    c.add_argument("input")
    c.add_argument("--bound", required=True)
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(fn=_cmd_convert)

    c = sub.add_parser("decompose",
                       help="canonicalize a raw diagram file")
    c.add_argument("input")
    c.add_argument("--bound", required=True)
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(fn=_cmd_decompose)

    c = sub.add_parser("query", help="decide a property of a diagram")
    c.add_argument("kind", choices=["co", "va", "ce", "im", "eq", "se"])
    c.add_argument("input")
    c.add_argument("other", nargs="?", help="second diagram for eq/se")
    c.add_argument("--clause", help="literals for ce, e.g. '1 -3 5'")
    c.add_argument("--term", help="literals for im, e.g. '2 -4'")
    c.set_defaults(fn=_cmd_query)

    c = sub.add_parser("count", help="exact model count")
    c.add_argument("input")
    c.add_argument("--scope", choices=["all", "diagram"], default="all",
                   help="count over all declared variables (default) or only "
                        "those in the diagram")
    c.set_defaults(fn=_cmd_count)

    c = sub.add_parser("enumerate", help="list models, one per line")
    c.add_argument("input")
    c.add_argument("--limit", type=int, default=None)
    c.add_argument("--scope", choices=["all", "diagram"], default="diagram")
    c.set_defaults(fn=_cmd_enumerate)

    c = sub.add_parser("apply", help="combine diagrams (and/or/not)")
    c.add_argument("op", choices=["and", "or", "not"])
    c.add_argument("input")
    c.add_argument("other", nargs="?")
    c.add_argument("--bound", help="target bound (default: the input's)")
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(fn=_cmd_apply)

    c = sub.add_parser("condition", help="restrict by a partial assignment")
    c.add_argument("input")
    c.add_argument("--set", required=True, help="e.g. '1=true,4=false'")
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(fn=_cmd_condition)

    c = sub.add_parser("forget", help="existentially quantify variables away")
    c.add_argument("input")
    c.add_argument("--vars", required=True, help="e.g. '2,5,6'")
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(fn=_cmd_forget)

    c = sub.add_parser("validate", help="check canonicity of a diagram file")
    c.add_argument("input")
    c.add_argument("--bound", help="override the bound recorded in the file")
    c.add_argument("--semantic-limit", type=int,
                   default=DEFAULT_SEMANTIC_LIMIT)
    c.set_defaults(fn=_cmd_validate)

    c = sub.add_parser("stats", help="diagram measurements")
    c.add_argument("input")
    c.set_defaults(fn=_cmd_stats)

    c = sub.add_parser("dot", help="Graphviz export")
    c.add_argument("input")
    c.add_argument("-o", "--output", default="-")
    c.set_defaults(fn=_cmd_dot)

    c = sub.add_parser("gen", help="generate benchmark CNF families")
    gsub = c.add_subparsers(dest="family", required=True)
    g = gsub.add_parser("chain", help="independent biconditional chains")
    g.add_argument("--chains", type=int, required=True)
    g.add_argument("--length", type=int, default=0,
                   help="extra links per chain (chain has length+2 variables)")
    g.add_argument("--mode", choices=["parity", "all-equal"], default="parity")
    g.add_argument("-o", "--output", default="-")
    g.set_defaults(fn=_cmd_gen)
    g = gsub.add_parser("random", help="uniform random k-CNF")
    g.add_argument("--vars", type=int, required=True)
    g.add_argument("--clauses", type=int, required=True)
    g.add_argument("--width", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default="-")
    g.set_defaults(fn=_cmd_gen)

    return p


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (KcdagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
