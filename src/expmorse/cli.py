"""Command-line surface: reproduce reports, verify structure, compute objects.

`reproduce --n N` reports Theorem 1 for K_{N+1}^{K_N}; with `--m M` it
classifies the core of K_M^{K_N} instead. Each `compute` target is its own
subcommand and declares only the flags it reads (a graph source, a graph
pair, bounds, `--format`), so any other flag is an argparse error.

Exit codes: 0 success, 1 verification mismatch, 2 invalid arguments,
3 resource limit. All diagnostic output goes to stderr; results to stdout.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional, Sequence

from .complexes import DEFAULT_MAX_FACES, Complex, complex_to_json, neighborhood_complex
from .errors import ExpmorseError, InvalidArgumentError, ResourceLimitError
from .gf2 import BettiTable, betti_bounded
from .graphs import (Graph, complete_graph, cycle_graph, exponential_graph,
                     fold_core_exponential, fold_reduce, graph_from_json,
                     graph_to_json)
from .homc import HomPoset, enumerate_hom_cells, order_complex_of_hom
from .pipeline import (LEMMA_KEYS, SIZED_N, corollary1_report, theorem1_report,
                       verify_lemma)

__all__ = ["cmd_reproduce", "cmd_verify", "cmd_compute", "main"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BADARGS = 2
EXIT_RESOURCE = 3


def _atom(spec: str) -> Graph:
    """kN / cN shorthand, or a path to a graph JSON file."""
    if re.fullmatch(r"[kK]\d+", spec):
        return complete_graph(int(spec[1:]))
    if re.fullmatch(r"[cC]\d+", spec):
        return cycle_graph(int(spec[1:]))
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return graph_from_json(json.load(fh))
        except (OSError, ValueError) as exc:
            raise InvalidArgumentError(f"cannot read graph file {spec}: {exc}") from exc
    raise InvalidArgumentError(f"unknown graph {spec!r}; use kN, cN, or a JSON file")


def _graph_from(args: argparse.Namespace) -> Graph:
    """The graph named by --graph, or the core of K_M^{K_N} for --exp M N."""
    if args.exp is not None:
        return fold_core_exponential(*args.exp)
    return _atom(args.graph)


def _emit(args: argparse.Namespace, obj, csv, to_json) -> None:
    """Write obj to stdout as --format asks: csv(obj), or to_json(obj) as JSON."""
    if args.format == "csv":
        sys.stdout.write(csv(obj))
    else:
        sys.stdout.write(json.dumps(to_json(obj), indent=2) + "\n")


def _graph_csv(G: Graph) -> str:
    rows = sorted(G.edges() + [(v, v) for v in G.loops()])
    return "u,v\n" + "".join(f"{u},{v}\n" for u, v in rows)


def _complex_csv(C: Complex) -> str:
    out = ["dim,vertex_list"]
    for f in C.facets:
        out.append(f"{len(f) - 1}," + " ".join(C.labels[v] for v in f))
    return "\n".join(out) + "\n"


def _betti_csv(bt: BettiTable) -> str:
    out = ["dim,betti"]
    out.extend(f"{d},{b}" for d, b in enumerate(bt.betti))
    return "\n".join(out) + "\n"


def _report_csv(rep) -> str:
    out = ["key,value"]
    for key, val in rep.to_json_dict().items():
        if key == "crosschecks":
            for item in val:
                out.append(f"crosscheck:{item['name']},{item['pass']}")
        elif isinstance(val, dict):
            for k2, v2 in val.items():
                out.append(f"{key}.{k2},{v2}")
        elif isinstance(val, list):
            out.append(f"{key}," + " ".join(str(v) for v in val))
        else:
            out.append(f"{key},{val}")
    return "\n".join(out) + "\n"


def cmd_reproduce(args: argparse.Namespace) -> int:
    # --m N+1 with N >= 3 runs the full report at N, so it obeys the same size rule.
    full = args.m is None or (args.m == args.n + 1 and args.n >= 3)
    if full and args.n not in SIZED_N:
        raise InvalidArgumentError(
            f"reproduction is sized for {SIZED_N[0]} <= n <= {SIZED_N[-1]}")
    if args.m is not None:
        rep = corollary1_report(args.m, args.n)
    else:
        rep = theorem1_report(args.n, include_bruteforce=args.method != "morse")
    _emit(args, rep, _report_csv, lambda r: r.to_json_dict())
    return EXIT_OK if rep.ok else EXIT_MISMATCH


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify_lemma(args.n, args.lemma)
    for name, ok in results:
        sys.stdout.write(f"{name}: {'pass' if ok else 'FAIL'}\n")
    return EXIT_OK if all(ok for _, ok in results) else EXIT_MISMATCH


def cmd_compute(args: argparse.Namespace) -> int:
    if args.what == "exp-graph":
        E = exponential_graph(_atom(args.g), _atom(args.h))
        _emit(args, E, _graph_csv, graph_to_json)
    elif args.what == "fold":
        _emit(args, fold_reduce(_graph_from(args)), _graph_csv, graph_to_json)
    elif args.what == "ncomplex":
        NC = neighborhood_complex(_graph_from(args))
        _emit(args, NC, _complex_csv, complex_to_json)
    else:
        # homology and hom: Betti numbers up to --max-dim (default: the
        # dimension of the complex, or of the Hom cells, whose order complex
        # is taken of the poset's core) under --max-faces.
        if args.max_faces < 1:
            raise InvalidArgumentError("--max-faces must be positive")
        if args.max_dim is not None and args.max_dim < 0:
            raise InvalidArgumentError("--max-dim must be nonnegative")
        if args.what == "homology":
            C = neighborhood_complex(_graph_from(args))
            top = C.dim
        else:
            cells = enumerate_hom_cells(_atom(args.g), _atom(args.h))
            C = order_complex_of_hom(cells, max_faces=args.max_faces)
            top = max(map(HomPoset.dim_of, cells), default=0)
        maxdim = args.max_dim if args.max_dim is not None else max(top, 0)
        bt = betti_bounded(C, maxdim, max_faces=args.max_faces)
        _emit(args, bt, _betti_csv, BettiTable.to_json_dict)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="expmorse",
        description="Homology of neighborhood complexes of exponential graphs.")
    sub = ap.add_subparsers(dest="command", required=True)
    # Parent parsers: each command and compute target takes only the
    # groups of flags it reads.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    source = argparse.ArgumentParser(add_help=False)
    one = source.add_mutually_exclusive_group(required=True)
    one.add_argument("--graph", help="kN, cN, or a graph JSON file")
    one.add_argument("--exp", nargs=2, type=int, metavar=("M", "N"),
                     help="core of K_M^{K_N}")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--g", required=True, help="source graph atom")
    pair.add_argument("--h", required=True, help="target graph atom")
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--max-dim", type=int, dest="max_dim")
    bounds.add_argument("--max-faces", type=int, dest="max_faces",
                        default=DEFAULT_MAX_FACES)

    rp = sub.add_parser("reproduce", parents=[fmt],
                        help="run the pipeline and its cross-checks")
    rp.add_argument("--n", type=int, required=True)
    route = rp.add_mutually_exclusive_group()
    route.add_argument("--m", type=int, help="classify the core of K_m^{K_n} instead")
    # No default value: argparse ignores a flag of an exclusive group whose
    # value is its default object, so `--m 3 --method both` would pass.
    route.add_argument("--method", choices=("morse", "both"), help="default: both")
    rp.set_defaults(func=cmd_reproduce)

    vp = sub.add_parser("verify", help="run structural checks")
    vp.add_argument("--n", type=int, required=True)
    vp.add_argument("--lemma", choices=LEMMA_KEYS, default="all")
    vp.set_defaults(func=cmd_verify)

    cp = sub.add_parser("compute", help="ad-hoc graph and homology queries")
    targets = cp.add_subparsers(dest="what", required=True)
    for what, parents in (("exp-graph", [pair, fmt]), ("fold", [source, fmt]),
                          ("ncomplex", [source, fmt]),
                          ("homology", [source, bounds, fmt]),
                          ("hom", [pair, bounds, fmt])):
        # No abbreviations: on fold, --g would be read as --graph, and on
        # homology, --h as --help.
        targets.add_parser(what, parents=parents, allow_abbrev=False)
    cp.set_defaults(func=cmd_compute)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADARGS
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except ExpmorseError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
