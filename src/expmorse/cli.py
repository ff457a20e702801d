"""Command-line surface: reproduce reports, verify structure, compute objects.

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
from .homc import enumerate_hom_cells, order_complex_of_hom
from .pipeline import LEMMA_KEYS, corollary1_report, theorem1_report, verify_lemma

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
    if args.exp is not None:
        a, b = args.exp
        return fold_core_exponential(a, b)
    if args.graph:
        return _atom(args.graph)
    raise InvalidArgumentError("need --graph or --exp")


def _emit_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


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


def _report_csv(d: dict) -> str:
    out = ["key,value"]
    for key, val in d.items():
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
    if args.cor1:
        if args.m is None:
            raise InvalidArgumentError("--cor1 needs --m")
        rep = corollary1_report(args.m, args.n)
    else:
        if not 3 <= args.n <= 5:
            raise InvalidArgumentError("reproduction is sized for 3 <= n <= 5")
        rep = theorem1_report(args.n, include_bruteforce=args.method != "morse")
    data = rep.to_json_dict()
    if args.format == "csv":
        sys.stdout.write(_report_csv(data))
    else:
        _emit_json(data)
    return EXIT_OK if rep.ok else EXIT_MISMATCH


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify_lemma(args.n, args.lemma)
    for name, ok in results:
        sys.stdout.write(f"{name}: {'pass' if ok else 'FAIL'}\n")
    return EXIT_OK if all(ok for _, ok in results) else EXIT_MISMATCH


def cmd_compute(args: argparse.Namespace) -> int:
    if args.max_faces < 1:
        raise InvalidArgumentError("--max-faces must be positive")
    if args.max_dim is not None and args.max_dim < 0:
        raise InvalidArgumentError("--max-dim must be nonnegative")
    if args.what == "exp-graph":
        if not args.g or not args.h:
            raise InvalidArgumentError("exp-graph needs --g and --h")
        E = exponential_graph(_atom(args.g), _atom(args.h))
        if args.format == "csv":
            sys.stdout.write(_graph_csv(E))
        else:
            _emit_json(graph_to_json(E))
    elif args.what == "fold":
        F = fold_reduce(_graph_from(args))
        if args.format == "csv":
            sys.stdout.write(_graph_csv(F))
        else:
            _emit_json(graph_to_json(F))
    elif args.what == "ncomplex":
        NC = neighborhood_complex(_graph_from(args))
        if args.format == "csv":
            sys.stdout.write(_complex_csv(NC))
        else:
            _emit_json(complex_to_json(NC))
    elif args.what == "homology":
        NC = neighborhood_complex(_graph_from(args))
        maxdim = args.max_dim if args.max_dim is not None else max(NC.dim, 0)
        bt = betti_bounded(NC, maxdim, max_faces=args.max_faces)
        if args.format == "csv":
            sys.stdout.write(_betti_csv(bt))
        else:
            _emit_json(bt.to_json_dict())
    elif args.what == "hom":
        if not args.g or not args.h:
            raise InvalidArgumentError("hom needs --g and --h")
        cells = enumerate_hom_cells(_atom(args.g), _atom(args.h))
        OC = order_complex_of_hom(cells)
        maxdim = args.max_dim if args.max_dim is not None else max(OC.dim, 0)
        bt = betti_bounded(OC, maxdim, max_faces=args.max_faces)
        if args.format == "csv":
            sys.stdout.write(_betti_csv(bt))
        else:
            _emit_json(bt.to_json_dict())
    else:
        raise InvalidArgumentError(f"unknown compute target {args.what!r}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="expmorse",
        description="Homology of neighborhood complexes of exponential graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("reproduce", help="run the pipeline and its cross-checks")
    rp.add_argument("--n", type=int, required=True)
    rp.add_argument("--cor1", action="store_true",
                    help="classify the core of K_m^{K_n} instead")
    rp.add_argument("--m", type=int)
    rp.add_argument("--method", choices=("morse", "both"), default="both")
    rp.add_argument("--format", choices=("json", "csv"), default="json")
    rp.set_defaults(func=cmd_reproduce)

    vp = sub.add_parser("verify", help="run structural checks")
    vp.add_argument("--n", type=int, required=True)
    vp.add_argument("--lemma", choices=LEMMA_KEYS, default="all")
    vp.set_defaults(func=cmd_verify)

    cp = sub.add_parser("compute", help="ad-hoc graph and homology queries")
    cp.add_argument("what", choices=("exp-graph", "fold", "ncomplex",
                                     "homology", "hom"))
    cp.add_argument("--graph", help="kN, cN, or a graph JSON file")
    cp.add_argument("--exp", nargs=2, type=int, metavar=("M", "N"),
                    help="core of K_M^{K_N}")
    cp.add_argument("--g", help="source graph atom")
    cp.add_argument("--h", help="target graph atom")
    cp.add_argument("--max-dim", type=int, dest="max_dim")
    cp.add_argument("--max-faces", type=int, dest="max_faces",
                    default=DEFAULT_MAX_FACES)
    cp.add_argument("--format", choices=("json", "csv"), default="json")
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
    except ExpmorseError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
