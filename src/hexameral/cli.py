"""Command line surface: build, inspect, verify, optimize, export.

Commands, options, defaults and choices are declared once, on argparse
subparsers; the search options' defaults are ``SearchSpec``'s.  Exit codes
are 0 on success, 1 on parse errors or invariant failures (with a one-line
JSON diagnostic on stderr) and 2 on infeasible optimization inputs, bad
search input such as a negative seed included.  JSON outputs use a fixed key
order and shortest round-trip floats, so identical inputs give identical bytes.
"""
from __future__ import annotations

import argparse
import json
import sys

from .chain import (
    FEASIBLE_TOL, ChainParams, chain_to_dict, load_chain, normalized_length, write_json,
)
from .domain import export_json, export_svg, from_chain, smoothed_octagon, verify_checks
from .errors import GeometryError, InfeasibleInput

# the SearchSpec fields that five-link and reduce-link take as options
_SEARCH_OPTIONS = ("seed", "restarts", "max_evals")


class UsageError(Exception):
    """Bad command line; reported like a parse error, never as exit 2."""


def _diagnostic(code: str, detail: str) -> None:
    print(json.dumps({"error": code, "detail": " ".join(detail.split())}), file=sys.stderr)


def _cmd_octagon(args: argparse.Namespace) -> int:
    dom = smoothed_octagon()
    write_json(chain_to_dict(dom.chain), args.output_path or "octagon.json")
    print(f"density {dom.density:.12g}")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    dom = from_chain(load_chain(args.input_path), tol=args.closure_tol)
    print(f"area {dom.area!r}")
    print(f"density {dom.density!r}")
    # from_chain checked closure at this tolerance
    print(f"link_length {normalized_length(dom.chain)}")
    print(f"frame_residual {dom.closure.frame_residual!r}")
    print(f"tangent_residual {dom.closure.tangent_residual!r}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = verify_checks(load_chain(args.input_path), args.closure_tol)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        _diagnostic("VerifyFailed", ",".join(failed))
    return 1 if failed else 0


def _search_spec(args: argparse.Namespace):
    from .optimize import SearchSpec
    return SearchSpec(**{name: getattr(args, name) for name in _SEARCH_OPTIONS})


def _cmd_five_link(args: argparse.Namespace) -> int:
    from .optimize import five_link_problem, five_link_search
    spec, problem = _search_spec(args), five_link_problem()
    result = five_link_search(spec)
    doc: dict = {}
    if result.feasible:
        doc.update(chain_to_dict(problem.decode(result.best_params)))
    doc["spec"] = {"variable_count": len(problem.bounds), "bounds": problem.bounds,
                   **spec._asdict()}
    doc["result"] = {**result._asdict(), "closure": result.closure._asdict()}
    write_json(doc, args.output_path or "five-link.json")
    print(f"best_density {result.best_density!r}")
    print(f"feasible {result.feasible}")
    print(f"eval_count {result.eval_count}")
    return 0


def _cmd_reduce_link(args: argparse.Namespace) -> int:
    from .optimize import link_reduction_experiment
    segment = load_chain(args.input_path)
    report = link_reduction_experiment(segment, _search_spec(args))
    doc = chain_to_dict(ChainParams(segment.initial, report.five_links))
    doc["report"] = {k: v for k, v in report._asdict().items() if k != "five_links"}
    write_json(doc, args.output_path or "reduce-link.json")
    print(f"six_area {report.six_area!r}")
    print(f"five_area {report.five_area!r}")
    print(f"improved {report.improved}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    dom = from_chain(load_chain(args.input_path), tol=args.closure_tol)
    path = args.output_path or f"export.{args.format}"
    if args.format == "svg":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(export_svg(dom))
    else:
        write_json(export_json(dom), path)
    print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; that code is reserved here
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hexameral",
                     description="Hexameral-domain geometry toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # option groups; each command takes only the ones it reads
    chain_in, output, tol, search = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    chain_in.add_argument("input_path", help="chain file to read")
    output.add_argument("-o", "--output", dest="output_path", default=None)
    tol.add_argument("--closure-tol", dest="closure_tol", type=float, default=FEASIBLE_TOL)
    for name in _SEARCH_OPTIONS:
        search.add_argument("--" + name.replace("_", "-"), dest=name, type=int, default=None)

    def add(name: str, run, help_text: str, *groups) -> _Parser:
        p = sub.add_parser(name, help=help_text, parents=groups)
        p.set_defaults(run=run)
        return p

    add("octagon", _cmd_octagon, "write the smoothed-octagon chain file", output)
    add("density", _cmd_density, "print area, density, link length, residuals", chain_in, tol)
    add("verify", _cmd_verify, "run the invariant suite on a chain file", chain_in, tol)
    add("five-link", _cmd_five_link, "search five-link chains for low density", output, search)
    add("reduce-link", _cmd_reduce_link, "refit a six-link segment with five links",
        chain_in, output, search)
    p = add("export", _cmd_export, "write a boundary drawing or geometry summary",
            chain_in, output, tol)
    p.add_argument("--format", choices=("json", "svg"), default="svg")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The parsed command line, whose ``run`` is the command's function; UsageError where
    argparse would exit or the closure tolerance is not positive and finite.  A search
    command's missing options take ``SearchSpec``'s defaults."""
    args = _build_parser().parse_args(argv)
    if "closure_tol" in args and not 0.0 < args.closure_tol < float("inf"):  # NaN included
        bound = "finite" if args.closure_tol > 0.0 else "positive"
        raise UsageError(f"closure tolerance must be {bound}")
    if "seed" in args:  # a search command
        from .optimize import SearchSpec
        for name in _SEARCH_OPTIONS:
            if getattr(args, name) is None:
                setattr(args, name, SearchSpec._field_defaults[name])
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.run(args)
    except InfeasibleInput as exc:
        _diagnostic("InfeasibleInput", str(exc))
        return 2
    except (UsageError, GeometryError) as exc:
        _diagnostic(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _diagnostic("FileError", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
