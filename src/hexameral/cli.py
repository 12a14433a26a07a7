"""Command line surface: build, inspect, verify, optimize, export.

Exit codes: 0 on success, 1 on parse errors or invariant failures (with a
single-line JSON diagnostic on stderr), 2 on infeasible optimization inputs.
JSON outputs use a fixed key order and shortest round-trip floats, so
identical inputs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .chain import FEASIBLE_TOL, ChainParams, chain_to_dict, load_chain, normalized_length
from .domain import export_json, export_svg, from_chain, smoothed_octagon, verify_checks
from .errors import GeometryError, InfeasibleInput
from .optimize import (
    SearchSpec,
    decode_five_link,
    five_link_search,
    link_reduction_experiment,
    result_to_dict,
    spec_to_dict,
)

SUBCOMMANDS = ("octagon", "density", "verify", "five-link", "reduce-link", "export")


class UsageError(Exception):
    """Bad command line; reported like a parse error, never as exit 2."""


@dataclass(frozen=True)
class CommandConfig:
    subcommand: str
    input_path: str | None = None
    output_path: str | None = None
    format: str = "json"
    closure_tol: float = FEASIBLE_TOL
    seed: int = 0
    restarts: int = 3
    max_evals: int = 6000

    def __post_init__(self) -> None:
        if self.subcommand not in SUBCOMMANDS:
            raise UsageError(f"unknown subcommand {self.subcommand!r}")
        needs_input = {"density", "verify", "reduce-link", "export"}
        if self.subcommand in needs_input and not self.input_path:
            raise UsageError(f"{self.subcommand} requires an input chain file")
        if self.format not in ("json", "svg"):
            raise UsageError(f"unknown format {self.format!r}")
        if not self.closure_tol > 0.0:  # NaN included
            raise UsageError("closure tolerance must be positive")


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _diagnostic(code: str, detail: str) -> None:
    line = json.dumps({"error": code, "detail": " ".join(detail.split())})
    print(line, file=sys.stderr)


def _cmd_octagon(config: CommandConfig) -> int:
    dom = smoothed_octagon()
    path = config.output_path or "octagon.json"
    _write_json(chain_to_dict(dom.chain), path)
    print(f"density {dom.density:.12g}")
    return 0


def _cmd_density(config: CommandConfig) -> int:
    chain = load_chain(config.input_path)
    dom = from_chain(chain, tol=config.closure_tol)
    print(f"area {dom.area!r}")
    print(f"density {dom.density!r}")
    # from_chain checked closure at this tolerance
    print(f"link_length {normalized_length(dom.chain)}")
    print(f"frame_residual {dom.closure.frame_residual!r}")
    print(f"tangent_residual {dom.closure.tangent_residual!r}")
    return 0


def _cmd_verify(config: CommandConfig) -> int:
    chain = load_chain(config.input_path)
    checks = verify_checks(chain, config.closure_tol)
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        verdict = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  {verdict}  {detail}")
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        _diagnostic("VerifyFailed", ",".join(failed))
        return 1
    return 0


def _cmd_five_link(config: CommandConfig) -> int:
    spec = SearchSpec(restarts=config.restarts, max_evals=config.max_evals,
                      seed=config.seed)
    result = five_link_search(spec)
    doc: dict = {}
    if result.feasible:
        doc.update(chain_to_dict(decode_five_link(result.best_params)))
    doc["spec"] = spec_to_dict(spec)
    doc["result"] = result_to_dict(result)
    path = config.output_path or "five-link.json"
    _write_json(doc, path)
    print(f"best_density {result.best_density!r}")
    print(f"feasible {result.feasible}")
    print(f"eval_count {result.eval_count}")
    return 0


def _cmd_reduce_link(config: CommandConfig) -> int:
    segment = load_chain(config.input_path)
    spec = SearchSpec(restarts=config.restarts, max_evals=config.max_evals,
                      seed=config.seed)
    report = link_reduction_experiment(segment, spec)
    reduced = ChainParams(segment.initial, report.five_links)
    doc = chain_to_dict(reduced)
    doc["report"] = {
        "six_area": report.six_area,
        "five_area": report.five_area,
        "endpoint_residual": report.endpoint_residual,
        "feasible": report.feasible,
        "improved": report.improved,
        "eval_count": report.eval_count,
        "root_count": report.root_count,
    }
    path = config.output_path or "reduce-link.json"
    _write_json(doc, path)
    print(f"six_area {report.six_area!r}")
    print(f"five_area {report.five_area!r}")
    print(f"improved {report.improved}")
    return 0


def _cmd_export(config: CommandConfig) -> int:
    chain = load_chain(config.input_path)
    dom = from_chain(chain, tol=config.closure_tol)
    path = config.output_path or f"export.{config.format}"
    if config.format == "svg":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(export_svg(dom))
    else:
        _write_json(export_json(dom), path)
    print(f"wrote {path}")
    return 0


_RUNNERS = {
    "octagon": _cmd_octagon,
    "density": _cmd_density,
    "verify": _cmd_verify,
    "five-link": _cmd_five_link,
    "reduce-link": _cmd_reduce_link,
    "export": _cmd_export,
}


def run(config: CommandConfig) -> int:
    try:
        return _RUNNERS[config.subcommand](config)
    except InfeasibleInput as exc:
        _diagnostic("InfeasibleInput", str(exc))
        return 2
    except GeometryError as exc:
        _diagnostic(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _diagnostic("FileError", str(exc))
        return 1


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; that code is reserved here
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hexameral",
                     description="Hexameral-domain geometry toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, needs_input: bool, help_text: str):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input_path", help="chain file to read")
        p.add_argument("-o", "--output", dest="output_path", default=None)
        p.add_argument("--closure-tol", dest="closure_tol", type=float,
                       default=FEASIBLE_TOL)
        return p

    add("octagon", False, "write the smoothed-octagon chain file")
    add("density", True, "print area, density, link length, residuals")
    add("verify", True, "run the invariant suite on a chain file")
    p = add("five-link", False, "search five-link chains for low density")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--max-evals", dest="max_evals", type=int, default=6000)
    p = add("reduce-link", True, "refit a six-link segment with five links")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--max-evals", dest="max_evals", type=int, default=6000)
    p = add("export", True, "write a boundary drawing or geometry summary")
    p.add_argument("--format", choices=("json", "svg"), default="svg")
    return parser


def parse_config(argv) -> CommandConfig:
    ns = _build_parser().parse_args(argv)
    fields = {"subcommand": ns.subcommand}
    for key in ("input_path", "output_path", "format", "closure_tol",
                "seed", "restarts", "max_evals"):
        if hasattr(ns, key):
            fields[key] = getattr(ns, key)
    return CommandConfig(**fields)


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        _diagnostic("UsageError", str(exc))
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
