"""Golden bytes of every command.

Each command runs once in a fresh directory.  Its exit code, stderr, and the
sha256 of its stdout and of the file it writes are compared with constants
recorded from the program.  The run directory's path in stdout is replaced
by ``{d}`` first.  Each usage error is pinned by its exit code and its whole
diagnostic line; argparse's wording is that of Python 3.11.
"""
import contextlib
import hashlib
import io

import pytest

from hexameral.chain import ChainParams, save_chain
from hexameral.cli import main
from hexameral.domain import smoothed_octagon
from hexameral.hyperlink import transform_state
from hexameral.sl2 import TangentElement, exp_tangent

from conftest import split_octagon_period

# name: (argv, file written, sha256 of stdout, sha256 of the file); the runs
# go in this order, so later ones read oct.json; six.json is a split period and
# moved.json the octagon moved by an SL2 frame, the cli benchmark's other two chain kinds
RUNS = {
    "octagon": (
        ["octagon", "-o", "{d}/oct.json"], "oct.json",
        "2a336d3c009085f266f2b1689d11f56c6eac5715b5c056724e4ed6132b609532",
        "21d0d8d2413e83bab1a0c3beea97e6373f8346a4ecea7a91536c160a36d27021"),
    "density": (
        ["density", "{d}/oct.json"], None,
        "a909e3b5a51b3748e341f162240f1c7063d83adb585f44ff4e8895dc3cdaf1a4",
        None),
    "verify": (
        ["verify", "{d}/oct.json"], None,
        "ad68595633ab56f9b69d759a9f7ada58abc83420157583c45b690ab7f49757cd",
        None),
    "verify-moved": (
        ["verify", "{d}/moved.json"], None,
        "746519b46129829ac326f2384a81a40dc23986810e72521061503514861af5a6",
        None),
    "verify-split": (
        ["verify", "{d}/six.json"], None,
        "0998ab7a1ee7c8436b4058241820b32c1ca03e6c62c7c52ebd6ebec95ebc6888",
        None),
    "export-svg": (
        ["export", "{d}/oct.json", "--format", "svg", "-o", "{d}/oct.svg"], "oct.svg",
        "c7de893df027ab132a06d772ba0da0c094be573879c4984f1fe44a745bd19844",
        "8adc1c97896b1e5da4a619509460891b9ee5f16ff6580190d6dfd46a21ed57c4"),
    "export-json": (
        ["export", "{d}/oct.json", "--format", "json", "-o", "{d}/oct.geo.json"],
        "oct.geo.json",
        "fdf76baa0eaacc9fde4ae361f487e7d5d991d12c1cd153bdf9493384f1f7ee0d",
        "d7509a324ab1de9235ab5a0d5d7f688006503118605f11c22dd8da3a014b2e70"),
    "five-link": (
        ["five-link", "--seed", "1", "--restarts", "1", "--max-evals", "300",
         "-o", "{d}/five.json"], "five.json",
        "98f663edf5cb52de48d85532517489eb6746ea789ea92fe054597a3c14fd27e9",
        "230473a2e197884faf2e90e0975798e9853d0b0c2527a2295b963c699678bd4a"),
    "reduce-link": (
        ["reduce-link", "{d}/six.json", "--restarts", "1", "--max-evals", "1500",
         "--seed", "5", "-o", "{d}/six.reduced.json"], "six.reduced.json",
        "4cb97b14d397c51a7562be1e18fe7da5131413f3ebb5850431d77d3ea3dd8e7b",
        "5849dcc82e431a6bf8a6d4004579203fcac0c6254f610586e837c5c85334db65"),
}

CHOICES = "'octagon', 'density', 'verify', 'five-link', 'reduce-link', 'export'"
USAGE_ERRORS = {
    "unknown subcommand": (
        ["bogus"],
        f"argument subcommand: invalid choice: 'bogus' (choose from {CHOICES})"),
    "no arguments": (
        [], "the following arguments are required: subcommand"),
    "missing input": (
        ["verify"], "the following arguments are required: input_path"),
    "format pdf": (
        ["export", "{d}/oct.json", "--format", "pdf"],
        "argument --format: invalid choice: 'pdf' (choose from 'json', 'svg')"),
    "closure-tol 0": (
        ["density", "{d}/oct.json", "--closure-tol", "0"],
        "closure tolerance must be positive"),
    "closure-tol nan": (
        ["density", "{d}/oct.json", "--closure-tol", "nan"],
        "closure tolerance must be positive"),
    "octagon closure-tol": (
        ["octagon", "--closure-tol", "1e5"],
        "unrecognized arguments: --closure-tol 1e5"),
    "density output": (
        ["density", "{d}/oct.json", "-o", "x"],
        "unrecognized arguments: -o x"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str], directory: str) -> tuple[int, str, str]:
    """main(argv) with ``{d}`` standing for directory, in argv and in stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{d}", directory) for arg in argv])
    return code, out.getvalue().replace(directory, "{d}"), err.getvalue()


def run_all(directory: str) -> dict:
    """name: (exit code, stderr, sha256 of stdout, sha256 of the file written)."""
    octagon = smoothed_octagon()
    save_chain(split_octagon_period(octagon), f"{directory}/six.json")
    g = exp_tangent(TangentElement(0.4, -0.7, 0.2), 0.9)
    moved = ChainParams(transform_state(g, octagon.chain.initial), octagon.chain.links)
    save_chain(moved, f"{directory}/moved.json")
    outcomes = {}
    for name, (argv, written, _, _) in RUNS.items():
        code, out, err = run_cli(argv, directory)
        digest = None
        if written is not None:
            with open(f"{directory}/{written}", "rb") as fh:
                digest = sha256(fh.read())
        outcomes[name] = (code, err, sha256(out.encode()), digest)
    return outcomes


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return run_all(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", RUNS)
def test_command_bytes(outcomes, name):
    _, _, stdout_sha, file_sha = RUNS[name]
    assert outcomes[name] == (0, "", stdout_sha, file_sha)


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error_diagnostic(tmp_path, name):
    argv, detail = USAGE_ERRORS[name]
    code, out, err = run_cli(argv, str(tmp_path))
    assert (code, out) == (1, "")
    assert err == '{"error": "UsageError", "detail": "%s"}\n' % detail
