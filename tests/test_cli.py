"""Command line behavior: outputs, exit codes, diagnostics, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexameral
from hexameral.chain import save_chain
from hexameral.cli import CommandConfig, UsageError, main
from hexameral.domain import OCTAGON_DENSITY

from conftest import flat_hyperbola_chain, split_octagon_period


@pytest.fixture()
def octagon_file(tmp_path):
    path = tmp_path / "octagon.json"
    assert main(["octagon", "-o", str(path)]) == 0
    return str(path)


def stderr_diagnostic(capsys) -> dict:
    err = capsys.readouterr().err.strip()
    assert "\n" not in err  # one line per failure
    return json.loads(err)


class TestOctagonCommand:
    def test_prints_density(self, tmp_path, capsys):
        assert main(["octagon", "-o", str(tmp_path / "oct.json")]) == 0
        assert "density 0.902414182997" in capsys.readouterr().out

    def test_output_verifies(self, octagon_file, capsys):
        assert main(["verify", octagon_file]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for name in ("assembly", "star-conditions", "tangent-determinant",
                     "convexity", "rank-per-link", "closure",
                     "angle-condition", "link-length"):
            assert name in out

    def test_default_output_in_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["octagon"]) == 0
        assert (tmp_path / "octagon.json").exists()


class TestDensityCommand:
    def test_reports_octagon_values(self, octagon_file, capsys):
        assert main(["density", octagon_file]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert abs(float(values["density"]) - OCTAGON_DENSITY) < 1e-15
        assert values["link_length"] == "4"
        assert float(values["frame_residual"]) < 1e-9
        assert float(values["tangent_residual"]) < 1e-9

    def test_assembles_once(self, octagon_file, monkeypatch, capsys):
        import hexameral.chain as chain_module
        import hexameral.domain as domain_module
        real = chain_module.assemble
        calls = []

        def counted(chain):
            calls.append(chain)
            return real(chain)

        monkeypatch.setattr(chain_module, "assemble", counted)
        monkeypatch.setattr(domain_module, "assemble", counted)
        assert main(["density", octagon_file]) == 0
        assert "link_length 4" in capsys.readouterr().out
        assert len(calls) == 1

    def test_open_chain_fails(self, octagon_file, tmp_path, capsys):
        doc = json.loads(open(octagon_file).read())
        doc["links"] = doc["links"][:2]
        path = tmp_path / "open.json"
        path.write_text(json.dumps(doc))
        assert main(["density", str(path)]) == 1
        assert stderr_diagnostic(capsys)["error"] == "NotClosed"


class TestVerifyCommand:
    def test_perturbed_chain_fails_closure(self, octagon_file, tmp_path,
                                           capsys):
        doc = json.loads(open(octagon_file).read())
        doc["links"][0]["tau"] += 0.01
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "closure" in out and "FAIL" in out
        # stderr already consumed together with stdout above
        assert main(["verify", str(path)]) == 1
        diag = stderr_diagnostic(capsys)
        assert diag["error"] == "VerifyFailed"
        assert "closure" in diag["detail"]

    def test_all_degenerate_chain_fails_sampled_rows(self, octagon_file, tmp_path,
                                                     capsys):
        doc = json.loads(open(octagon_file).read())
        doc["links"] = [{"tau": 0.0, "j": 0}, {"tau": 0.0, "j": 2}]
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        verdicts = dict(line.split()[:2] for line in captured.out.splitlines())
        sampled = ("star-conditions", "tangent-determinant",
                   "convexity", "rank-per-link")
        for name in sampled:
            assert verdicts[name] == "FAIL"
        assert "no link is non-degenerate" in captured.out
        diag = json.loads(captured.err.strip())
        assert diag["error"] == "VerifyFailed"
        assert all(name in diag["detail"].split(",") for name in sampled)

    def test_flat_hyperbola_passes_rank_row(self, tmp_path, capsys):
        # a link whose hyperbola is so flat (a^2 = (sqrt(3)/2)(1 + 1e-11))
        # that its samples read as a line assembles, and its rank row,
        # read from wedge(v, acc) at the link ends, passes
        save_chain(flat_hyperbola_chain(), str(tmp_path / "flat.json"))
        assert main(["verify", str(tmp_path / "flat.json")]) == 1
        captured = capsys.readouterr()
        rows = dict(line.split(None, 1) for line in captured.out.splitlines())
        assert rows["assembly"].split()[0] == "pass"
        assert rows["rank-per-link"] == "pass  ranks [1, 1]"
        # the two links are an open segment, so closure fails
        failed = json.loads(captured.err.strip())["detail"].split(",")
        assert failed == ["closure", "link-length"]

    def test_angle_failure_leaves_closure_row_passing(self, octagon_file, tmp_path,
                                                      capsys):
        doc = json.loads(open(octagon_file).read())
        doc["links"][0]["tau"] += 2e-5
        path = tmp_path / "angle.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path), "--closure-tol", "1e-3"]) == 1
        captured = capsys.readouterr()
        verdicts = dict(line.split()[:2] for line in captured.out.splitlines())
        assert verdicts["closure"] == "pass"
        assert json.loads(captured.err.strip())["detail"] == "angle-condition"

    @pytest.mark.parametrize("field,index", [("frame", 1), ("tangent", 0)])
    def test_nan_in_initial_state_is_a_format_error(self, octagon_file, tmp_path,
                                                    capsys, field, index):
        doc = json.loads(open(octagon_file).read())
        doc["initial"][field][index] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json writes the NaN literal
        assert main(["verify", str(path)]) == 1
        diag = stderr_diagnostic(capsys)
        assert diag["error"] == "ChainFormatError"
        assert f"initial.{field}" in diag["detail"]

    def test_nan_determinant_frame_is_a_format_error(self, octagon_file, tmp_path,
                                                      capsys):
        doc = json.loads(open(octagon_file).read())
        doc["initial"]["frame"] = [1e200, 1e200, 1e200, 1e200]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        diag = stderr_diagnostic(capsys)
        assert diag["error"] == "ChainFormatError"
        assert "determinant" in diag["detail"]

    def test_malformed_chain_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"links": []}')
        assert main(["verify", str(path)]) == 1
        assert stderr_diagnostic(capsys)["error"] == "ChainFormatError"


class TestFiveLinkCommand:
    def test_writes_spec_and_result(self, tmp_path, capsys):
        path = tmp_path / "search.json"
        code = main(["five-link", "--max-evals", "60", "--restarts", "1",
                     "--seed", "0", "-o", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "best_density" in out and "feasible" in out
        doc = json.loads(path.read_text())
        assert "spec" in doc and "result" in doc
        assert doc["spec"]["max_evals"] == 60
        assert doc["result"]["eval_count"] > 0

    def test_byte_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["five-link", "--max-evals", "120", "--restarts", "1",
                         "--seed", "7", "-o", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestReduceLinkCommand:
    def test_octagon_period_equality(self, octagon, tmp_path, capsys):
        path = tmp_path / "six.json"
        save_chain(split_octagon_period(octagon), str(path))
        out_path = tmp_path / "reduced.json"
        code = main(["reduce-link", str(path), "--restarts", "1",
                     "--max-evals", "1500", "--seed", "5",
                     "-o", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "improved False" in out
        doc = json.loads(out_path.read_text())
        assert set(doc["report"]) == {"six_area", "five_area",
                                      "endpoint_residual", "feasible",
                                      "improved", "eval_count", "root_count"}
        assert 1 <= doc["report"]["root_count"] <= 48
        assert doc["report"]["eval_count"] <= 1500
        assert abs(doc["report"]["five_area"] - doc["report"]["six_area"]) < 1e-8
        assert len(doc["links"]) == 5

    def test_wrong_length_exits_two(self, octagon_file, capsys):
        assert main(["reduce-link", octagon_file]) == 2
        assert stderr_diagnostic(capsys)["error"] == "InfeasibleInput"


class TestExportCommand:
    def test_svg(self, octagon_file, tmp_path, capsys):
        path = tmp_path / "picture.svg"
        assert main(["export", octagon_file, "-o", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        text = path.read_text()
        assert text.startswith("<?xml")
        assert text.count("<circle") == 6

    def test_json_export_keeps_closure_tolerance(self, octagon_file, tmp_path, capsys):
        # residual 1.8e-5: closed at --closure-tol 1e-3, as density finds too
        doc = json.loads(open(octagon_file).read())
        doc["links"][0]["tau"] -= 2e-5
        path = tmp_path / "loose.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "loose.geo.json"
        loose = ["--closure-tol", "1e-3"]
        assert main(["density", str(path)] + loose) == 0
        assert main(["export", str(path), "--format", "json", "-o", str(out)] + loose) == 0
        assert json.loads(out.read_text())["link_length"] == 4

    def test_json_roundtrip(self, octagon_file, tmp_path, capsys):
        path = tmp_path / "summary.json"
        assert main(["export", octagon_file, "--format", "json",
                     "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert abs(doc["density"] - OCTAGON_DENSITY) < 1e-12
        assert doc["link_length"] == 4
        # the export is itself a readable chain file
        assert main(["density", str(path)]) == 0


class TestDiagnostics:
    def test_missing_file(self, capsys):
        assert main(["density", "/nonexistent/chain.json"]) == 1
        assert stderr_diagnostic(capsys)["error"] == "FileError"

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 1
        assert stderr_diagnostic(capsys)["error"] == "UsageError"

    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert stderr_diagnostic(capsys)["error"] == "UsageError"

    def test_missing_input_argument(self, capsys):
        assert main(["verify"]) == 1
        assert stderr_diagnostic(capsys)["error"] == "UsageError"


class TestCommandConfig:
    def test_unknown_subcommand(self):
        with pytest.raises(UsageError):
            CommandConfig("frobnicate")

    def test_input_required(self):
        with pytest.raises(UsageError):
            CommandConfig("verify")

    def test_bad_format(self):
        with pytest.raises(UsageError):
            CommandConfig("export", input_path="x.json", format="pdf")

    def test_nonpositive_tolerance(self):
        with pytest.raises(UsageError):
            CommandConfig("octagon", closure_tol=0.0)

    def test_nan_tolerance(self, octagon_file, capsys):
        with pytest.raises(UsageError):
            CommandConfig("density", input_path=octagon_file, closure_tol=float("nan"))
        assert main(["density", octagon_file, "--closure-tol", "nan"]) == 1
        assert stderr_diagnostic(capsys)["error"] == "UsageError"

    def test_defaults_are_valid(self):
        cfg = CommandConfig("five-link")
        assert cfg.restarts == 3 and cfg.seed == 0


# Runs in a fresh interpreter: prints which of scipy and sympy are loaded
# after the import and after each command, the two searches included;
# six.json is a split octagon period.
_SCIPY_PROBE = """
import json, sys
import hexameral
from hexameral.cli import main
def heavy():
    return [name for name in ("scipy", "sympy") if name in sys.modules]
loaded = {"import hexameral": heavy()}
for argv in (["octagon", "-o", "oct.json"], ["density", "oct.json"],
             ["verify", "oct.json"],
             ["export", "oct.json", "--format", "svg", "-o", "oct.svg"],
             ["export", "oct.json", "--format", "json", "-o", "oct.geo.json"],
             ["reduce-link", "six.json", "--restarts", "1", "--max-evals", "3000",
              "-o", "six.reduced.json"],
             ["five-link", "--seed", "1", "--restarts", "1", "--max-evals", "300",
              "-o", "five.json"]):
    assert main(argv) == 0, argv
    loaded[" ".join(argv)] = heavy()
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(octagon, tmp_path):
    save_chain(split_octagon_period(octagon), str(tmp_path / "six.json"))
    src = str(Path(hexameral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(loaded) == 8
    # scipy and sympy are test-only oracles; the library never imports them
    assert all(names == [] for names in loaded.values()), loaded
