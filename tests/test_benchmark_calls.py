"""The benchmark's in-process workloads and its tracer against the library as it stands.

perfbench/workloads.py and perfbench/tracing.py are loaded from their files,
without writing bytecode beside them, and pass 0 of seed 1 of the probe,
reduce and render workloads runs through each workload's own ``execute``
and ``check``.  Probe and render run once more under a ``Tracer``, whose
wrappers must leave the fingerprints as they are and record spans.  So a
library change that breaks a workload's calls, or the traced runs, fails
here, not only in the benchmark.  The cli workload is left out because it
spawns processes; a fresh interpreter checks the modules its traced child
needs.
"""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexameral
from hexameral import chain, hyperlink

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", PERFBENCH / "workloads.py")


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracing", PERFBENCH / "tracing.py")


@pytest.mark.parametrize("name", ["probe", "reduce", "render"])
def test_first_pass_checks_ok(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup(1, tmp_path)
    tasks = workload.tasks(0)
    assert tasks
    for task in tasks:
        ok, detail, _ = workload.check(task, workload.execute(task))
        assert ok, detail


@pytest.mark.parametrize("name", ["probe", "render"])
def test_traced_first_pass_matches_untraced(workloads, tracing, name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup(1, tmp_path)
    tasks = workload.tasks(0)
    plain = [workload.check(task, workload.execute(task)) for task in tasks]
    originals = (hyperlink.propagate, chain.propagate, chain.assemble)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert chain.propagate is not originals[1]  # the name chain calls is wrapped
        traced = [workload.check(task, workload.execute(task)) for task in tasks]
    finally:
        tracer.uninstall()
    assert (hyperlink.propagate, chain.propagate, chain.assemble) == originals
    assert all(ok for ok, _, _ in traced)
    assert [fp for _, _, fp in traced] == [fp for _, _, fp in plain]
    names = {span[2] for span in tracer.spans}
    assert {"hyperlink.propagate", "chain.assemble"} <= names
    assert tracer.stats["hyperlink.propagate"][0] >= tracer.stats["chain.assemble"][0] > 0


# Runs in a fresh interpreter: the modules named on the command line that
# are not loaded after ``import hexameral.cli`` and the tracer's own import.
_LOADED_PROBE = """
import sys
import hexameral.cli
from hexameral import optimize, sl2
print(" ".join(name for name in sys.argv[1:] if name not in sys.modules))
"""


def test_cli_import_loads_every_traced_module(tracing):
    modules = sorted({module for module, _ in tracing.TRACED})
    src = str(Path(hexameral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _LOADED_PROBE, *modules], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
