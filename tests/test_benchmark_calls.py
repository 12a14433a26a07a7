"""The benchmark's in-process workloads against the library as it stands.

perfbench/workloads.py is loaded from its file, without writing bytecode
beside it, and pass 0 of seed 1 of the probe, reduce and render workloads
runs through each workload's own ``execute`` and ``check``.  So a library
change that breaks a workload's calls fails here, not only in the benchmark.
The cli workload is left out because it spawns processes.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", ["probe", "reduce", "render"])
def test_first_pass_checks_ok(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup(1, tmp_path)
    tasks = workload.tasks(0)
    assert tasks
    for task in tasks:
        ok, detail, _ = workload.check(task, workload.execute(task))
        assert ok, detail
