"""hexameral benchmark: one workload, one seed, one time box.

    python3 perfbench/run.py --workload {probe,reduce,cli,render} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from any directory; the library is imported from ``src/`` next to this
directory. Tasks run one at a time in passes (see workloads.py) until the
next pass would overrun ``--seconds``; times are reported in reference
seconds (see hostspeed.py). ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` alternates untraced and traced passes over the same
inputs and prints the per-layer metrics. The last line of standard output
is the result object; the full record (fingerprints, per-task times,
environment) is written to ``perfbench/out/``. ``--tiny`` runs one short pass
per mode for the smoke test. Exits 2 without a result when the sources are
missing.
"""
from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import platform
import pstats
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120.0
TAIL_MIN_BEYOND = 10
# Beyond p90 the tail of a run is mostly host noise.
TAIL_CAP = 90.0
PROFILE_ROWS = 25
IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("probe", "reduce", "cli", "render"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one task per pass and one pass per mode")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def workdir_for(args, tag: str) -> Path:
    return OUT / f"{args.workload}-s{args.seed}-{tag}"


def setup_child(args) -> int:
    """Time a cold ``import hexameral`` plus pass-0 input generation."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = workdir_for(args, f"setup{os.getpid()}")
    workload.setup(args.seed, workdir)
    workload.tasks(0)
    seconds = perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))
    return 0


def measure_setup(args, clock: hostspeed.HostClock) -> list[float]:
    """Setup times of fresh child processes, with host samples around them."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    clock.sample()
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        clock.sample()
        times.append(seconds * clock.factor(clock.latest() - 1))
    return times


class Runner:
    """Runs passes of one workload and keeps every task's time and verdict.

    Host-speed samples are taken between tasks and after every pass; their
    time is left out of the pass's wall time. Times are kept both as
    measured (``raw_*``) and in reference seconds.
    """

    def __init__(self, workload, clock: hostspeed.HostClock) -> None:
        self.workload = workload
        self.clock = clock
        self.tasks: list[dict] = []

    def run_pass(self, p: int, mode: str, before_task=None, after_task=None) -> dict:
        batch = self.workload.tasks(p)
        raws = []
        sampling = 0.0
        start = perf_counter()
        for task in batch:
            sampling += self.clock.maybe_sample()
            opened = self.clock.latest()
            if before_task is not None:
                before_task(len(self.tasks) + len(raws))
            t0 = perf_counter()
            try:
                raw, error = self.workload.execute(task), None
            except Exception:
                raw, error = None, traceback.format_exc(limit=4)
            raws.append((perf_counter() - t0, opened, raw, error))
        wall = perf_counter() - start - sampling
        self.clock.sample()
        raw_busy = sum(r[0] for r in raws)
        busy = sum(r[0] * self.clock.factor(r[1]) for r in raws)
        records = []
        for task, (raw_seconds, opened, raw, error) in zip(batch, raws):
            if error is None:
                try:
                    ok, detail, fp = self.workload.check(task, raw)
                except Exception:
                    ok, detail, fp = False, traceback.format_exc(limit=4), None
            else:
                ok, detail, fp = False, error, None
            record = {"pass": p, "mode": mode,
                      "seconds": raw_seconds * self.clock.factor(opened),
                      "raw_seconds": raw_seconds, "ok": ok, "detail": detail,
                      "fingerprint": fp}
            if after_task is not None:
                after_task(len(self.tasks), task, raw, record)
            self.tasks.append(record)
            records.append(record)
        return {"pass": p, "mode": mode, "wall_s": wall * busy / raw_busy,
                "raw_wall_s": wall, "tasks": records}


def keep_going(started: float, walls: list[float], seconds: float) -> bool:
    """Another pass fits when the median pass so far still ends in time."""
    return perf_counter() - started + statistics.median(walls) <= seconds


def tail(values: list[float]) -> dict:
    """Latency at the highest percentile with at least TAIL_MIN_BEYOND tasks
    beyond it, capped at TAIL_CAP (linear interpolation between order
    statistics). With TAIL_MIN_BEYOND tasks or fewer no percentile qualifies
    and the median stands in; the record says which percentile was used."""
    n = len(values)
    q = min(TAIL_CAP, 100.0 * (n - TAIL_MIN_BEYOND) / n) if n > TAIL_MIN_BEYOND else 50.0
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return {"value": value, "percentile": q, "tasks": n,
            "beyond": sum(v > value for v in values)}


def measured_run(args, workload, runner: Runner) -> tuple[dict, list, dict]:
    passes = []
    started = perf_counter()
    rss_kb = []

    def note_rss(index, task, raw, record) -> None:
        if raw is not None and args.workload == "cli":
            rss_kb.append(raw.rss_kb)

    while True:
        passes.append(runner.run_pass(len(passes), "untraced", after_task=note_rss))
        if args.tiny or not keep_going(started, [q["raw_wall_s"] for q in passes],
                                       args.seconds):
            break
    times = [t["seconds"] for t in runner.tasks]
    if args.workload == "cli":
        peak_kb = max(rss_kb) if rss_kb else 0
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_info = tail(times)
    attempted = len(runner.tasks)
    failed = sum(not t["ok"] for t in runner.tasks)
    metrics = {
        "wall_s": (statistics.median(q["wall_s"] for q in passes), "s"),
        "task_p50_s": (statistics.median(times), "s"),
        "task_tail_s": (tail_info["value"], "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, passes, {"tail": tail_info}


def scipy_import_s(stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules in -X importtime."""
    rows = [(len(indent), name, int(cumulative))
            for _, cumulative, indent, name in IMPORTTIME.findall(stderr)
            if name == "scipy" or name.startswith("scipy.")]
    if not rows:
        return 0.0
    top = min(depth for depth, _, _ in rows)
    return sum(us for depth, _, us in rows if depth == top) * 1e-6


def traced_run(args, workload, runner: Runner) -> tuple[dict, list, dict]:
    import tracing
    from workloads import Cli

    tracer = tracing.Tracer()
    cli_state = tracing.empty_state()
    cli_import, cli_scipy = [], []
    cli_walls = {name: [] for name in Cli.commands}
    in_process = args.workload != "cli"

    def set_task(index) -> None:
        tracer.task = index

    def absorb_child(index, task, raw, record) -> None:
        if raw is None or not raw.stats.is_file():
            return
        child = json.loads(raw.stats.read_text())
        tracing.merge_state(cli_state, child)
        cli_import.append(child["import_s"])
        cli_scipy.append(scipy_import_s(raw.stderr.read_text()))
        for span in child["spans"]:
            tracer.spans.append(tuple(span[:3]) + (index,) + tuple(span[4:]))

    def note_cli_wall(index, task, raw, record) -> None:
        if args.workload == "cli":
            cli_walls[task[0]].append(record["seconds"])

    passes = []
    started = perf_counter()
    while True:
        p = len(passes) // 2
        untraced = runner.run_pass(p, "untraced", after_task=note_cli_wall)
        if in_process:
            tracer.install()
            try:
                traced = runner.run_pass(p, "traced", before_task=set_task)
            finally:
                tracer.uninstall()
        else:
            workload.traced = True
            traced = runner.run_pass(p, "traced", after_task=absorb_child)
            workload.traced = False
        for u, t in zip(untraced["tasks"], traced["tasks"]):
            if u["fingerprint"] != t["fingerprint"]:
                t["ok"] = False
                t["detail"] = "traced result differs from the untraced one"
        passes += [untraced, traced]
        pair_walls = [a["raw_wall_s"] + b["raw_wall_s"]
                      for a, b in zip(passes[::2], passes[1::2])]
        if args.tiny or not keep_going(started, pair_walls, args.seconds):
            break

    traced = [t for q in passes[1::2] for t in q["tasks"]]
    state = cli_state if not in_process else tracer.state()
    metrics = tracing.layer_metrics(state, len(traced))
    mean = statistics.fmean
    metrics["cli.import_s"] = (mean(cli_import) if cli_import else 0.0, "s")
    metrics["cli.import.scipy_s"] = (mean(cli_scipy) if cli_scipy else 0.0, "s")
    factor = sum(t["seconds"] for t in traced) / sum(t["raw_seconds"] for t in traced)
    metrics = {name: (in_reference_units(value, unit, factor), unit)
               for name, (value, unit) in metrics.items()}
    untraced_wall = sum(q["wall_s"] for q in passes[::2])
    metrics["trace.overhead"] = (sum(q["wall_s"] for q in passes[1::2]) / untraced_wall,
                                 "ratio")
    for name, walls in cli_walls.items():
        metrics[f"cli.{name}.wall_s"] = (mean(walls) if walls else 0.0, "s")

    spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    extra = {"spans": str(spans_path.relative_to(HERE.parent)),
             "span_count": len(tracer.spans)}
    if args.workload == "probe":
        extra["profile"] = profile_probe(workload)
    return metrics, passes, extra


def profile_probe(workload) -> str:
    """Save the top cProfile rows of one fixed-seed probe task."""
    fixed = type(workload)()
    fixed.setup(0, OUT)
    spec = fixed.tasks(0)[0]
    profiler = cProfile.Profile()
    profiler.runcall(fixed.execute, spec)
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).strip_dirs().sort_stats("tottime").print_stats(
        PROFILE_ROWS)
    path = OUT / "profile-probe-s0.txt"
    path.write_text(buf.getvalue())
    return str(path.relative_to(HERE.parent))


def in_reference_units(value: float, unit: str, factor: float) -> float:
    """Scale a time, or a rate, measured on this host to reference seconds."""
    if unit in ("s", "s/task"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_used": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def fingerprint(passes: list) -> dict:
    """The results a speed-up must keep: pass 0 of the untraced mode."""
    first = next(q for q in passes if q["mode"] == "untraced")
    return {"pass0": [t["fingerprint"] for t in first["tasks"]]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hexameral" / "__init__.py").is_file():
        print(f"run.py: hexameral sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args)

    OUT.mkdir(exist_ok=True)
    # The vCPUs of a shared host change speed independently, so host samples
    # describe only the CPU they ran on: keep the run and its children on one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = hostspeed.HostClock()
    setup_times = [] if args.trace else measure_setup(args, clock)
    sys.path.insert(0, str(SRC))
    import workloads
    from hexameral.domain import smoothed_octagon

    workload = workloads.WORKLOADS[args.workload]()
    workdir = workdir_for(args, f"t{args.trace}")
    workload.setup(args.seed, workdir)
    if args.tiny and args.workload != "cli":
        workload.per_pass = 1
    runner = Runner(workload, clock)
    if args.trace:
        metrics, passes, extra = traced_run(args, workload, runner)
    else:
        metrics, passes, extra = measured_run(args, workload, runner)
        metrics["setup_s"] = (statistics.median(setup_times), "s")

    attempted = len(runner.tasks)
    failed = sum(not t["ok"] for t in runner.tasks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(),
        "octagon_density": format(smoothed_octagon().density, ".17g"),
        "setup_s": setup_times, "fingerprint": fingerprint(passes),
        "host": {"reference_s": hostspeed.REFERENCE_S, "samples": clock.samples},
        "failures": [t["detail"] for t in runner.tasks if not t["ok"]][:5],
        **extra, "passes": passes,
    }
    record_path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)

    summary = {k: record[k] for k in ("workload", "seed", "environment",
                                      "octagon_density", "fingerprint")}
    summary.update(extra)
    summary["record"] = str(record_path.relative_to(HERE.parent))
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
