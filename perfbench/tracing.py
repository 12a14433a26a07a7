"""Spans around calls into hexameral's public functions, kept in memory.

The wrappers are installed from outside the package: every hexameral module
that binds a traced function by name (``from .chain import assemble``) gets
the wrapper in place of the original, and ``uninstall`` puts the originals
back. A span records its id, parent span, name, task id, start, end and
whether the call returned; self time is the span's duration minus the time
covered by its child spans.
"""
from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# (module, function) pairs timed in the traced run; the metric prefix is
# "<module>.<function>" with the package name dropped.
TRACED = (
    ("hexameral.hyperlink", "propagate"),
    ("hexameral.hyperlink", "link_area"),
    ("hexameral.hyperlink", "frame_at"),
    ("hexameral.hyperlink", "link_multicurve"),
    ("hexameral.chain", "assemble"),
    ("hexameral.chain", "closure_of"),
    ("hexameral.chain", "angle_margin_of"),
    ("hexameral.domain", "from_chain"),
    ("hexameral.domain", "boundary_polyline"),
    ("hexameral.domain", "export_svg"),
    ("hexameral.domain", "export_json"),
    ("hexameral.domain", "star_profile"),
    ("hexameral.multicurve", "rank_classify"),
    ("hexameral.variational", "chain_path"),
    ("hexameral.variational", "area_functional"),
    ("hexameral.optimize", "five_link_search"),
    ("hexameral.optimize", "link_reduction_experiment"),
)
# scipy solvers as bound inside hexameral.optimize.
SOLVERS = ("minimize", "least_squares")
HARNESSES = ("optimize.five_link_search", "optimize.link_reduction_experiment")

FUNCTION_METRICS = tuple(
    f"{module.split('.', 1)[1]}.{name}" for module, name in TRACED
) + tuple(f"optimize.{name}" for name in SOLVERS)
# The first five are reported per task as they are; the rest feed the ratios.
COUNTERS = (
    "sl2.frames_built", "sl2.det_repairs",
    "optimize.minimize.nfev", "optimize.least_squares.nfev", "optimize.evals",
    "optimize.harness_s", "optimize.results", "optimize.feasible",
)


class Tracer:
    """Span recorder plus the counters kept at the same call boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        state = empty_state()
        self.stats = state["stats"]
        self.counters = state["counters"]
        self.task: int | None = None
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, on_result=None):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                stats[2] += not ok
                spans.append((sid, parent, name, self.task, start, end, ok))
            if on_result is not None:
                on_result(result, duration)
            return result

        return traced

    def install(self) -> None:
        """Replace every hexameral binding of the traced functions."""
        from hexameral import optimize, sl2

        for module_name, name in TRACED:
            metric = f"{module_name.split('.', 1)[1]}.{name}"
            hook = self._harness_result if metric in HARNESSES else None
            self._rebind(getattr(sys.modules[module_name], name), metric, hook)
        for name in SOLVERS:
            self._rebind(getattr(optimize, name), f"optimize.{name}",
                         self._solver_result(f"optimize.{name}.nfev"))

        counters = self.counters
        det_tol = sl2.DET_TOL
        frame_cls = sl2.FrameMatrix
        original = frame_cls.__post_init__

        def counted_post_init(frame) -> None:
            counters["sl2.frames_built"] += 1
            det = frame.alpha * frame.delta - frame.beta * frame.gamma
            if abs(det - 1.0) > det_tol:
                counters["sl2.det_repairs"] += 1
            original(frame)

        frame_cls.__post_init__ = counted_post_init
        self._restore.append((frame_cls, "__post_init__", original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, original, metric: str, on_result) -> None:
        wrapper = self.wrap(metric, original, on_result)
        for module_name, module in list(sys.modules.items()):
            if module_name != "hexameral" and not module_name.startswith("hexameral."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _harness_result(self, result, duration: float) -> None:
        c = self.counters
        c["optimize.evals"] += result.eval_count
        c["optimize.harness_s"] += duration
        c["optimize.results"] += 1
        c["optimize.feasible"] += bool(result.feasible)

    def _solver_result(self, key: str):
        def hook(result, duration: float) -> None:
            self.counters[key] += int(result.nfev)
        return hook

    def state(self) -> dict:
        """Aggregates and counters as plain data, for merging across processes."""
        return {"stats": self.stats, "counters": self.counters}

    def write_spans(self, path) -> None:
        """One JSON array per span: id, parent, name, task, start, end, ok."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge_state(total: dict, part: dict) -> None:
    """Add one tracer's aggregates into a running total of the same shape."""
    for name, (calls, self_s, fail) in part["stats"].items():
        row = total["stats"].setdefault(name, [0, 0.0, 0])
        row[0] += calls
        row[1] += self_s
        row[2] += fail
    for name, value in part["counters"].items():
        total["counters"][name] = total["counters"].get(name, 0) + value


def empty_state() -> dict:
    return {"stats": {name: [0, 0.0, 0] for name in FUNCTION_METRICS},
            "counters": dict.fromkeys(COUNTERS, 0)}


def layer_metrics(state: dict, tasks: int) -> dict:
    """Per-task layer metrics from merged aggregates of ``tasks`` traced tasks."""
    out = {}
    per = 1.0 / max(tasks, 1)
    for name, (calls, self_s, fail) in state["stats"].items():
        out[f"{name}.calls"] = (calls * per, "count/task")
        out[f"{name}.self_s"] = (self_s * per, "s/task")
        out[f"{name}.fail"] = (fail * per, "count/task")
    c = state["counters"]
    for name in COUNTERS[:5]:
        out[name] = (c[name] * per, "count/task")
    out["optimize.evals_per_s"] = (
        c["optimize.evals"] / c["optimize.harness_s"] if c["optimize.harness_s"] else 0.0,
        "1/s")
    out["optimize.feasible_frac"] = (
        c["optimize.feasible"] / c["optimize.results"] if c["optimize.results"] else 0.0,
        "ratio")
    return out
