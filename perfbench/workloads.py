"""The four benchmark workloads: inputs from a seed, the timed call, the check.

Every workload hands out tasks in passes. Pass ``p`` of seed ``s`` is drawn
from ``numpy.random.default_rng([s, p])``, so a pass is the same on every
run of a seed however many passes a run gets through. ``execute`` is the
timed part of a task; ``check`` runs after the clock stops and returns
``(ok, detail, fingerprint)``. The fingerprint holds the numbers a speed-up
must not change (eval counts, densities, areas, output digests).

The library is reached through module attributes (``optimize.five_link_search``)
so that the traced run's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

from hexameral import chain, domain, hyperlink, multicurve, optimize, sl2, variational
from hexameral.errors import GeometryError

# The smoothed octagon's density, written out here rather than read from
# the library so the checks do not trust the code they check.
OCTAGON_DENSITY = (8.0 - math.sqrt(32.0) - math.log(2.0)) / (math.sqrt(8.0) - 1.0)
# Acceptance criterion 13's floor for a feasible probe result.
PROBE_BAR = 0.9024141 - 1e-9
DENSITY_TOL = 1e-12
AREA_FUNCTIONAL_TOL = 1e-6
REFIT_GAP_TOL = 1e-8
CHILD_TIMEOUT_S = 120.0

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def random_frame(rng, scale: float) -> sl2.FrameMatrix:
    """exp of a random tangent scaled to norm ``scale``: a mild SL2 move."""
    x = sl2.TangentElement(*(float(v) for v in rng.uniform(-1.0, 1.0, 3)))
    return sl2.exp_tangent(x, scale / max(x.norm(), 1e-9))


def moved_octagon(octagon, rng) -> chain.ChainParams:
    g = random_frame(rng, float(rng.uniform(0.2, 1.2)))
    initial = hyperlink.transform_state(g, octagon.chain.initial)
    return chain.ChainParams(initial, octagon.chain.links)


def split_period(octagon, ta: float) -> chain.ChainParams:
    """The octagon period as six links: the first link split at ``ta``, a pad."""
    tau = domain.OCTAGON_TAU
    tb = (tau - ta) / (1.0 - ta)
    links = ((ta, 0), (tb, 0), (0.0, 2), (tau, 2), (tau, 4), (tau, 0))
    return chain.ChainParams(octagon.chain.initial, links)


class Probe:
    """five_link_search from small perturbations of the octagon embedding."""

    name = "probe"
    per_pass = 2

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.embedding = optimize.octagon_embedding()
        self.lo = np.array([b[0] for b in optimize.DEFAULT_BOUNDS])
        self.hi = np.array([b[1] for b in optimize.DEFAULT_BOUNDS])

    def tasks(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, p])
        out = []
        for i in range(self.per_pass):
            d = rng.standard_normal(7)
            d *= 1e-3 / np.linalg.norm(d)
            start = np.clip(self.embedding + d, self.lo, self.hi)
            out.append(optimize.SearchSpec(start=tuple(float(v) for v in start),
                                           restarts=1, max_evals=2000,
                                           seed=p * self.per_pass + i))
        return out

    def execute(self, spec):
        return optimize.five_link_search(spec)

    def check(self, spec, result):
        fp = {"evals": result.eval_count, "density": repr(result.best_density)}
        if not result.feasible:
            return False, "search result is infeasible", fp
        if result.best_density < PROBE_BAR:
            return False, f"density {result.best_density!r} below the floor", fp
        return True, "", fp


class Reduce:
    """link_reduction_experiment on split octagon periods and random segments."""

    name = "reduce"
    per_pass = 2

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.octagon = domain.smoothed_octagon()

    def _random_segment(self, rng) -> chain.ChainParams:
        """Six random links from the octagon's start state that assemble."""
        while True:
            js = [int(rng.choice((0, 2, 4)))]
            while len(js) < 6:
                js.append(int(rng.choice([j for j in (0, 2, 4) if j != js[-1]])))
            taus = rng.uniform(0.05, 0.4, 6)
            segment = chain.ChainParams(self.octagon.chain.initial,
                                        tuple(zip(taus.tolist(), js)))
            try:
                assembled = chain.assemble(segment)
            except GeometryError:
                continue
            if chain.angle_margin_of(segment, assembled) >= -chain.ANGLE_TOL:
                return segment

    def tasks(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, p])
        out = []
        for i in range(self.per_pass):
            if i % 2 == 0:
                kind, segment = "split", split_period(self.octagon,
                                                      float(rng.uniform(0.1, 0.5)))
            else:
                kind, segment = "random", self._random_segment(rng)
            spec = optimize.SearchSpec(restarts=1, max_evals=3000,
                                       seed=int(rng.integers(1 << 16)))
            out.append((kind, segment, spec))
        return out

    def execute(self, task):
        _, segment, spec = task
        return optimize.link_reduction_experiment(segment, spec)

    def check(self, task, report):
        kind, segment, _ = task
        fp = {"kind": kind, "evals": report.eval_count,
              "six_area": repr(report.six_area), "five_area": repr(report.five_area),
              "feasible": report.feasible, "improved": report.improved}
        if kind == "split":
            gap = report.five_area - report.six_area
            if not report.feasible:
                return False, "split segment refit is infeasible", fp
            if abs(gap) > REFIT_GAP_TOL or report.improved:
                return False, f"split refit gap {gap:.3e}, improved {report.improved}", fp
            return True, "", fp
        if report.feasible:
            target = chain.assemble(segment).final
            refit = chain.assemble(chain.ChainParams(segment.initial, report.five_links))
            frame_res = sl2.frame_distance(refit.final.frame, target.frame)
            tangent_res = refit.final.tangent.distance(target.tangent)
            if max(frame_res, tangent_res) > chain.STRICT_TOL:
                return False, (f"refit misses the target: frame {frame_res:.3e}, "
                               f"tangent {tangent_res:.3e}"), fp
        return True, "", fp


class Render:
    """In-process domain outputs at seeded sampling densities."""

    name = "render"
    per_pass = 32

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.octagon = domain.smoothed_octagon()

    def tasks(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, p])
        out = []
        for i in range(self.per_pass):
            if i % 2 == 0:
                closed = moved_octagon(self.octagon, rng)
            else:
                closed = split_period(self.octagon, float(rng.uniform(0.1, 0.5)))
            sizes = (int(rng.integers(16, 97)), int(rng.integers(8, 41)),
                     int(rng.integers(8, 25)), int(rng.integers(200, 401)))
            out.append((closed, sizes))
        return out

    def execute(self, task):
        closed, (per_link, star_per_link, curve_samples, path_per_link) = task
        dom = domain.from_chain(closed)
        poly = domain.boundary_polyline(dom, per_link)
        svg = domain.export_svg(dom, per_link)
        doc = domain.export_json(dom)
        star = domain.star_profile(dom, star_per_link)
        ranks = [
            multicurve.rank_classify(hyperlink.link_multicurve(
                rep, curve_samples, hyperlink.link_map(state, rep))).value
            for state, rep in zip(dom.assembled.states, dom.assembled.reps)
            if rep.tau > 0.0
        ]
        area = variational.area_functional(variational.chain_path(closed, path_per_link))
        return dom, poly, svg, doc, star, ranks, area

    def check(self, task, out):
        dom, poly, svg, doc, star, ranks, area = out
        fp = {"density": repr(dom.density), "area_functional": repr(area),
              "points": len(poly.points), "svg": digest(svg.encode())}
        if abs(dom.density - OCTAGON_DENSITY) > DENSITY_TOL:
            return False, f"density {dom.density!r} off the closed form", fp
        if abs(area - dom.area) > AREA_FUNCTIONAL_TOL:
            return False, f"area functional {area!r} vs domain area {dom.area!r}", fp
        if doc["density"] != dom.density or doc["link_length"] != 4:
            return False, "export_json disagrees with the domain", fp
        if ranks and set(ranks) != {1}:
            return False, f"link ranks {ranks}", fp
        if float(star[:, :2].min()) <= 0.0:
            return False, "star margin is not positive", fp
        if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
            return False, "malformed SVG", fp
        return True, "", fp


class ChildRun(NamedTuple):
    """One finished CLI process: exit code, its peak RSS and its files."""

    code: int
    rss_kb: int
    stdout: Path
    stderr: Path
    stats: Path | None


class Cli:
    """Cold ``python -m hexameral.cli`` processes on seeded chain files."""

    name = "cli"
    # One process per command; each pass runs all five on one chain file.
    commands = ("octagon", "density", "verify", "export_svg", "export_json")
    chain_files = 3

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.traced = False
        self.seen: dict[tuple, tuple] = {}
        workdir.mkdir(parents=True, exist_ok=True)
        octagon = domain.smoothed_octagon()
        rng = np.random.default_rng([seed, 0])
        self.paths = []
        for i in range(self.chain_files):
            if i < self.chain_files - 1:
                closed = moved_octagon(octagon, rng)
            else:
                closed = split_period(octagon, float(rng.uniform(0.1, 0.5)))
            path = workdir / f"chain-{i}.json"
            chain.save_chain(closed, str(path))
            self.paths.append(path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def tasks(self, p: int) -> list:
        i = p % self.chain_files
        src = str(self.paths[i])
        out = self.workdir
        argvs = {
            "octagon": ["octagon", "-o", str(out / "octagon.json")],
            "density": ["density", src],
            "verify": ["verify", src],
            "export_svg": ["export", src, "--format", "svg", "-o", str(out / f"export-{i}.svg")],
            "export_json": ["export", src, "--format", "json", "-o",
                            str(out / f"export-{i}.json")],
        }
        return [(name, i, argvs[name]) for name in self.commands]

    def execute(self, task) -> ChildRun:
        name, i, argv = task
        stem = self.workdir / f"{name}-{i}"
        written = self.output_file(argv)
        if written is not None:
            written.unlink(missing_ok=True)
        if self.traced:
            stats = stem.with_suffix(".trace.json")
            stats.unlink(missing_ok=True)
            cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"),
                   str(stats)] + argv
        else:
            stats = None
            cmd = [sys.executable, "-m", "hexameral.cli"] + argv
        out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
        code, rss_kb = run_child(cmd, self.env, out_path, err_path)
        return ChildRun(code, rss_kb, out_path, err_path, stats)

    def output_file(self, argv) -> Path | None:
        return Path(argv[argv.index("-o") + 1]) if "-o" in argv else None

    def check(self, task, run: ChildRun):
        name, i, argv = task
        stdout = run.stdout.read_bytes()
        written = self.output_file(argv)
        body = written.read_bytes() if written is not None else b""
        fp = {"command": name, "chain": i, "exit": run.code,
              "stdout": digest(stdout), "output": digest(body)}
        if run.code != 0:
            return False, f"exit {run.code}: {run.stderr.read_text()[-300:]}", fp
        ok, detail = self._check_output(name, stdout.decode(), body)
        if ok:
            key = (name, i)
            first = self.seen.setdefault(key, (stdout, body))
            if first != (stdout, body):
                ok, detail = False, "repeated argv gave different output bytes"
        return ok, detail, fp

    def _check_output(self, name: str, stdout: str, body: bytes) -> tuple[bool, str]:
        lines = stdout.strip().splitlines()
        if name == "octagon":
            if lines != [f"density {OCTAGON_DENSITY:.12g}"]:
                return False, f"octagon printed {stdout!r}"
            chain.chain_from_dict(json.loads(body))
        elif name == "density":
            values = dict(line.split(" ", 1) for line in lines)
            err = abs(float(values["density"]) - OCTAGON_DENSITY)
            if err > DENSITY_TOL:
                return False, f"density line off by {err:.3e}"
        elif name == "verify":
            rows = [line.split() for line in lines]
            if len(rows) != 8 or any(row[1] != "pass" for row in rows):
                return False, f"verify rows: {stdout!r}"
        elif name == "export_svg":
            text = body.decode()
            if not (text.startswith("<?xml") and text.endswith("</svg>\n")):
                return False, "malformed SVG"
        else:
            doc = json.loads(body)
            if abs(doc["density"] - OCTAGON_DENSITY) > DENSITY_TOL or doc["link_length"] != 4:
                return False, "export json density or link length is wrong"
        return True, ""


def run_child(cmd, env, out_path: Path, err_path: Path) -> tuple[int, int]:
    """Run one process to completion; exit code and its own peak RSS in KiB."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


WORKLOADS = {w.name: w for w in (Probe, Reduce, Cli, Render)}
