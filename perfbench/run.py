"""End-to-end and per-layer benchmark of the pmclab command line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation is one CLI invocation (``python -m pmclab <command> --config
... --out ... --override ...``) in a fresh child process, so the load is a
closed loop with one client and nothing carries over between invocations.
Inputs are generated from the seed: it perturbs the domain dimensions by at
most 2 %.  Every invocation is checked (exit code, report status and verdict,
Newton convergence, vertex error against the radial closed form), and a
failed invocation is counted, never dropped or retried.

``--trace 0`` times untraced invocations and reports the end-to-end metrics:
``wall_s`` (median wall time per invocation, spawn to exit), ``setup_s``
(median time from spawn until pmclab is imported and the config parsed),
``peak_rss_mb`` (median of each child's own peak RSS, from ``wait4``) and
``pass_frac`` (invocations passing the gate / invocations attempted).  The
summary line also gives the tail wall time, ``fail_frac`` and ``oracle_err``
with their sample counts.  ``--trace 1`` alternates untraced and traced passes
(see ``tracer.py``) and reports per-layer metrics derived from the spans, the
tracing overhead, and checks that the exact counts repeat between passes, that
Newton iterations agree with ``report.json`` and that the layers' self times
add up to the traced wall time.

Lines before the last one are a human-readable summary; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Children run with BLAS pinned to one thread (``CHILD_THREADS``).
"""

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_SETUP_PROBES = 3         # timed set-up probes per run (plus one warm-up)
MIN_TRACED_PASSES = 2        # exact counts are compared between passes
INVOCATION_TIMEOUT_S = 60.0
PERTURBATION = 0.02          # relative, on every domain dimension
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}

# counts that must repeat exactly across traced runs with the same seed
EXACT_COUNTS = ("geometry.n_vertices", "assembly.jacobian_calls",
                "assembly.jacobian_nnz", "solver.linear_solve_calls",
                "solver.lu_fill", "solver.newton_iters",
                "critical.census_calls")


@dataclass
class Workload:
    command: str
    domain: dict                 # unperturbed; "R", "a", "b" get perturbed
    problem: dict
    h_target: float
    variants: tuple = ((),)      # extra --override lists, one per invocation
    oracle_n: tuple = ()         # radial closed form dimension per variant
    oracle_tol: float = 0.0
    # variant index -> the exact failure reasons of a known program defect;
    # such an invocation still counts as failed, but does not make the run
    # incorrect
    known_failures: dict = field(default_factory=dict)


# Each workload exercises a layer that another one bypasses, so a change to
# that layer has a workload where the prediction is "no change":
#   neumann-disk      the bordered Neumann solve ([[J, 1], [1^T, 0]] plus the
#                     dense boundary flux block) dominates; no homotopy, no
#                     axisym.
#   ellipse-homotopy  15-odd LU factorizations, Jacobians and 11 censuses
#                     along the continuation, plus meshing; no bordered solve,
#                     no axisym.
#   ball-sweep        the only user of axisym and the r^m-weighted quadrature;
#                     short invocations, so set-up weighs most; no
#                     triangulate, homotopy or bordered solve.
#   disk-compare      the compare path (nodal laboratory, SVG written twice);
#                     runnable by name but not listed in BENCHMARK.json, to
#                     keep the listed runs within their time budget.
# Mesh sizes keep one invocation at a few seconds, so a run holds several.
WORKLOADS = {
    "neumann-disk": Workload(
        command="verify", domain={"type": "disk", "R": 1.0},
        problem={"H": 0.6, "bc": "neumann", "c": 0.5}, h_target=0.025,
        oracle_n=(2,), oracle_tol=1e-3),
    "ellipse-homotopy": Workload(
        command="verify", domain={"type": "ellipse", "a": 1.3, "b": 0.7},
        problem={"H": 0.5, "bc": "robin", "alpha": 1.0,
                 "schedule": [round(0.1 * k, 10) for k in range(11)]},
        h_target=0.02),
    "disk-compare": Workload(
        command="compare", domain={"type": "disk", "R": 1.0},
        problem={"H": 0.8, "bc": "robin", "alpha": 1.0}, h_target=0.02,
        oracle_n=(2,), oracle_tol=1e-3),
    "ball-sweep": Workload(
        command="verify", domain={"type": "ball", "R": 1.0},
        problem={"H": 0.8, "bc": "robin", "alpha": 1.0}, h_target=0.0125,
        variants=tuple((f"problem.n_dim={n}",) for n in (3, 4, 5, 6)),
        oracle_n=(3, 4, 5, 6), oracle_tol=1e-2,
        # the r^m-weighted quadrature is inaccurate for n_dim >= 4; at
        # n_dim = 6 the Hessian trace at the axis is about 0.889 against H = 0.8
        known_failures={3: ("exit code 2", "status verification-fail",
                            "verdict fail: hessian-trace-identity")}),
}


# -- inputs ---------------------------------------------------------------------

def make_config(wl, seed):
    """The config document for this seed: domain dimensions scaled by
    independent factors in [1 - PERTURBATION, 1 + PERTURBATION].  The mesh
    size scales with the geometric mean of those factors, so every seed
    meshes about the same number of vertices (exactly the same on disks and
    balls): the seed changes the data, not the size of the problem."""
    rng = random.Random(seed)
    domain = dict(wl.domain)
    scale = []
    for key in ("R", "a", "b"):
        if key in domain:
            scale.append(1.0 + PERTURBATION * (2.0 * rng.random() - 1.0))
            domain[key] *= scale[-1]
    h_target = wl.h_target * statistics.geometric_mean(scale)
    return {"command": wl.command, "domain": domain, "problem": wl.problem,
            "mesh": {"h_target": h_target}}


def child_env():
    """The caller's environment, minus what would redirect pmclab's import or
    output or stop it from caching bytecode, plus the BLAS thread pins."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OUT_DIR", "PYTHONPATH", "PYTHONHOME",
                        "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    env.update(CHILD_THREADS)
    return env


# -- one invocation -------------------------------------------------------------

@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    code: int
    t_spawn: int                 # CLOCK_MONOTONIC ns, read just before spawn
    t_exit: int


def spawn(argv, env, log_path):
    """Run one child to completion; wall time from spawn to exit and the
    child's own peak RSS from wait4."""
    with open(log_path, "wb") as log:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=WORK, env=env,
                                stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall_s=(t1 - t0) / 1e9, rss_mb=usage.ru_maxrss / 1024.0,
                      code=proc.returncode, t_spawn=t0, t_exit=t1)


def cli_args(wl, config_path, out_dir, variant):
    args = [wl.command, "--config", str(config_path), "--out", str(out_dir)]
    for item in variant:
        args += ["--override", item]
    return args


def load_solution(path):
    rows = [line for line in path.read_text().splitlines()
            if line and not line.startswith(("#", "x1"))]
    return np.loadtxt(io.StringIO("\n".join(rows)), delimiter=",", ndmin=2)


def radial_closed_form(r, H, n, R, alpha):
    """Radial solution of div(grad v / sqrt(1 + |grad v|^2)) = H on the ball
    of radius R in dimension n; Robin data fixes the constant, Neumann data
    (alpha None) leaves it at zero."""
    q = H * r / n
    v = (n / H) * (1.0 - np.sqrt(1.0 - q * q))
    if alpha is None:
        return v
    qR = H * R / n
    slope_R = qR / np.sqrt(1.0 - qR * qR)
    return v - slope_R / alpha - (n / H) * (1.0 - np.sqrt(1.0 - qR * qR))


def oracle_error(wl, config, variant_idx, out_dir):
    data = load_solution(out_dir / "solution.csv")
    r = np.hypot(data[:, 0], data[:, 1])
    prob = config["problem"]
    exact = radial_closed_form(r, prob["H"], wl.oracle_n[variant_idx],
                               config["domain"]["R"], prob.get("alpha"))
    values = data[:, 2]
    if prob["bc"] == "neumann":
        exact = exact - exact.mean()
        values = values - values.mean()
    return float(np.max(np.abs(values - exact)))


def check(wl, config, variant_idx, inv, out_dir):
    """The correctness gate.  Returns (failure reasons, report, oracle_err)."""
    reasons = []
    if inv.code != 0:
        reasons.append(f"exit code {inv.code}")
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return reasons + [f"no readable report.json ({exc})"], None, None
    if report.get("status") != "ok":
        reasons.append(f"status {report.get('status')}")
    verification = report.get("verification")
    if wl.command == "verify":
        verdict = verification and verification.get("verdict")
        if verdict != "pass":
            bad = [p["name"] for p in (verification or {}).get("properties", [])
                   if p["status"] == "fail"]
            reasons.append(f"verdict {verdict}: {','.join(bad)}")
    else:
        # compare: the nodal laboratory's claim is four-sector contact
        sectors = ((report.get("nodal") or {}).get("cylinder") or {}) \
            .get("sector_count")
        if sectors != 4:
            reasons.append(f"cylinder sector count {sectors}")
    solve = report.get("solve")
    if solve is not None:
        if not solve.get("converged"):
            reasons.append("newton did not converge")
    else:
        props = {p["name"]: p["status"]
                 for p in (verification or {}).get("properties", [])}
        if props.get("homotopy-stability") != "pass":
            reasons.append("no converged solve recorded")
    err = None
    if wl.oracle_n and (out_dir / "solution.csv").is_file():
        err = oracle_error(wl, config, variant_idx, out_dir)
        if not err <= wl.oracle_tol:
            reasons.append(f"oracle error {err:.3g} > {wl.oracle_tol:g}")
    elif wl.oracle_n:
        reasons.append("no solution.csv")
    return reasons, report, err


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() \
        else None


# -- spans to per-layer metrics --------------------------------------------------

INCLUSIVE = {
    "geometry.triangulate_s": "geometry.triangulate",
    "axisym.meridian_mesh_s": "axisym.meridian_mesh",
    "axisym.solve_meridian_s": "axisym.solve_meridian",
    "axisym.axis_hessian_s": "axisym.axis_hessian",
    "axisym.check_monotone_s": "axisym.check_monotone",
    "assembly.jacobian_s": "assembly.jacobian",
    "assembly.residual_s": "assembly.residual",
    "solver.linear_solve_s": "solver.linear_solve",
    "solver.newton_solve_s": "solver.newton_solve",
    "solver.homotopy_solve_s": "solver.homotopy_solve",
    "critical.find_critical_points_s": "critical.find_critical_points",
    "nodal.trace_nodal_set_s": "nodal.trace_nodal_set",
    "nodal.leading_order_fit_s": "nodal.leading_order_fit",
    "nodal.sector_count_s": "nodal.sector_count",
    "nodal.difference_field_s": "nodal.difference_field",
    "verify.run_suite_s": "verify.run_suite",
    "verify.properties_s": "verify.verify_",
    "artifacts.write_s": "artifacts.write_",
    "config.parse_s": "config.",
}
CALLS = {
    "assembly.jacobian_calls": "assembly.jacobian",
    "assembly.residual_calls": "assembly.residual",
    "solver.linear_solve_calls": "solver.linear_solve",
    "solver.newton_calls": "solver.newton_solve",
}
# per-pass aggregation: sizes take the largest invocation, all else adds up
MAXED = ("geometry.n_vertices", "geometry.n_cells", "assembly.jacobian_nnz",
         "solver.lu_fill")


def _matches(name, key):
    return name.startswith(key) if key.endswith((".", "_")) else name == key


def span_metrics(trace, inv):
    """Per-layer metrics of one traced invocation."""
    spans = trace["spans"]
    n = len(spans)
    dur = [(s[3] - s[2]) / 1e9 for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    def ancestors(i):
        p = spans[i][4]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][4]

    def outermost(i, key):
        return not any(_matches(a, key) for a in ancestors(i))

    def info(i, k):
        return (spans[i][6] or {}).get(k, 0)

    m = {}
    for metric, key in INCLUSIVE.items():
        m[metric] = sum(dur[i] for i in range(n)
                        if _matches(spans[i][0], key) and outermost(i, key))
    for metric, key in CALLS.items():
        m[metric] = sum(1 for s in spans if s[0] == key)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_t[i] for i in range(n)
                                   if spans[i][0].startswith(layer + "."))

    meshes = [i for i in range(n) if spans[i][0] == "geometry.mesh_from_loop"]
    m["geometry.n_vertices"] = max((info(i, "n_vertices") for i in meshes),
                                   default=0)
    m["geometry.n_cells"] = max((info(i, "n_cells") for i in meshes), default=0)
    m["assembly.jacobian_nnz"] = max(
        (info(i, "nnz") for i in range(n) if spans[i][0] == "assembly.jacobian"),
        default=0)
    m["solver.lu_fill"] = max(
        (info(i, "lu_fill") for i in range(n)
         if spans[i][0] == "solver.linear_solve"), default=0)

    # Newton: one residual before the loop, then one per line-search trial
    newton = [i for i in range(n) if spans[i][0] == "solver.newton_solve"]
    residuals = [0] * n
    jacobians = [0] * n
    for s in spans:
        if s[4] >= 0 and s[0] == "assembly.residual":
            residuals[s[4]] += 1
        if s[4] >= 0 and s[0] == "assembly.jacobian":
            jacobians[s[4]] += 1
    trials = accepted = 0
    for i in newton:
        trials += max(residuals[i] - 1, 0)
        if spans[i][6]:
            accepted += info(i, "accepted")
        else:   # failed without a report: the last iteration was not accepted
            accepted += max(jacobians[i] - 1, 0)
    m["solver.newton_self_s"] = sum(self_t[i] for i in newton)
    m["solver.newton_iters"] = sum(info(i, "iterations") for i in newton)
    m["solver.backtracks"] = trials - accepted
    m["_accepted"], m["_trials"] = accepted, trials

    m["solver.homotopy_halvings"] = sum(
        1 for i in newton
        if spans[i][5] and "solver.homotopy_solve" in ancestors(i))
    census = [i for i in range(n) if spans[i][0] ==
              "critical.find_critical_points" and spans[i][1] == "solver"]
    m["critical.census_calls"] = len(census)
    m["critical.census_s"] = sum(dur[i] for i in census)
    props = [i for i in range(n) if spans[i][0].startswith("verify.verify_")]
    m["verify.properties_self_s"] = sum(self_t[i] for i in props)
    m["artifacts.bytes_written"] = sum(info(i, "bytes") for i in range(n)
                                       if spans[i][0].startswith("artifacts."))
    m["process.import_s"] = (trace["t_imported"] - inv.t_spawn) / 1e9
    # the tracer's own work outside the wrappers: installing them and
    # reading counters (excluded from every span)
    m["trace.own_s"] = (trace["t_installed"] - trace["t_imported"]
                        + trace["paused_ns"]) / 1e9
    # from the return of cli.main to process exit: writing the spans and
    # interpreter shutdown
    m["process.exit_s"] = (inv.t_exit - trace["t_main_end"]) / 1e9
    m["trace.wall_s"] = inv.wall_s
    # what the import, the tracer's own work, the layers' self times and the
    # exit leave uncovered of the traced wall time
    m["trace.unaccounted_s"] = inv.wall_s - sum(
        m[k] for k in ("process.import_s", "trace.own_s", "process.exit_s",
                       *(f"{layer}.self_s" for layer in LAYERS)))
    return m


def add_pass(total, m):
    for k, v in m.items():
        total[k] = max(total.get(k, 0), v) if k in MAXED \
            else total.get(k, 0) + v


# -- the run ---------------------------------------------------------------------

def quantile_tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    xs = sorted(values)
    if len(xs) < 11:
        return None
    k = len(xs) - 11
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs),
            "n": len(xs)}


class Bench:
    def __init__(self, name, seed):
        self.wl = WORKLOADS[name]
        self.config = make_config(self.wl, seed)
        self.config_path = WORK / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.unexpected = []     # failures that make the run incorrect
        self.oracle = {}         # variant index -> oracle errors

    def run_one(self, variant_idx, traced=False):
        """One checked invocation.  Returns (Invocation, report, out_dir)."""
        out = WORK / ("traced" if traced else "plain") / str(variant_idx)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        args = cli_args(self.wl, self.config_path, out,
                        self.wl.variants[variant_idx])
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    str(out / "spans.json"), "--"] + args
        else:
            argv = [sys.executable, "-m", "pmclab"] + args
        inv = spawn(argv, self.env, out / "stderr.log")
        reasons, report, err = check(self.wl, self.config, variant_idx, inv,
                                     out)
        self.attempted += 1
        if err is not None:
            self.oracle.setdefault(variant_idx, []).append(err)
        if reasons:
            self.failed += 1
            known = self.wl.known_failures.get(variant_idx)
            if tuple(reasons) != known:
                self.unexpected.append(
                    {"variant": list(self.wl.variants[variant_idx]),
                     "traced": traced, "reasons": reasons})
        return inv, report, out

    def setup_probe(self):
        """Spawn until pmclab is imported and the config is parsed: the CLI
        is given an override that fails validation, so it exits with code 4
        right after parsing."""
        out = WORK / "setup"
        out.mkdir(parents=True, exist_ok=True)
        args = cli_args(self.wl, self.config_path, out, self.wl.variants[0])
        argv = [sys.executable, "-m", "pmclab"] + args + \
            ["--override", "mesh.h_target=0"]
        inv = spawn(argv, self.env, out / "stderr.log")
        msg = (out / "stderr.log").read_text()
        if inv.code != 4 or "mesh.h_target" not in msg:
            self.unexpected.append({"setup_probe": msg.strip(),
                                    "exit": inv.code})
        return inv.wall_s

    def untraced(self, seconds):
        self.setup_probe()       # fills the page cache and writes .pyc files
        setups, walls, rss = [], [], []
        t0 = time.monotonic()
        last = 0.0
        # a pass starts only if one as long as the last still fits; one
        # set-up probe after each pass spreads them over the run
        while not walls or time.monotonic() - t0 + last <= seconds:
            t_pass = time.monotonic()
            for v in range(len(self.wl.variants)):
                inv, _, _ = self.run_one(v)
                walls.append(inv.wall_s)
                rss.append(inv.rss_mb)
            setups.append(self.setup_probe())
            last = time.monotonic() - t_pass
        while len(setups) < MIN_SETUP_PROBES:
            setups.append(self.setup_probe())
        end_to_end = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "pass_frac": ((self.attempted - self.failed) / self.attempted,
                          "ratio"),
        }
        tail = quantile_tail(walls)
        oracle = {str(v): statistics.median(e) for v, e in self.oracle.items()}
        summary = {
            "wall_s": {"value": end_to_end["wall_s"][0], "unit": "s",
                       "n": len(walls), "samples": walls},
            "wall_s_tail": {**tail, "unit": "s"} if tail else
            {"value": None, "unit": "s", "n": len(walls),
             "note": "needs at least 11 samples"},
            "setup_s": {"value": end_to_end["setup_s"][0], "unit": "s",
                        "n": len(setups)},
            "peak_rss_mb": {"value": end_to_end["peak_rss_mb"][0],
                            "unit": "MB", "n": len(rss)},
            "fail_frac": {"value": self.failed / self.attempted,
                          "unit": "ratio", "n": self.attempted},
            "oracle_err": {"value": max(oracle.values()) if oracle else None,
                           "unit": "1", "n": sum(map(len,
                                                     self.oracle.values())),
                           "tol": self.wl.oracle_tol if oracle else None,
                           "per_variant": oracle},
        }
        return end_to_end, summary

    def traced(self, seconds):
        passes = []
        ratios = []
        t0 = time.monotonic()
        last = 0.0
        while (len(passes) < MIN_TRACED_PASSES
               or time.monotonic() - t0 + last <= seconds):
            t_pass = time.monotonic()
            plain_wall = traced_wall = 0.0
            total = {}
            for v in range(len(self.wl.variants)):
                inv, _, out = self.run_one(v)
                plain_wall += inv.wall_s
                ref = digest(out / "solution.csv")
                tinv, report, tout = self.run_one(v, traced=True)
                traced_wall += tinv.wall_s
                m = self.trace_metrics(v, tinv, report, tout, ref)
                if m is not None:
                    add_pass(total, m)
            ratios.append(traced_wall / plain_wall - 1.0)
            passes.append(total)
            last = time.monotonic() - t_pass
        return self.layer_metrics(passes, ratios)

    def trace_metrics(self, v, inv, report, out, ref_digest):
        try:
            trace = json.loads((out / "spans.json").read_text())
        except (OSError, ValueError) as exc:
            self.unexpected.append({"variant": v, "spans": str(exc)})
            return None
        if not trace["pmclab_file"].startswith(str(SRC)):
            self.unexpected.append({"traced_import": trace["pmclab_file"]})
        if digest(out / "solution.csv") != ref_digest:
            self.unexpected.append({"variant": v, "traced_output_differs":
                                    "solution.csv"})
        m = span_metrics(trace, inv)
        solve = (report or {}).get("solve")
        if solve is not None and solve["iterations"] != m["solver.newton_iters"]:
            self.unexpected.append({"variant": v, "newton_iters": [
                m["solver.newton_iters"], solve["iterations"]]})
        return m

    def layer_metrics(self, passes, ratios):
        first = passes[0]
        for p in passes[1:]:
            for k in EXACT_COUNTS:
                if p.get(k) != first.get(k):
                    self.unexpected.append({"count_differs": k,
                                            "values": [first.get(k), p.get(k)]})
        for p in passes:
            accepted, trials = p.pop("_accepted"), p.pop("_trials")
            p["solver.step_accept_ratio"] = accepted / trials if trials else 1.0
        out = {}
        for k in first:
            vals = [p[k] for p in passes]
            out[k] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
        out["trace.overhead_frac"] = statistics.median(ratios)
        # the layers' self times must add up to the traced wall time within
        # the tracing overhead
        slack = max(out["trace.overhead_frac"], 0.0) * out["trace.wall_s"]
        if abs(out["trace.unaccounted_s"]) > slack + 0.01:
            self.unexpected.append({"self_times_do_not_add_up":
                                    out["trace.unaccounted_s"]})
        return out, len(passes)


def environment():
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "child_blas_threads": CHILD_THREADS}


UNITS = {"_s": "s", "_calls": "count", "_frac": "ratio", "_ratio": "ratio",
         "bytes_written": "bytes"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pmclab" / "cli.py").is_file():
        print(f"perfbench: no pmclab sources at {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed)
        head = {"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "domain": bench.config["domain"],
                "environment": environment()}
        if args.trace:
            layer, n_passes = bench.traced(args.seconds)
            metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in sorted(layer.items())}
            head["traced_passes"] = n_passes
        else:
            end_to_end, summary = bench.untraced(args.seconds)
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()}
            head["end_to_end"] = summary
        head["unexpected_failures"] = bench.unexpected
        print(json.dumps(head, indent=1))
        print(json.dumps({"correct": not bench.unexpected,
                          "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
