"""Run the pmclab CLI with every public layer function wrapped in a span.

Usage::

    python3 perfbench/tracer.py SPANS_JSON -- <pmclab CLI arguments>

The program is not changed: after ``import pmclab`` this script replaces each
public module-level function of the traced layers with a wrapper, in every
pmclab module that holds a reference to it (the modules bind each other with
``from ... import``), then calls ``pmclab.cli.main``.  Spans (name, call site,
start, end, parent span) stay in memory and are written to SPANS_JSON when the
CLI returns.  Times are ``CLOCK_MONOTONIC`` nanoseconds, the clock the parent
benchmark reads when it spawns this process.
"""

import functools
import json
import os
import sys
import time
import types

_clock = time.monotonic_ns

LAYERS = ("geometry", "assembly", "solver", "critical", "nodal", "axisym",
          "verify", "artifacts", "config", "cli")


def _mesh_info(mesh):
    return {"n_vertices": int(mesh.n_vertices), "n_cells": int(mesh.n_cells)}


def _newton_info(result):
    return {"iterations": int(result[1].iterations),
            "accepted": len(result[1].damping_history)}


# counts read from return values at the boundary where the work happens
_INFO = {
    "geometry.mesh_from_loop": _mesh_info,
    "assembly.jacobian": lambda J: {"nnz": int(J.nnz)},
    "solver.newton_solve": _newton_info,
}


class Tracer:
    """Span recorder.  Spans are lists ``[name, site, start, end, parent,
    error, info]``; time spent reading counters is excluded from every open
    span through the ``paused`` clock."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.paused = 0

    def wrap(self, fn, name, site):
        info_of = _INFO.get(name)
        if info_of is None and name.startswith("artifacts.write_"):
            info_of = _file_info
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, site, 0, 0, stack[-1] if stack else -1, False, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            paused0 = self.paused
            span[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = _clock() - (self.paused - paused0)
                span[5] = True
                report = getattr(exc, "report", None)
                if report is not None and name == "solver.newton_solve":
                    span[6] = {"iterations": int(report.iterations),
                               "accepted": len(report.damping_history)}
                raise
            finally:
                stack.pop()
            span[3] = _clock() - (self.paused - paused0)
            if info_of is not None:
                t0 = _clock()
                span[6] = {**(span[6] or {}), **info_of(result)}
                self.paused += _clock() - t0
            return result

        return traced

    def note(self, key, value):
        """Attach a counter to the innermost open span."""
        if self.stack:
            span = self.spans[self.stack[-1]]
            span[6] = {**(span[6] or {}), key: value}


def _file_info(path):
    return {"bytes": os.path.getsize(path)}


class _TracedSuperLU:
    """Stands in for ``scipy.sparse.linalg`` inside ``pmclab.solver`` so that
    each factorization reports its fill, L.nnz + U.nnz."""

    def __init__(self, spla, tracer):
        self._spla = spla
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def splu(self, *args, **kwargs):
        lu = self._spla.splu(*args, **kwargs)
        t0 = _clock()
        self._tracer.note("lu_fill", int(lu.L.nnz + lu.U.nnz))
        self._tracer.paused += _clock() - t0
        return lu


def install(tracer):
    """Wrap every public function of the traced layers, in each pmclab module
    that refers to it.  Returns the number of bindings replaced."""
    import importlib
    names = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"pmclab.{layer}")
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                names[obj] = f"{layer}.{attr}"
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "pmclab"
                               or mod_name.startswith("pmclab.")):
            continue
        site = mod_name.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in names:
                setattr(mod, attr, tracer.wrap(obj, names[obj], site))
                replaced += 1
    solver = sys.modules["pmclab.solver"]
    solver.spla = _TracedSuperLU(solver.spla, tracer)
    return replaced


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <pmclab CLI arguments>",
              file=sys.stderr)
        return 64
    spans_path, cli_args = argv[0], argv[2:]
    import pmclab
    import pmclab.cli
    t_imported = _clock()
    tracer = Tracer()
    replaced = install(tracer)
    t_installed = _clock()
    code = pmclab.cli.main(cli_args)
    t_main_end = _clock()
    with open(spans_path, "w") as fh:
        json.dump({"t_imported": t_imported, "t_installed": t_installed,
                   "t_main_end": t_main_end, "paused_ns": tracer.paused,
                   "bindings": replaced,
                   "pmclab_file": pmclab.__file__, "exit_code": code,
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
