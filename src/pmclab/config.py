"""Run configuration: schema validation, defaults, and provenance hashing.

The configuration is a single JSON document.  Unknown keys are rejected with
their field path; cross-field rules (Robin data must not carry ``c``,
Neumann must not carry ``alpha``, schedules end at 1, ...) are enforced
here so every downstream module sees validated data only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field

from .errors import ConfigError

COMMANDS = ("solve", "homotopy", "axisym", "compare", "verify", "mesh-report")
_PLANAR_DOMAINS = ("disk", "ellipse", "rounded_polygon")
_MERIDIAN_DOMAINS = ("ball", "spheroid")

DEFAULTS = {
    "mesh": {"h_target": 0.1},
    "solver": {"newton_tol": 1e-10, "max_iter": 50, "armijo_factor": 0.5,
               "armijo_c1": 1e-4, "max_backtracks": 20},
    "output_dir": "out",
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    canonical: dict = dc_field(repr=False)
    config_hash: str = ""

    @property
    def domain(self):
        return self.canonical["domain"]

    @property
    def problem(self):
        return self.canonical["problem"]

    @property
    def mesh(self):
        return self.canonical["mesh"]

    @property
    def solver(self):
        return self.canonical["solver"]

    @property
    def output_dir(self):
        return self.canonical["output_dir"]


def _expect(cond, path, msg):
    if not cond:
        raise ConfigError(path, msg)


def _number(doc, path, lo=None, hi=None, strict_lo=False):
    _expect(isinstance(doc, (int, float)) and not isinstance(doc, bool),
            path, f"expected a number, got {type(doc).__name__}")
    v = float(doc)
    if lo is not None:
        if strict_lo:
            _expect(v > lo, path, f"must be > {lo}, got {v}")
        else:
            _expect(v >= lo, path, f"must be >= {lo}, got {v}")
    if hi is not None:
        _expect(v <= hi, path, f"must be <= {hi}, got {v}")
    return v


def _check_keys(doc, path, allowed):
    _expect(isinstance(doc, dict), path, "expected an object")
    for key in doc:
        _expect(key in allowed, f"{path}.{key}" if path else key,
                "unknown key")


def _validate_domain(doc):
    _check_keys(doc, "domain", {"type", "R", "a", "b", "vertices", "r"})
    kind = doc.get("type")
    _expect(kind in _PLANAR_DOMAINS + _MERIDIAN_DOMAINS, "domain.type",
            f"must be one of {_PLANAR_DOMAINS + _MERIDIAN_DOMAINS}, got {kind!r}")
    out = {"type": kind}
    if kind in ("disk", "ball"):
        _expect("R" in doc, "domain.R", "required for disk/ball")
        out["R"] = _number(doc["R"], "domain.R", lo=0.0, strict_lo=True)
        for bad in ("a", "b", "vertices", "r"):
            _expect(bad not in doc, f"domain.{bad}", f"not allowed for {kind}")
    elif kind in ("ellipse", "spheroid"):
        for ax in ("a", "b"):
            _expect(ax in doc, f"domain.{ax}", f"required for {kind}")
            out[ax] = _number(doc[ax], f"domain.{ax}", lo=0.0, strict_lo=True)
        for bad in ("R", "vertices", "r"):
            _expect(bad not in doc, f"domain.{bad}", f"not allowed for {kind}")
    else:  # rounded_polygon
        _expect("vertices" in doc, "domain.vertices", "required")
        verts = doc["vertices"]
        _expect(isinstance(verts, list) and len(verts) >= 3
                and all(isinstance(v, list) and len(v) == 2 for v in verts),
                "domain.vertices", "expected a list of [x, y] pairs")
        out["vertices"] = [[_number(x, "domain.vertices", None),
                            _number(y, "domain.vertices", None)]
                           for x, y in verts]
        _expect("r" in doc, "domain.r", "required")
        out["r"] = _number(doc["r"], "domain.r", lo=0.0, strict_lo=True)
        _expect("R" not in doc, "domain.R", "not allowed for rounded_polygon")
    return out


def _validate_problem(doc, domain_kind, command):
    _check_keys(doc, "problem",
                {"H", "bc", "c", "alpha", "t", "schedule", "n_dim"})
    out = {}
    _expect("H" in doc, "problem.H", "required")
    out["H"] = _number(doc["H"], "problem.H", lo=0.0, strict_lo=True)
    bc = doc.get("bc")
    _expect(bc in ("neumann", "robin"), "problem.bc",
            f"must be 'neumann' or 'robin', got {bc!r}")
    out["bc"] = bc
    if bc == "neumann":
        _expect("c" in doc, "problem.c", "required for Neumann data")
        _expect("alpha" not in doc, "problem.alpha",
                "not allowed with Neumann data")
        out["c"] = _number(doc["c"], "problem.c", lo=0.0, strict_lo=True)
    else:
        _expect("alpha" in doc, "problem.alpha", "required for Robin data")
        _expect("c" not in doc, "problem.c", "not allowed with Robin data")
        out["alpha"] = _number(doc["alpha"], "problem.alpha", lo=0.0,
                               strict_lo=True)

    if "t" in doc:
        out["t"] = _number(doc["t"], "problem.t", lo=0.0, hi=1.0)
    else:
        out["t"] = 1.0

    schedule = doc.get("schedule")
    if schedule is None and command == "homotopy":
        schedule = [round(0.1 * k, 10) for k in range(11)]
    if schedule is not None:
        _expect(domain_kind in _PLANAR_DOMAINS, "problem.schedule",
                "continuation runs on planar domains only")
        _expect(isinstance(schedule, list) and len(schedule) >= 1,
                "problem.schedule", "expected a non-empty list")
        vals = [_number(t, "problem.schedule", lo=0.0, hi=1.0)
                for t in schedule]
        _expect(all(b > a for a, b in zip(vals, vals[1:])),
                "problem.schedule", "must be strictly increasing")
        _expect(abs(vals[-1] - 1.0) < 1e-12, "problem.schedule",
                "must end at t = 1")
        out["schedule"] = vals

    default_ndim = 3 if domain_kind in _MERIDIAN_DOMAINS else 2
    n_dim = doc.get("n_dim", default_ndim)
    _expect(isinstance(n_dim, int) and not isinstance(n_dim, bool)
            and n_dim >= 2, "problem.n_dim", f"must be an integer >= 2, "
            f"got {n_dim!r}")
    if domain_kind in _PLANAR_DOMAINS:
        _expect(n_dim == 2, "problem.n_dim", "planar domains require n_dim = 2")
    else:
        _expect(n_dim >= 3, "problem.n_dim",
                "domains of revolution require n_dim >= 3")
    out["n_dim"] = n_dim
    return out


def _validate_section(doc, name):
    defaults = DEFAULTS[name]
    _check_keys(doc, name, set(defaults))
    out = dict(defaults)
    for key, val in doc.items():
        lo = 0.0
        out[key] = (_number(val, f"{name}.{key}", lo=lo, strict_lo=True)
                    if not isinstance(defaults[key], int)
                    else _int(val, f"{name}.{key}"))
    return out


def _int(v, path):
    _expect(isinstance(v, int) and not isinstance(v, bool) and v > 0, path,
            f"expected a positive integer, got {v!r}")
    return v


def parse_config(document, command=None):
    """Validate a configuration document and apply defaults.

    ``document`` is a JSON string or an already-decoded dict; ``command``
    (from the CLI subcommand) must agree with an explicit ``command`` field
    when both are present.  Returns a :class:`RunConfig` whose canonical
    dict carries a provenance hash.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ConfigError("$", f"not valid JSON: {exc}") from exc
    else:
        doc = document
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    _check_keys(doc, "", {"command", "domain", "problem", "mesh", "solver",
                          "output_dir"})

    doc_command = doc.get("command")
    if doc_command is not None:
        _expect(doc_command in COMMANDS, "command",
                f"must be one of {COMMANDS}, got {doc_command!r}")
    # the CLI subcommand wins; the config field is a default
    resolved = command or doc_command
    _expect(resolved is not None, "command",
            "no command given (CLI subcommand or config field)")

    _expect("domain" in doc, "domain", "required")
    domain = _validate_domain(doc["domain"])
    _expect("problem" in doc, "problem", "required")
    problem = _validate_problem(doc["problem"], domain["type"], resolved)
    if resolved == "axisym":
        _expect(domain["type"] in _MERIDIAN_DOMAINS, "domain.type",
                "axisym needs a ball or spheroid domain")
    if resolved in ("solve", "homotopy", "compare"):
        _expect(domain["type"] in _PLANAR_DOMAINS, "domain.type",
                f"{resolved} needs a planar domain")

    mesh = _validate_section(doc.get("mesh", {}), "mesh")
    solver = _validate_section(doc.get("solver", {}), "solver")

    output_dir = doc.get("output_dir", DEFAULTS["output_dir"])
    _expect(isinstance(output_dir, str) and output_dir, "output_dir",
            "expected a non-empty string")

    canonical = {
        "command": resolved,
        "domain": domain,
        "problem": problem,
        "mesh": mesh,
        "solver": solver,
        "output_dir": output_dir,
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    cfg_hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
    canonical["config_hash"] = cfg_hash
    return RunConfig(command=resolved, canonical=canonical,
                     config_hash=cfg_hash)


def apply_overrides(doc, overrides):
    """Apply repeatable KEY=VALUE overrides (dotted paths) to a raw dict.

    Values parse as JSON scalars with a string fallback, so
    ``mesh.h_target=0.05`` and ``problem.bc=robin`` both work.
    """
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("override", f"expected KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "override path crosses a non-object")
        node[parts[-1]] = value
    return doc
