"""Run configuration: schema validation, defaults, and provenance hashing.

The configuration is a single JSON document naming the problem: the
command, the domain, the problem data and the mesh size.  Unknown keys are
rejected with their field path; ``DOMAIN_PARAMS`` and ``BC_DATUM`` name the
keys each domain kind and boundary condition takes, and a schedule, which
ends at 1, runs a continuation on a planar domain.  The config hash and
``TriMesh.mesh_hash`` take the ``sha256`` bound here, CPython's builtin one
where it exists (as ``random`` binds it), so a run loads no OpenSSL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

from .errors import ConfigError

try:
    from _sha2 import sha256            # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256      # builds without builtin hashes

COMMANDS = ("solve", "compare", "verify", "mesh-report")
PLANAR_DOMAINS = ("disk", "ellipse", "rounded_polygon")
MERIDIAN_DOMAINS = ("ball", "spheroid")
# the parameters of each domain kind, in the order its geometry factory
# takes them; no other key is allowed
DOMAIN_PARAMS = {"disk": ("R",), "ellipse": ("a", "b"),
                 "rounded_polygon": ("vertices", "r"),
                 "ball": ("R",), "spheroid": ("a", "b")}
# the boundary datum each kind of boundary condition carries
BC_DATUM = {"neumann": "c", "robin": "alpha"}


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


def _expect(cond, path, msg):
    if not cond:
        raise ConfigError(path, msg)


def _number(doc, path, lo=None, hi=None, strict_lo=False):
    _expect(isinstance(doc, (int, float)) and not isinstance(doc, bool),
            path, f"expected a number, got {type(doc).__name__}")
    try:
        v = float(doc)
    except OverflowError:       # an integer beyond the float range
        v = math.inf
    _expect(math.isfinite(v), path, f"must be finite, got {v}")
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
    _expect(isinstance(doc, dict), "domain", "expected an object")
    kind = doc.get("type")
    _expect(kind in DOMAIN_PARAMS, "domain.type",
            f"must be one of {tuple(DOMAIN_PARAMS)}, got {kind!r}")
    params = DOMAIN_PARAMS[kind]
    for key in doc:
        _expect(key == "type" or key in params, f"domain.{key}",
                f"not allowed for {kind}")
    out = {"type": kind}
    for key in params:
        _expect(key in doc, f"domain.{key}", f"required for {kind}")
        out[key] = _vertices(doc[key]) if key == "vertices" else \
            _number(doc[key], f"domain.{key}", lo=0.0, strict_lo=True)
    return out


def _vertices(verts):
    _expect(isinstance(verts, list) and len(verts) >= 3
            and all(isinstance(v, list) and len(v) == 2 for v in verts),
            "domain.vertices", "expected a list of [x, y] pairs")
    return [[_number(x, "domain.vertices"), _number(y, "domain.vertices")]
            for x, y in verts]


def _validate_problem(doc, domain_kind):
    _check_keys(doc, "problem",
                {"H", "bc", "c", "alpha", "schedule", "n_dim"})
    out = {}
    _expect("H" in doc, "problem.H", "required")
    out["H"] = _number(doc["H"], "problem.H", lo=0.0, strict_lo=True)
    bc = doc.get("bc")
    _expect(bc in BC_DATUM, "problem.bc",
            f"must be one of {tuple(BC_DATUM)}, got {bc!r}")
    out["bc"] = bc
    datum, name = BC_DATUM[bc], bc.capitalize()
    _expect(datum in doc, f"problem.{datum}", f"required for {name} data")
    for other in BC_DATUM.values():
        _expect(other == datum or other not in doc, f"problem.{other}",
                f"not allowed with {name} data")
    out[datum] = _number(doc[datum], f"problem.{datum}", lo=0.0,
                         strict_lo=True)

    schedule = doc.get("schedule")
    if schedule is not None:
        _expect(domain_kind in PLANAR_DOMAINS, "problem.schedule",
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

    default_ndim = 3 if domain_kind in MERIDIAN_DOMAINS else 2
    n_dim = doc.get("n_dim", default_ndim)
    _expect(isinstance(n_dim, int) and not isinstance(n_dim, bool)
            and n_dim >= 2, "problem.n_dim", f"must be an integer >= 2, "
            f"got {n_dim!r}")
    if domain_kind in PLANAR_DOMAINS:
        _expect(n_dim == 2, "problem.n_dim", "planar domains require n_dim = 2")
    else:
        _expect(n_dim >= 3, "problem.n_dim",
                "domains of revolution require n_dim >= 3")
    out["n_dim"] = n_dim
    return out


def parse_config(doc, command=None):
    """Validate a decoded configuration document and apply defaults.

    ``command`` (the CLI subcommand) wins over the document's ``command``
    field, which is the default when no subcommand is given.  Returns a
    :class:`RunConfig`: the canonical dict and the provenance hash of its
    JSON form, the first 16 hex digits of its SHA-256.
    """
    _check_keys(doc, "", {"command", "domain", "problem", "mesh"})

    doc_command = doc.get("command")
    if doc_command is not None:
        _expect(doc_command in COMMANDS, "command",
                f"must be one of {COMMANDS}, got {doc_command!r}")
    resolved = command or doc_command
    _expect(resolved is not None, "command",
            "no command given (CLI subcommand or config field)")

    _expect("domain" in doc, "domain", "required")
    domain = _validate_domain(doc["domain"])
    _expect("problem" in doc, "problem", "required")
    problem = _validate_problem(doc["problem"], domain["type"])
    if resolved == "compare":
        _expect(domain["type"] in PLANAR_DOMAINS, "domain.type",
                "compare needs a planar domain")

    mesh = doc.get("mesh", {})
    _check_keys(mesh, "mesh", {"h_target"})
    h_target = _number(mesh.get("h_target", 0.1),
                       "mesh.h_target", lo=0.0, strict_lo=True)

    canonical = {
        "command": resolved,
        "domain": domain,
        "problem": problem,
        "mesh": {"h_target": h_target},
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()
    return RunConfig(command=resolved, canonical=canonical,
                     config_hash=sha256(blob).hexdigest()[:16])


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
