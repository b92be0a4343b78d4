"""Machine-readable output files: report JSON, CSV tables, and contour SVG.

All writers are deterministic (sorted keys, shortest round-trip float
representation, no timestamps) so identical runs produce byte-identical
artifacts, and every file names the configuration hash it came from.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .assembly import ScalarField
from .errors import InvalidParameterError
from .nodal import trace_nodal_set


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not np.isfinite(v):
            return repr(v)
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj):
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_report(out_dir, report):
    path = Path(out_dir) / "report.json"
    path.write_text(canonical_json(report))
    return path


def write_solution_csv(out_dir, mesh, values, config_hash):
    path = Path(out_dir) / "solution.csv"
    lines = [f"# config={config_hash}",
             f"# mesh={mesh.mesh_hash()}",
             "x1,x2,value"]
    for (x, y), v in zip(mesh.vertices, values):
        lines.append(f"{float(x)!r},{float(y)!r},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_critical_csv(out_dir, records, config_hash):
    path = Path(out_dir) / "critical_points.csv"
    lines = [f"# config={config_hash}",
             "x1,x2,grad_norm,h11,h12,h22,gauss_curvature,classification,index"]
    for r in records:
        h = r.hessian
        idx = "" if r.index is None else str(int(r.index))
        lines.append(
            f"{float(r.location[0])!r},{float(r.location[1])!r},"
            f"{float(r.grad_norm)!r},{float(h[0, 0])!r},{float(h[0, 1])!r},"
            f"{float(h[1, 1])!r},{float(r.gauss_curvature)!r},"
            f"{r.classification},{idx}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_nodal_csv(out_dir, arcset, config_hash, filename="nodal_arcs.csv"):
    path = Path(out_dir) / filename
    lines = [f"# config={config_hash}", "arc_id,seq,x1,x2"]
    for aid, arc in enumerate(arcset.arcs):
        for k, (x, y) in enumerate(arc):
            lines.append(f"{aid},{k},{float(x)!r},{float(y)!r}")
    if arcset.junction is not None:
        lines.append(f"# junction={float(arcset.junction[0])!r},"
                     f"{float(arcset.junction[1])!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def contour_polylines(field, n_levels=10):
    """Level-set polylines of a vertex field via the marching tracer."""
    vals = field.values
    lo, hi = float(vals.min()), float(vals.max())
    if hi - lo <= 0:
        return []
    levels = np.linspace(lo, hi, n_levels + 2)[1:-1]
    out = []
    for lev in levels:
        shifted = ScalarField(field.mesh, vals - lev)
        try:
            arcs = trace_nodal_set(shifted)
        except InvalidParameterError:
            continue
        out.extend((float(lev), arc) for arc in arcs.arcs)
    return out


def write_contours_svg(out_dir, field, config_hash, nodal=None,
                       filename="contours.svg", size=480):
    """Self-contained SVG with the mesh boundary, field contours, and
    optional nodal arcs; rendered from the marching tracer, no plotting
    dependency."""
    mesh = field.mesh
    pts = mesh.vertices
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(hi - lo)
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    scale = size / max(hi - lo)

    def xy(p):
        return ((p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale)

    def path_d(poly):
        return "M " + " L ".join(f"{x:.2f} {y:.2f}"
                                 for x, y in (xy(p) for p in poly))

    w = (hi[0] - lo[0]) * scale
    hgt = (hi[1] - lo[1]) * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{hgt:.0f}" viewBox="0 0 {w:.0f} {hgt:.0f}">',
             f"<!-- config={config_hash} -->"]

    loop = mesh.vertices[mesh.boundary_edges[:, 0]]
    parts.append(f'<path d="{path_d(np.vstack([loop, loop[:1]]))}" '
                 'fill="none" stroke="black" stroke-width="1.5"/>')
    for _, arc in contour_polylines(field):
        parts.append(f'<path d="{path_d(arc)}" fill="none" stroke="#4477aa" '
                     'stroke-width="0.8"/>')
    if nodal is not None:
        for arc in nodal.arcs:
            parts.append(f'<path d="{path_d(arc)}" fill="none" '
                         'stroke="#cc3311" stroke-width="1.2" '
                         'stroke-dasharray="4 2"/>')
        if nodal.junction is not None:
            jx, jy = xy(nodal.junction)
            parts.append(f'<circle cx="{jx:.2f}" cy="{jy:.2f}" r="3" '
                         'fill="#cc3311"/>')
    parts.append("</svg>")
    path = Path(out_dir) / filename
    path.write_text("\n".join(parts) + "\n")
    return path
