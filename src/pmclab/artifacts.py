"""Machine-readable output files: report JSON, CSV tables, and contour SVG.

All writers are deterministic (sorted keys, shortest round-trip float
representation, no timestamps) so identical runs produce byte-identical
artifacts, and every file names the configuration hash it came from.
:func:`canonical_json` is the one place a record becomes JSON: a dataclass
instance is written as the dict of its fields, numpy arrays and scalars as
lists and Python numbers, and a non-finite float as its ``repr``.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .geometry import _group_starts
from .nodal import level_sets


def _sanitize(obj):
    if is_dataclass(obj):
        return {f.name: _sanitize(getattr(obj, f.name)) for f in fields(obj)}
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
    """One row per vertex; ``repr`` runs once per distinct coordinate bit
    pattern, of which a lattice mesh has a few hundred."""
    path = Path(out_dir) / "solution.csv"
    bits = np.ascontiguousarray(mesh.vertices, dtype=float).view(np.int64)
    order = np.argsort(bits, axis=None, kind="stable")
    starts = _group_starts(bits.ravel()[order])
    texts = list(map(repr, mesh.vertices.ravel()[order[starts]].tolist()))
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.cumsum(starts) - 1
    coords = list(map(texts.__getitem__, rank.tolist()))
    path.write_text(f"# config={config_hash}\n# mesh={mesh.mesh_hash()}\n"
                    "x1,x2,value\n"
                    + _rows("%s,%s,%r\n", coords[0::2], coords[1::2],
                            np.asarray(values).tolist()))
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


def write_nodal_csv(out_dir, arcset, config_hash):
    path = Path(out_dir) / "nodal_arcs.csv"
    lens = [len(arc) for arc in arcset.arcs]
    pts = np.concatenate([np.empty((0, 2)), *arcset.arcs])
    ids = np.repeat(np.arange(len(lens)), lens)
    seq = np.arange(len(pts)) - np.repeat(np.cumsum(lens, dtype=int) - lens,
                                          lens)
    text = (f"# config={config_hash}\narc_id,seq,x1,x2\n"
            + _rows("%d,%d,%r,%r\n", ids.tolist(), seq.tolist(),
                    pts[:, 0].tolist(), pts[:, 1].tolist()))
    if arcset.junction is not None:
        text += (f"# junction={float(arcset.junction[0])!r},"
                 f"{float(arcset.junction[1])!r}\n")
    path.write_text(text)
    return path


def _rows(fmt, *columns):
    """``fmt`` filled row by row from the equal-length ``columns``, as one
    %-format."""
    flat = [None] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        flat[i::len(columns)] = column
    return fmt * len(columns[0]) % tuple(flat)


def contour_polylines(field):
    """Level-set polylines of a vertex field at 10 equally spaced interior
    levels, in level order, from one pass of the marching tracer."""
    vals = field.values
    lo, hi = float(vals.min()), float(vals.max())
    if hi - lo <= 0:
        return []
    levels = np.linspace(lo, hi, 12)[1:-1]
    return [(float(lev), arc)
            for lev, arcs in zip(levels, level_sets(field, levels))
            for arc in arcs.arcs]


def write_contours_svg(out_dir, field, config_hash, nodal=None):
    """Self-contained SVG, 480 units on its longer side, with the mesh
    boundary, field contours, and optional nodal arcs; rendered from the
    marching tracer, no plotting dependency."""
    mesh = field.mesh
    pts = mesh.vertices
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(hi - lo)
    pad = 0.05 * span
    lo, hi = lo - pad, hi + pad
    scale = 480 / max(hi - lo)

    def xy(p):
        return ((p[0] - lo[0]) * scale, (hi[1] - p[1]) * scale)

    def path_d(poly):
        x, y = xy(np.asarray(poly).T)
        return ("M " + " L ".join(["%.2f %.2f"] * len(x))) % tuple(
            np.column_stack([x, y]).ravel().tolist())

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
    path = Path(out_dir) / "contours.svg"
    path.write_text("\n".join(parts) + "\n")
    return path
