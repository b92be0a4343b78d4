#!/usr/bin/env python3
"""Regenerate the golden reports in tests/golden/ from configs/.

Each file in configs/ runs with the ``command`` it names; its report is the
golden ``tests/golden/<config stem>.report.json``.

Usage::

    python3 scripts/make_goldens.py          # rewrite tests/golden/*.json
    python3 scripts/make_goldens.py --diff   # compare only, write nothing

Run after any intentional change to the pipeline.  ``--diff`` regenerates
every golden into a temporary directory and prints each leaf that differs
from the committed golden (path, old value, new value, and |delta| for
numbers; a missing key or list entry shows as <absent>), then, per golden,
the number of differing float, integer and other leaves and the largest
float |delta|, so that a moved count cannot hide the float moves.  It
exits 1 if anything differs, else 0.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from pmclab.cli import main as pmclab_main  # noqa: E402

CONFIGS = REPO / "configs"
GOLDEN = REPO / "tests" / "golden"
ABSENT = "<absent>"


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def leaf_diffs(old, new, path=""):
    """(path, old, new) of every leaf where two JSON trees differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(set(old) | set(new)):
            yield from leaf_diffs(old.get(k, ABSENT), new.get(k, ABSENT),
                                  f"{path}.{k}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from leaf_diffs(old[i] if i < len(old) else ABSENT,
                                  new[i] if i < len(new) else ABSENT,
                                  f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def summary(name, diffs):
    """One line for the (path, old, new) leaf diffs of one golden: how many
    are float, integer and other leaves, and the largest float |delta|."""
    numeric = [(a, b) for _, a, b in diffs if _is_number(a) and _is_number(b)]
    floats = [abs(b - a) for a, b in numeric
              if isinstance(a, float) or isinstance(b, float)]
    n_int = len(numeric) - len(floats)
    return (f"{name}: {len(diffs)} leaves differ: {len(floats)} float "
            f"(max |d| {max(floats, default=0.0):.3g}), {n_int} integer, "
            f"{len(diffs) - len(numeric)} other")


def diff_golden(name, report_path):
    """Print the differences of one regenerated report; returns their
    number."""
    old = json.loads((GOLDEN / f"{name}.report.json").read_text())
    new = json.loads(Path(report_path).read_text())
    diffs = list(leaf_diffs(old, new))
    for path, a, b in diffs:
        line = f"  {path}: {json.dumps(a)} -> {json.dumps(b)}"
        if _is_number(a) and _is_number(b):
            line += f"  |d|={abs(b - a):.3g}"
        print(line)
    print(summary(name, diffs))
    return len(diffs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", action="store_true",
                    help="compare with the committed goldens, write nothing")
    args = ap.parse_args(argv)
    if not args.diff:
        GOLDEN.mkdir(parents=True, exist_ok=True)
    differing = 0
    for cfg in sorted(CONFIGS.glob("*.json")):
        name = cfg.stem
        command = json.loads(cfg.read_text())["command"]
        with tempfile.TemporaryDirectory() as td:
            code = pmclab_main([command, "--config", str(cfg), "--out", td])
            report = Path(td) / "report.json"
            if args.diff:
                differing += diff_golden(name, report)
            else:
                shutil.copy(report, GOLDEN / f"{name}.report.json")
                print(f"{name}: exit {code} -> "
                      f"tests/golden/{name}.report.json")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
