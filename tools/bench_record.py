"""Compare two source trees with ``perfbench/compare.py`` and keep its table as a JSON record.

Usage::

    python3 tools/bench_record.py PARENT CHANGE OUT.json

PARENT and CHANGE are checkouts, as ``perfbench/compare.py`` takes them.
This runs compare.py's own ``collect`` and ``table`` unchanged: every
workload of BENCHMARK.json, 10 pairs of ``run_seconds`` runs each, the
parent first in even pairs. It prints one line per row of the table and
writes OUT.json: one row per workload and end-to-end metric (verdict, each
side's quartiles, wins out of pairs, the relative change of the median
and the larger relative spread), each run's value of that metric and
each run's failed-op count, which commit and ``src`` tree each side was
(when the checkout is a git clone), and the machine the runs shared.
A full record takes about 40 minutes.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _compare():
    spec = importlib.util.spec_from_file_location("compare", ROOT / "perfbench" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(tree: Path, *args):
    out = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        return None


def record(runs: dict, rows, spec: dict, parent: Path, change: Path) -> dict:
    """The JSON record of compare.py's runs and table rows."""
    import numpy

    sides = {"parent": parent, "change": change}
    table = []
    for workload, name, unit, verdict, st in rows:
        per_side = {side: runs[side][workload] for side in sides}
        table.append({
            "workload": workload,
            "metric": name,
            "unit": unit,
            "verdict": verdict,
            **{side: dict(zip(("q1", "median", "q3"), st[side])) for side in sides},
            "wins": st["wins"],
            "pairs": st["pairs"],
            "better_by": st["better_by"],
            "spread": st["spread"],
            "runs": {side: [r["metrics"][name]["value"] for r in rs] for side, rs in per_side.items()},
            "failed": {side: [r["failed"] for r in rs] for side, rs in per_side.items()},
        })
    return {
        "command": "python3 tools/bench_record.py PARENT CHANGE OUT.json",
        "run_seconds": spec["run_seconds"],
        "trees": {side: {"commit": _git(tree, "rev-parse", "HEAD"), "src_tree": _git(tree, "rev-parse", "HEAD:src")}
                  for side, tree in sides.items()},
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "nproc": os.cpu_count(), "cpu": _cpu()},
        "table": table,
    }


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    parent, change, out = Path(argv[0]).resolve(), Path(argv[1]).resolve(), Path(argv[2])
    compare = _compare()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = compare.collect(parent, change, [w["name"] for w in spec["workloads"]], spec["run_seconds"])
    rows = compare.table(runs, spec)
    for workload, name, unit, verdict, st in rows:
        print(f"{workload:<11} {name:<12} parent {st['parent'][1]:.4g} change {st['change'][1]:.4g} {unit} "
              f"wins {st['wins']}/{st['pairs']} better by {st['better_by']:+.1%}  {verdict}")
    out.write_text(json.dumps(record(runs, rows, spec, parent, change), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
