"""Parent-vs-change comparison of two entorder source trees.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are checkouts; only their ``src`` differs between the
two sides of a pair, the benchmark code is this directory's. Every
workload of BENCHMARK.json runs 10 pairs of ``run_seconds`` runs; pair i
uses seed ``1000 + i`` on both sides, the parent first in even pairs and
the change first in odd ones. Each workload x end-to-end metric gets one
row:

* ``gain``: the change wins at least 9 of the 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
* ``better-every-run`` / ``unresolved``: either side's quartile distance
  exceeds the metric's bound, so only a change better in every run
  counts as better;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``within-bound``: none of the above;
* ``more-failures``: the change failed more ops, so no gain counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PAIRS = 10
SEED0 = 1000
WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run on tree's entorder; the parsed result line."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--src", str(tree / "src")]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def collect(parent: Path, change: Path, workloads, seconds: int) -> dict:
    runs = {"parent": {w: [] for w in workloads}, "change": {w: [] for w in workloads}}
    for w in workloads:
        for i in range(PAIRS):
            order = (("parent", parent), ("change", change))
            for side, tree in order if i % 2 == 0 else order[::-1]:
                runs[side][w].append(run_once(tree, w, SEED0 + i, seconds))
                print(f"{w} pair {i + 1}/{PAIRS} {side} done", file=sys.stderr)
    return runs


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Verdict and statistics for one workload x metric, by the rule above."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    worse = sign * (pm - cm) / abs(pm)
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if change_failed > parent_failed:
        verdict = "more-failures"
    elif wins >= WIN_SHARE * n and sign * (cm - pm) > p3 - p1:
        verdict = "gain"
    elif spread > bound:
        verdict = "better-every-run" if every_better else "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "within-bound"
    return verdict, {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
                     "pairs": n, "better_by": -worse, "spread": spread}


def table(runs: dict, spec: dict):
    rows = []
    for w in runs["parent"]:
        pr, cr = runs["parent"][w], runs["change"][w]
        pf, cf = sum(r["failed"] for r in pr), sum(r["failed"] for r in cr)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in pr]
            cv = [r["metrics"][name]["value"] for r in cr]
            verdict, st = judge(pv, cv, m["better"], m["bound"], pf, cf)
            rows.append((w, name, m["unit"], verdict, st))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = collect(args.parent, args.change, [w["name"] for w in spec["workloads"]],
                   spec["run_seconds"])

    print(f"{'workload':<11} {'metric':<12} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'wins':>6} {'better by':>9}  verdict")
    for w, name, unit, verdict, st in table(runs, spec):
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"{w:<11} {name:<12} {fmt(st['parent']) + ' ' + unit:>30} {fmt(st['change']) + ' ' + unit:>30} "
              f"{st['wins']:>3}/{st['pairs']:<2} {st['better_by']:>+9.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
