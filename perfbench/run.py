"""Benchmark of entorder: one workload per process, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

``--trace 0`` times whole passes of ops with no instrumentation and prints
the end-to-end metrics, every time scaled to the machine's speed of the
moment (see ``scaled``). ``--trace 1`` spends half the time untraced and
half with every public entorder function wrapped (see ``tracing.py``) and
prints the per-layer metrics. Either way the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is the run's record (environment, sample counts, first
failures).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MAX_MEASURE_S = 120.0  # stop starting passes here, so a run ends within 180 s
MAX_UNATTRIBUTED = 0.05  # share of traced op time that root spans may miss

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics

_IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import entorder\n"
    "print(time.perf_counter() - t)\n"
)


def _pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _import_entorder(src: Path):
    """Import entorder from src and only from there; return the import time."""
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import entorder
    seconds = time.perf_counter() - t0
    where = Path(entorder.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"entorder imported from {where}, not from {src}")
    return seconds


def _child_import_seconds(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _IMPORT_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def scaled(seconds, slowness):
    """Seconds at the reference loop's nominal speed (``workloads.machine_slowness``).

    The vCPUs of a shared host change speed by up to 1.6x for seconds to
    minutes at a time, much alike for the program and a loop of similar
    work, so the ratio of the two holds still where each alone drifts.
    """
    return seconds / slowness


def build_seconds(make, workdir: Path):
    """Build one workload's seeded inputs in a fresh directory; (seconds, workload)."""
    workdir.mkdir()
    wl = make()
    t0 = time.perf_counter()
    wl.setup(workdir)
    return time.perf_counter() - t0, wl


class SetupSampler:
    """Set-up samples (import entorder + build the inputs) spread through a run.

    The first sample uses this process's own import and keeps its
    workload for the run; each later one imports in a fresh interpreter
    and builds into a directory that is removed again. Sampling between
    passes, rather than in one burst at the start, lets the median span
    the same stretch of time as the op metrics. Each sample is scaled by
    the reference loop timed right before it.
    """

    def __init__(self, cls, seed, sizes, workdir: Path, src: Path, first_import_s: float):
        self.make = lambda: cls(seed, sizes)
        self.slowness, self.workdir, self.src = cls.slowness, workdir, src
        slowness = self.slowness()
        build_s, self.workload = build_seconds(self.make, workdir / "setup0")
        self.samples = [scaled(first_import_s + build_s, slowness)]

    def sample(self):
        d = self.workdir / f"setup{len(self.samples)}"
        slowness = self.slowness()
        import_s = _child_import_seconds(self.src)
        build_s, _ = build_seconds(self.make, d)
        shutil.rmtree(d)
        self.samples.append(scaled(import_s + build_s, slowness))


def measure(wl, seconds, min_ops, tracer=None, on_pass=None, limit=MAX_MEASURE_S):
    """Whole passes until both `seconds` and `min_ops` are reached; list of passes."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass(tracer))
        if on_pass is not None:
            on_pass()
        elapsed = time.perf_counter() - t0
        ops = sum(map(len, passes))
        if (elapsed >= seconds and ops >= min_ops) or elapsed >= limit:
            return passes


def _flat(passes):
    return [op for p in passes for op in p]


def ops_per_s(times):
    """Median over passes of ops per second of op time; times holds one list per pass."""
    return statistics.median(len(t) / sum(t) for t in times)


def _raw(passes):
    return [[op.seconds for op in p] for p in passes]


def end_to_end(passes, setup_s):
    times = [[scaled(op.seconds, op.slowness) for op in p] for p in passes]
    lat = sorted(t for p in times for t in p)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    attempted = len(lat)
    failed = sum(op.problem is not None for op in _flat(passes))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(times),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }


def traced(wl, seconds):
    """Half the time untraced, half traced; returns (all passes, per-layer metrics)."""
    import tracing

    limit = MAX_MEASURE_S / 2.0
    plain = measure(wl, seconds / 2.0, 1, limit=limit)
    tracer = tracing.Tracer()
    spans = []
    tracer.install()
    try:
        passes = measure(wl, seconds / 2.0, 1, tracer, lambda: spans.extend(tracer.take()), limit)
    finally:
        tracer.uninstall()
    wall = sum(op.seconds for op in _flat(passes))
    m = tracing.layer_metrics(spans, len(passes), wall)
    m["trace.slowdown"] = ops_per_s(_raw(plain)) / ops_per_s(_raw(passes))
    return plain + passes, m


def _median_by_key(ops):
    by_key = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op.seconds)
    return {k: statistics.median(v) * 1e3 for k, v in by_key.items()}


def environment(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(ROOT),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds, trace, src: Path, import_s, sizes=None):
    """One benchmark run; returns (record, result) as printed by main.

    ``import_s`` is this process's own entorder import time, the first
    set-up sample.
    """
    import workloads

    sizes = sizes or workloads.FULL
    cls = workloads.WORKLOADS[workload]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_work"))
    try:
        setup = SetupSampler(cls, seed, sizes, workdir, src, import_s)
        if trace:
            passes, values = traced(setup.workload, seconds)
        else:
            passes = measure(setup.workload, seconds, sizes.min_ops, on_pass=setup.sample)
            values = end_to_end(passes, statistics.median(setup.samples))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            workdir.parent.rmdir()

    declared = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        odd = sorted(set(values) ^ set(units))
        raise ValueError(f"metrics {odd} are measured but not in {SPEC.name}, or the other way round")
    ops = _flat(passes)
    slowness = [op.slowness for op in ops if op.slowness is not None]
    problems = [op.problem for op in ops if op.problem is not None]
    correct = not problems
    if trace and values["trace.unattributed_frac"] > MAX_UNATTRIBUTED:
        correct = False
        problems.append(f"root spans miss {values['trace.unattributed_frac']:.1%} of traced op time")
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed),
        "samples": {"passes": len(passes), "ops": len(ops), "setup": len(setup.samples)},
        "setup_samples_s": setup.samples,
        "op_median_ms": _median_by_key(ops),  # wall-clock, not scaled
        "slowness_median": statistics.median(slowness) if slowness else None,
        "problems": problems[:5],
    }
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(op.problem is not None for op in ops),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "estimate-r", "stored"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="entorder source tree to measure (default: this checkout's src)")
    args = parser.parse_args(argv)

    _pin_threads()
    try:
        import_s = _import_entorder(args.src)
    except ImportError as exc:
        print(f"cannot import entorder from {args.src}: {exc}", file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, args.trace, args.src, import_s)
    for p in record["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
