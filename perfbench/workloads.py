"""The benchmark's three workloads, each a fixed list of ops per pass.

An op is one CLI invocation through the in-process ``entorder.cli.run``,
or one r step of ``estimate_r_bounds``. Ops run back to back in one
thread (a closed loop). Each op is timed alone; its output is checked
after the clock stops, and every report must match the first pass byte
for byte. The seed changes input values only, never input sizes.

Outside a traced pass, a short reference loop that never calls entorder
is timed right before each op and at the end of the pass, outside the
ops' clocks, so the run can scale op times by the machine's speed at
that moment. Each workload uses the loop whose work is most like its
own ops'.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

import entorder as eo
from entorder import cli


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the seed never changes them."""

    ladder_n: int = 10000
    member_n: int = 10000
    tmss_n: int = 200000
    ranks: tuple = (10, 100, 10000, 10000, 100000)
    min_ops: int = 100  # enough for a p90 with ten samples beyond it


FULL = Sizes()
# small enough for the self-tests; the checks still hold at these sizes
TINY = Sizes(ladder_n=2000, member_n=2000, tmss_n=5000,
             ranks=(10, 100, 300, 300, 2000), min_ops=1)

# the seed draws the grid step from this range; seed 0 keeps the paper's 1.0.
# Generation scans delta * (n + 1) of the profile, so its work grows with
# delta: a narrow range keeps the work of every seed the same.
DELTA_RANGE = (0.99, 1.01)
K_LADDER = range(5)
R_STEPS = 21
# exact-spectrum pairs (indices into Sizes.ranks): smaller into larger,
# equal ranks and larger into smaller, so locc, prob and rank verdicts all
# vary. With these 9 ops a `stored` pass has 16, and both percentiles fall
# inside a group of equal-cost ops rather than between two groups: the
# p50 among the three rank-1e5 compares, the p90 between the two gen ops.
EXACT_PAIRS = ((0, 1), (2, 3), (4, 2))
_SORT_DATA = np.random.default_rng(0).random(20000)
_TEXT_DATA = np.random.default_rng(1).random(3000)


@dataclass(frozen=True)
class OpResult:
    key: str  # which op of the pass
    seconds: float
    problem: str | None = None  # None: the op returned and its output checked out
    slowness: float | None = None  # machine_slowness around the op (see run_pass); None when traced


def draw_delta(seed: int) -> float:
    if seed == 0:
        return 1.0
    return float(np.random.default_rng(seed).uniform(*DELTA_RANGE))


def _compute_loop():
    """Interpreter arithmetic and a numpy sort, like generation and probing."""
    acc = 0
    for i in range(20000):
        acc += i * i
    np.sort(_SORT_DATA)


def _text_loop():
    """Floats formatted and parsed as text, like writing and reading spectrum files."""
    text = "\n".join([repr(float(v)) for v in _TEXT_DATA])
    [float(line) for line in text.split("\n")]


# reference loops with their nominal times, close to their median times
# on the baseline machine
REFERENCES = {"compute": (_compute_loop, 2e-3), "text": (_text_loop, 4e-3)}


def machine_slowness(kind: str) -> float:
    """Time of a reference loop over its nominal time: above 1 while the machine runs slow."""
    loop, nominal = REFERENCES[kind]
    t0 = time.perf_counter()
    loop()
    return (time.perf_counter() - t0) / nominal


def _timed(tracer, fn):
    """Run fn with spans recorded (when traced); return (start, end, result or exception)."""
    if tracer is not None:
        tracer.recording = True
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        out = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.recording = False
    return t0, t1, out


class Workload:
    name = ""
    reference = "compute"  # the REFERENCES loop that scales this workload's times

    def __init__(self, seed: int, sizes: Sizes = FULL):
        self.seed = seed
        self.sizes = sizes
        self._first = {}

    def setup(self, workdir) -> None:
        """Build the seeded inputs in workdir (timed as set-up)."""
        raise NotImplementedError

    def run_pass(self, tracer=None) -> list:
        """One pass of ops, in order.

        Untraced, an op's slowness is the mean of the readings taken right
        before it and right after it (before the next op, or at the end of
        the pass), so it covers the op's whole time, not only its start.
        """
        ops = self._pass(tracer)
        if tracer is not None:
            return ops
        after = [op.slowness for op in ops[1:]] + [self.slowness()]
        return [replace(op, slowness=(op.slowness + a) / 2) for op, a in zip(ops, after)]

    def _pass(self, tracer) -> list:
        """The pass's ops, each with the slowness read right before it when untraced."""
        raise NotImplementedError

    @classmethod
    def slowness(cls) -> float:
        return machine_slowness(cls.reference)

    def _cli(self, tracer, key, argv):
        """One CLI op; returns (OpResult without its checks, stdout)."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.run(argv)

        slowness = self.slowness() if tracer is None else None
        t0, t1, rc = _timed(tracer, call)
        problem = None
        if isinstance(rc, Exception):
            problem = f"{argv[0]} raised {rc!r}"
        elif rc != 0:
            problem = f"{' '.join(argv)} exited {rc}: {err.getvalue().strip()}"
        return OpResult(key, t1 - t0, problem, slowness), out.getvalue()

    def _same_as_first(self, key, payload):
        """Problem text when payload differs from the first pass's bytes."""
        ref = self._first.setdefault(key, payload)
        return None if ref == payload else f"{key}: output differs from the first pass"

    def _op(self, tracer, key, argv, check):
        """Run a CLI op, check its report, compare bytes with the first pass.

        Returns the op's result and its parsed report (None if the op failed).
        """
        res, out = self._cli(tracer, key, argv)
        problem, rep = res.problem, None
        if problem is None:
            try:
                rep = json.loads(out)
                problem = check(rep)
            except Exception as exc:  # a malformed report is a failed op
                problem = f"{key}: check raised {exc!r}"
        if problem is None:
            problem = self._same_as_first(key, out)
        return replace(res, problem=problem), (rep if problem is None else None)

    def _gen(self, tracer, key, argv, path):
        res, _ = self._cli(tracer, key, argv)
        if res.problem is None:
            res = replace(res, problem=self._same_as_first(key, path.read_bytes()))
        return res


def _validate_check(rep):
    if rep["conditions"]["all_pass"] is not True:
        return f"conditions fail: {rep['conditions']}"
    return None


class Ladder(Workload):
    """gen psi k=0..4, validate each, then certify and slocc-compare all 10 pairs."""

    name = "ladder"

    def setup(self, workdir):
        self.delta = draw_delta(self.seed)
        self.paths = {k: workdir / f"psi{k}.spec" for k in K_LADDER}

    def _pass(self, tracer):
        res = []
        for k, path in self.paths.items():
            argv = ["gen", "psi", "--k", str(k), "--n", str(self.sizes.ladder_n),
                    "--delta", repr(self.delta), "-o", str(path)]
            res.append(self._gen(tracer, f"gen{k}", argv, path))
        for k, path in self.paths.items():
            res.append(self._op(tracer, f"validate{k}", ["validate", str(path)], _validate_check)[0])
        spectra = {}
        for k, path in self.paths.items():
            try:
                spectra[k] = eo.read_spectrum(path)
            except (eo.EntOrderError, OSError):
                spectra[k] = None  # the certify checks below then fail
        for k in K_LADDER:
            for l in range(k):
                a, b = str(self.paths[k]), str(self.paths[l])
                check = lambda rep, k=k, l=l: _certificate_check(rep, spectra[k], spectra[l])
                res.append(self._op(tracer, f"certify{k}{l}", ["certify", a, b], check)[0])
                res.append(self._op(tracer, f"compare{k}{l}", ["compare", a, b, "--mode", "slocc"],
                                    lambda rep: _verdict_check(rep, "Incomparable"))[0])
        return res


def _certificate_check(rep, a, b):
    if rep["found"] is not True:
        return "no certificate found"
    cert = rep["certificate"]
    for side, sign in (("up_witnesses", 1.0), ("down_witnesses", -1.0)):
        wit = cert[side]
        if len(wit) < 5:
            return f"{side}: {len(wit)} < 5"
        vals = [v for _, v in wit]
        if any(sign * (y - x) < 1.0 - 1e-9 for x, y in zip(vals, vals[1:])):
            return f"{side}: a step below one nat"
    if a is None or b is None:
        return "ladder file unreadable"
    try:
        eo.verify_certificate(
            eo.OscillationCertificate(cert["up_witnesses"], cert["down_witnesses"], tuple(cert["window"])),
            a, b,
        )
    except ValueError as exc:
        return f"verify_certificate: {exc}"
    return None


def _verdict_check(rep, want):
    return None if rep["verdict"] == want else f"verdict {rep['verdict']}, expected {want}"


class EstimateR(Workload):
    """estimate_r_bounds of a squeezed state against xi members; one op per r step."""

    name = "estimate-r"

    def setup(self, workdir):
        self.delta = draw_delta(self.seed)
        self.psi = eo.tmss(math.exp(-self.delta / 2), self.sizes.member_n)

    def _pass(self, tracer):
        # members use the file's own grid step, exactly as the CLI does: the
        # nominal delta can differ from -2 ln q in the last bit
        delta_file = self.psi.metadata["delta"]
        n = self.sizes.member_n
        marks, slowness, gaps = [], [], []

        def member(r):
            marks.append(time.perf_counter())
            if tracer is None:
                slowness.append(self.slowness())
                gaps.append(time.perf_counter() - marks[-1])
            return eo.xi_state(r, delta_file, n)

        t0, t1, est = _timed(tracer, lambda: eo.estimate_r_bounds(self.psi, member, 1.0, 2.0, R_STEPS))
        if isinstance(est, Exception):
            slow = self.slowness() if tracer is None else None
            return [OpResult(f"r{i}", (t1 - t0) / R_STEPS, f"estimate_r_bounds raised {est!r}", slow)
                    for i in range(R_STEPS)]
        # op i runs from the i-th member request to the next, less the
        # reference loop timed at its start; the first op also holds the
        # call's own start-up, the last its summing-up
        bounds = [t0] + marks[1:] + [t1]
        slowness = slowness or [None] * len(est.per_r)
        gaps = gaps or [0.0] * len(est.per_r)
        res = []
        for i, (r, verdict) in enumerate(est.per_r):
            problem = None
            if 1.0 < r < 2.0 and verdict.value != "Incomparable":
                problem = f"r={r}: {verdict.value}, expected Incomparable"
            res.append(OpResult(f"r{i}", bounds[i + 1] - bounds[i] - gaps[i], problem, slowness[i]))
        last = None
        if not (1.0 <= est.r_minus < 1.05):
            last = f"r_minus {est.r_minus} outside [1, 1.05)"
        elif not (1.95 < est.r_plus <= 2.0):
            last = f"r_plus {est.r_plus} outside (1.95, 2]"
        else:
            last = self._same_as_first("estimate", eo.emit_report(est.to_dict()))
        if last is not None:
            res[-1] = replace(res[-1], problem=last)
        return res


def oracle_probability(wa, wb) -> float:
    """Max conversion probability from linear-domain tail sums (extended precision)."""
    wa = np.asarray(wa, dtype=np.longdouble)
    wb = np.asarray(wb, dtype=np.longdouble)
    n = max(wa.size, wb.size)
    ta = np.zeros(n, dtype=np.longdouble)
    tb = np.zeros(n, dtype=np.longdouble)
    ta[: wa.size] = np.cumsum(wa[::-1])[::-1]
    tb[: wb.size] = np.cumsum(wb[::-1])[::-1]
    support = tb > 0
    if np.any(ta[support] == 0):
        return 0.0
    return float(min(1.0, np.min(ta[support] / tb[support])))


def random_weights(rng, rank):
    w = np.sort(rng.random(rank) + 1e-3)[::-1]
    return w / w.sum()


class Stored(Workload):
    """Large squeezed-state files and exact finite-rank pairs: no analytic probing."""

    name = "stored"
    reference = "text"

    def setup(self, workdir):
        rng = np.random.default_rng(self.seed)
        # different grids, so the pair is compared on the stored window only
        self.q = {"A": float(rng.uniform(0.55, 0.65)), "B": float(rng.uniform(0.35, 0.45))}
        self.tmss_paths = {x: workdir / f"tmss{x}.spec" for x in self.q}
        self.weights = [random_weights(rng, r) for r in self.sizes.ranks]
        self.exact_paths = [workdir / f"exact{i}.spec" for i in range(len(self.weights))]
        for w, path in zip(self.weights, self.exact_paths):
            eo.write_spectrum(eo.build_spectrum(w), path)
        self._oracle = {}

    def _pass(self, tracer):
        res = []
        for x, path in self.tmss_paths.items():
            argv = ["gen", "tmss", "--q", repr(self.q[x]), "--n", str(self.sizes.tmss_n), "-o", str(path)]
            res.append(self._gen(tracer, f"gen{x}", argv, path))
        for x, path in self.tmss_paths.items():
            res.append(self._op(tracer, f"validate{x}", ["validate", str(path)], _validate_check)[0])
        for x, path in self.tmss_paths.items():
            check = lambda rep, q=self.q[x]: _tmss_info_check(rep, q)
            res.append(self._op(tracer, f"info{x}", ["info", str(path)], check)[0])
        a, b = (str(p) for p in self.tmss_paths.values())
        res.append(self._op(tracer, "compareAB", ["compare", a, b, "--mode", "slocc"],
                            lambda rep: _verdict_check(rep, "OneWayAtoB"))[0])

        for i, j in EXACT_PAIRS:
            p = self._oracle.get((i, j))
            if p is None:
                p = self._oracle[(i, j)] = oracle_probability(self.weights[i], self.weights[j])
            a, b = str(self.exact_paths[i]), str(self.exact_paths[j])
            key = f"exact{i}{j}"
            r, rep = self._op(tracer, key + "locc", ["compare", a, b, "--mode", "locc"],
                              lambda rep: _locc_check(rep, p))
            res.append(r)
            locc = rep["convertible"] if rep else None
            res.append(self._op(tracer, key + "prob", ["compare", a, b, "--mode", "prob"],
                                lambda rep: _prob_check(rep["probability"], p, locc))[0])
            want = _rank_verdict(self.sizes.ranks[i], self.sizes.ranks[j])
            res.append(self._op(tracer, key + "slocc", ["compare", a, b, "--mode", "slocc"],
                                lambda rep: _verdict_check(rep, want)
                                or _prob_check(rep["probability"], p, locc))[0])
        return res


def _tmss_info_check(rep, q):
    want = q * q / (1.0 - q * q)
    got = rep["stats"]["mean_excitation"]
    if abs(got - want) > 1e-9 * want:
        return f"mean excitation {got}, expected {want}"
    return None


def _locc_check(rep, p):
    if rep["convertible"] not in (True, False):
        return f"locc verdict {rep['convertible']!r} is not a bool"
    if rep["convertible"] and p < 1.0 - 1e-12:
        return f"locc holds but the oracle gives p={p}"
    return None


def _prob_check(got, p, locc):
    if abs(got - p) > 1e-12:
        return f"probability {got} differs from the oracle {p}"
    if (got == 1.0) != locc:
        return f"probability {got} but locc {locc}"
    return None


def _rank_verdict(ra, rb):
    if ra == rb:
        return "TwoWay"
    return "OneWayAtoB" if ra > rb else "OneWayBtoA"


WORKLOADS = {w.name: w for w in (Ladder, EstimateR, Stored)}
