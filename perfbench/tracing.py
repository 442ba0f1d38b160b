"""Spans around entorder's public functions, installed from outside the package.

The traced run wraps every public function of the layer modules, and
every public method of their public classes, in a recorder. Each name is
patched in every entorder module that holds it (``from .families import
eval_p`` leaves a second reference in ``convertibility``), so calls are
caught whichever module makes them. Spans stay in memory as tuples with a
parent id; self time is a span's duration minus the durations of its
direct children. ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref

LAYERS = ("cli", "fileio", "families", "spectrum", "oscillation", "convertibility")

# eval_p points are attributed to the nearest enclosing span of these
EVAL_P_CONTEXTS = {
    "families.find_offset": "find_offset",
    "families.discretize": "discretize",
    "oscillation.probe_pair": "probe",
}

# span tuple fields
SID, PARENT, NAME, T0, T1, WORK, FAILED = range(7)


def _lines_in_file(s):
    """Line count of a spectrum's v1 file: header, metadata, weights."""
    meta = len(s.metadata) + (0 if s.is_exact else 1)
    return 1 + meta + s.length


def _eval_p_points(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return getattr(x, "size", 1)


def _verdict_decided(args, kwargs, result):
    return int(result.verdict.value != "Undecided")


def _per_r_decided(args, kwargs, result):
    return (sum(v.value != "Undecided" for _, v in result.per_r), len(result.per_r))


# work counted per span, by qualified name: f(args, kwargs, result) -> number
WORK_COUNTERS = {
    "families.eval_p": _eval_p_points,
    "oscillation.trend_flags": lambda a, k, r: len(a[0] if a else k["values"]),
    "oscillation.incomparability_certificate": lambda a, k, r: int(r is not None),
    "fileio.read_spectrum": lambda a, k, r: _lines_in_file(r),
    "fileio.write_spectrum": lambda a, k, r: _lines_in_file(a[0] if a else k["s"]),
    "fileio.emit_report": lambda a, k, r: len(r),
    "convertibility.slocc_decide": _verdict_decided,
    "convertibility.estimate_r_bounds": _per_r_decided,
}


class Tracer:
    """Records spans of wrapped entorder calls while ``recording`` is true."""

    def __init__(self):
        self.recording = False
        self.spans = []
        self._stack = []
        self._next_id = 1
        self._patches = []
        self._seen_spectra = {}

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer module; idempotent per tracer."""
        if self._patches:
            return
        modules = _entorder_modules()
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"entorder.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[obj] = f"{layer}.{name}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in vars(obj).items():
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            self._patch(obj, mname, self._wrap(meth, f"{layer}.{name}.{mname}"))
        wrappers = {fn: self._wrap(fn, qual) for fn, qual in originals.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, qual):
        work = WORK_COUNTERS.get(qual)
        if qual == "spectrum.tail_function":
            work = self._new_spectrum
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                n = work(args, kwargs, result) if (work and not failed) else 0
                tracer.spans.append((sid, parent, qual, t0, t1, n, failed))

        return wrapper

    def _new_spectrum(self, args, kwargs, result):
        """1 the first time tail_function sees a spectrum object, else 0."""
        s = args[0] if args else kwargs["s"]
        ref = self._seen_spectra.get(id(s))
        if ref is not None and ref() is s:
            return 0
        self._seen_spectra[id(s)] = weakref.ref(s)
        return 1

    def take(self):
        """Hand over the spans recorded so far; spectra count as new again."""
        spans, self.spans = self.spans, []
        self._seen_spectra = {}
        return spans


def _entorder_modules():
    pkg = importlib.import_module("entorder")
    return [pkg] + [m for n, m in sorted(sys.modules.items()) if n.startswith("entorder.") and m]


def snapshot():
    """Identity of every function reachable from entorder's modules and classes.

    Used to prove that ``uninstall`` restored the package exactly.
    """
    out = {}
    for mod in _entorder_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = id(obj)
            if inspect.isclass(obj) and obj.__module__.startswith("entorder"):
                for mname, meth in vars(obj).items():
                    out[(mod.__name__, attr, mname)] = id(meth)
    return out


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """{sid: duration minus direct children's durations}."""
    child = {}
    for s in spans:
        if s[PARENT]:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[T1] - s[T0])
    return {s[SID]: (s[T1] - s[T0]) - child.get(s[SID], 0.0) for s in spans}


def layer_metrics(spans, passes, op_wall_s):
    """Per-layer metrics over ``passes`` traced passes; counts and times are per pass.

    ``op_wall_s`` is the summed wall time of the traced ops, measured by the
    benchmark outside every wrapper; the root spans must account for it.
    Ratios are taken between per-pass figures, so they hold for the whole
    traced phase.
    """
    own = self_times(spans)
    by_sid = {s[SID]: s for s in spans}
    names = {}
    for s in spans:
        names.setdefault(s[NAME], []).append(s)

    def calls(q):
        return len(names.get(q, ())) / passes

    def total(q):
        return sum(s[T1] - s[T0] for s in names.get(q, ())) / passes

    def self_of(q):
        return sum(own[s[SID]] for s in names.get(q, ())) / passes

    def work(q):
        return sum(s[WORK] for s in names.get(q, ())) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        mine = [s for s in spans if s[NAME].split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = sum(own[s[SID]] for s in mine) / passes
        m[f"{layer}.errors"] = sum(s[FAILED] for s in mine) / passes

    # families
    points = dict.fromkeys([*EVAL_P_CONTEXTS.values(), "other"], 0)
    ctx_calls = dict.fromkeys(points, 0)
    for s in names.get("families.eval_p", ()):
        ctx, p = "other", s[PARENT]
        while p:
            up = by_sid[p]
            if up[NAME] in EVAL_P_CONTEXTS:
                ctx = EVAL_P_CONTEXTS[up[NAME]]
                break
            p = up[PARENT]
        points[ctx] += s[WORK]
        ctx_calls[ctx] += 1
    eval_points = work("families.eval_p")
    m["families.eval_p.calls"] = calls("families.eval_p")
    m["families.eval_p.points"] = eval_points
    m["families.eval_p.self_s"] = self_of("families.eval_p")
    m["families.eval_p.points_per_s"] = ratio(eval_points, total("families.eval_p"))
    m["families.eval_p.bytes_computed"] = 32 * eval_points  # p, p', p'' and x as float64
    for ctx, n in points.items():
        m[f"families.eval_p.points.{ctx}"] = n / passes
    m["families.find_offset.s"] = total("families.find_offset")
    m["families.discretize.s"] = total("families.discretize")
    probe_calls = calls("oscillation.probe_pair")
    m["families.eval_p.calls_per_probe"] = ratio(ctx_calls["probe"] / passes, probe_calls)

    # oscillation
    m["oscillation.probe_pair.calls"] = probe_calls
    m["oscillation.probe_pair.self_s"] = self_of("oscillation.probe_pair")
    m["oscillation.trend_flags.calls"] = calls("oscillation.trend_flags")
    m["oscillation.trend_flags.points"] = work("oscillation.trend_flags")
    m["oscillation.trend_flags.s"] = total("oscillation.trend_flags")
    m["oscillation.certify.s"] = total("oscillation.incomparability_certificate")
    m["oscillation.certify.found_frac"] = ratio(
        work("oscillation.incomparability_certificate"),
        calls("oscillation.incomparability_certificate"),
    )

    # spectrum
    m["spectrum.tail_function.calls"] = calls("spectrum.tail_function")
    m["spectrum.tail_function.s"] = total("spectrum.tail_function")
    m["spectrum.tail_function.calls_per_spectrum"] = ratio(
        calls("spectrum.tail_function"), work("spectrum.tail_function")
    )
    m["spectrum.make_spectrum.s"] = total("spectrum.make_spectrum")
    m["spectrum.vidal_conditions.s"] = total("spectrum.vidal_conditions")

    # fileio
    for short, q in (("read", "fileio.read_spectrum"), ("write", "fileio.write_spectrum")):
        m[f"fileio.{short}.calls"] = calls(q)
        m[f"fileio.{short}.lines"] = work(q)
        m[f"fileio.{short}.s"] = total(q)
        m[f"fileio.{short}.lines_per_s"] = ratio(work(q), total(q))
    m["fileio.emit_report.s"] = total("fileio.emit_report")
    m["fileio.report_bytes"] = work("fileio.emit_report")

    # convertibility
    m["convertibility.slocc_decide.calls"] = calls("convertibility.slocc_decide")
    m["convertibility.slocc_decide.self_s"] = self_of("convertibility.slocc_decide")
    m["convertibility.estimate_r_bounds.self_s"] = self_of("convertibility.estimate_r_bounds")
    m["convertibility.locc_prob.s"] = total("convertibility.locc_convertible") + total(
        "convertibility.max_probability"
    )
    per_r = [s[WORK] for s in names.get("convertibility.estimate_r_bounds", ())]
    decided = work("convertibility.slocc_decide") + sum(d for d, _ in per_r) / passes
    attempts = calls("convertibility.slocc_decide") + sum(n for _, n in per_r) / passes
    m["convertibility.decided_frac"] = ratio(decided, attempts)

    # cli
    m["cli.run.calls"] = calls("cli.run")
    m["cli.run.self_s"] = self_of("cli.run")

    attributed = sum(own.values())  # equals the root spans' total duration
    m["trace.spans"] = len(spans) / passes
    m["trace.unattributed_frac"] = ratio(op_wall_s - attributed, op_wall_s)
    return m
