"""Trend analytics for log-ratio sequences and oscillation certificates.

A comparison between two states reduces to the sequence
ell(n) = ln g_a(n) - ln g_b(n). Whether ell stays bounded below, falls
away, or swings unboundedly both ways decides convertibility. Finite
windows cannot prove limits, so everything here produces evidence with
explicit thresholds:

* windowed running-extreme drift tests (``trend_flags``), read over the
  one comparison window (``comparison_window``),
* record witnesses at targeted phases of the oscillating profile
  (``incomparability_certificate``), reaching indices far beyond any
  stored array via the analytic family forms carried in metadata.

A pair with a closed form also knows its limits exactly
(``PairRatio.exponents``), which the verdicts consult after this evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import families
from .errors import ParameterError, TruncationUnsafe, ValidationError, WindowTooSmall
from .families import PairRatio, pair_ratio
from .numutil import run_starts
from .spectrum import SchmidtSpectrum, safe_horizon


_MIN_WINDOWS = 3          # dyadic sub-windows that must extend the extreme

#: relative and absolute tolerance of a recomputed witness value
WITNESS_TOL = 1e-12


@dataclass(frozen=True)
class TrendThresholds:
    """Evidence thresholds for trend classification and witness search."""

    drift_nats: float = 5.0       # extreme must move this much over the 2nd half
    min_points: int = 64
    witness_step_nats: float = 1.0
    min_witnesses: int = 5

    def __post_init__(self):
        if not all(t > 0 for t in (self.drift_nats, self.min_points, self.witness_step_nats, self.min_witnesses)):
            raise ParameterError("thresholds must all be positive")
        if self.witness_step_nats < OscillationCertificate.MIN_STEP:
            raise ParameterError("witness step below one nat cannot form a certificate")
        if self.min_witnesses < OscillationCertificate.MIN_ENTRIES:
            raise ParameterError(f"a certificate needs at least {OscillationCertificate.MIN_ENTRIES} witnesses")


class TrendClass(Enum):
    BoundedBelow = "BoundedBelow"
    DivergesDown = "DivergesDown"
    DivergesUp = "DivergesUp"
    Oscillating = "Oscillating"
    Undecided = "Undecided"


@dataclass(frozen=True)
class TrendFlags:
    """Raw two-sided outcomes of the windowed drift tests."""

    down_div: bool
    up_div: bool
    min_stable: bool
    max_stable: bool

    def mirrored(self) -> TrendFlags:
        """Flags of the negated sequence: the two sides swap exactly."""
        return TrendFlags(self.up_div, self.down_div, self.max_stable, self.min_stable)

    def label(self) -> TrendClass:
        """Label the sequence by its running-extreme behaviour.

        Divergence labels require the extreme to move by ``drift_nats`` over
        the second half and to improve in three dyadic sub-windows;
        BoundedBelow requires the running minimum to move less than a
        quarter of that. Anything between is Undecided.
        """
        if self.down_div and self.up_div:
            return TrendClass.Oscillating
        if self.down_div:
            return TrendClass.DivergesDown
        if self.up_div:
            return TrendClass.DivergesUp
        if self.min_stable:
            return TrendClass.BoundedBelow
        return TrendClass.Undecided


@dataclass(frozen=True)
class OscillationCertificate:
    """Finite witness lists for limsup = +inf and liminf = -inf of ell.

    ``up_witnesses`` holds (index, value) pairs with strictly increasing
    indices and finite values, every value beating the previous by at
    least one nat; ``down_witnesses`` mirror this downward. Every index
    lies inside the inclusive ``window``. Values are natural-log ratio
    units, re-derivable from the two spectra.
    """

    up_witnesses: tuple
    down_witnesses: tuple
    window: tuple

    MIN_ENTRIES = 5
    MIN_STEP = 1.0 - 1e-9

    def __post_init__(self):
        object.__setattr__(self, "up_witnesses", tuple((int(n), float(v)) for n, v in self.up_witnesses))
        object.__setattr__(self, "down_witnesses", tuple((int(n), float(v)) for n, v in self.down_witnesses))
        for name, wit, sign in (("up", self.up_witnesses, 1.0), ("down", self.down_witnesses, -1.0)):
            if len(wit) < self.MIN_ENTRIES:
                raise ValueError(f"{name} witnesses: need at least {self.MIN_ENTRIES}")
            if not all(math.isfinite(v) for _, v in wit):  # NaN passes every comparison below
                raise ValueError(f"{name} witnesses: values must be finite")
            ns = [n for n, _ in wit]
            if any(b <= a for a, b in zip(ns, ns[1:])):
                raise ValueError(f"{name} witnesses: indices must strictly increase")
            if ns[0] < self.window[0] or ns[-1] > self.window[1]:
                raise ValueError(f"{name} witnesses: indices must lie inside the window {self.window}")
            vs = [sign * v for _, v in wit]
            if any(b - a < self.MIN_STEP for a, b in zip(vs, vs[1:])):
                raise ValueError(f"{name} witnesses: each entry must extend the extreme by >= 1 nat")

    def to_dict(self):
        return {
            "up_witnesses": [[n, v] for n, v in self.up_witnesses],
            "down_witnesses": [[n, v] for n, v in self.down_witnesses],
            "window": [self.window[0], self.window[1]],
        }


@dataclass(frozen=True)
class ComparisonWindow:
    """A pair resolved once: its window, stored ratio and oscillating closed form (or None).

    ``values`` is the stored ell(n) = ln g_a(n) - ln g_b(n) at ``ns``, the
    window clipped to both :func:`safe_horizon`; ``-inf`` where only g_a
    is zero, ``+inf`` where only g_b is (NaN where both are).
    """

    window: tuple
    ns: np.ndarray
    values: np.ndarray
    pair: PairRatio | None


def comparison_window(a: SchmidtSpectrum, b: SchmidtSpectrum, window=None) -> ComparisonWindow:
    """The one place a comparison picks its continuation and its window.

    The default window is the widest honest one: up to the closed form's
    float cap, or without one up to the nearer safe horizon. Raises
    :class:`ParameterError` on a negative or reversed window,
    :class:`TruncationUnsafe` past the horizon of a pair without one, and
    :class:`ValidationError` on grid steps :func:`pair_ratio` cannot resolve.
    """
    pair = pair_ratio(a, b)
    pair = pair if pair is not None and pair.oscillating else None
    horizon = min(safe_horizon(a), safe_horizon(b))
    if window is None:
        window = (0, pair.max_index() if pair else horizon)
    n_min, n_max = int(window[0]), int(window[1])
    if n_min < 0 or n_max < n_min:
        raise ParameterError(f"bad window {window}")
    if pair is None and n_max > horizon:
        raise TruncationUnsafe(
            f"window end {n_max} beyond the truncation-safe horizon {horizon} "
            "and the pair has no analytic continuation"
        )
    stop = min(n_max, horizon) + 1
    ns = np.arange(n_min, stop)
    with np.errstate(invalid="ignore"):  # -inf - -inf = NaN where both exact states have ended
        values = a.log_g[n_min:stop] - b.log_g[n_min:stop]
    return ComparisonWindow((n_min, n_max), ns, values, pair)


def trend_flags(values, thresholds: TrendThresholds) -> TrendFlags:
    """Two-sided drift tests on a sequence of ratio logs.

    The sequence's list positions define the dyadic structure, so callers
    control the index spacing (linear, geometric, ...) independently.
    Raises :class:`WindowTooSmall` on fewer than ``min_points`` values.
    """
    v = np.asarray(values, dtype=float)
    if v.size < thresholds.min_points:
        raise WindowTooSmall(f"{v.size} points < minimum {thresholds.min_points}")
    half = v.size // 2
    rmin = np.minimum.accumulate(v)
    rmax = np.maximum.accumulate(v)

    def _side(run):
        drift = float(run[-1] - run[half - 1])
        # count dyadic sub-windows [size/2^(j+1), size/2^j) where the
        # running extreme strictly improves
        improving = 0
        hi = v.size
        while hi >= 2:
            lo = hi // 2
            if abs(run[hi - 1] - run[lo - 1]) > 0.0:
                improving += 1
            hi = lo
        return drift, improving

    dmin, wmin = _side(rmin)
    dmax, wmax = _side(rmax)
    return TrendFlags(
        down_div=dmin <= -thresholds.drift_nats and wmin >= _MIN_WINDOWS,
        up_div=dmax >= thresholds.drift_nats and wmax >= _MIN_WINDOWS,
        min_stable=abs(dmin) < thresholds.drift_nats / 4.0,
        max_stable=abs(dmax) < thresholds.drift_nats / 4.0,
    )


# ---------------------------------------------------------------------------
# targeted probing


@dataclass(frozen=True)
class ProbeReport:
    """Candidate extremes and derived record lists for one ordered pair.

    ``up_env_gain`` is how far the top candidate envelope rises above its
    first value (and ``down_env_drop`` how far the bottom one falls): a
    bounded ratio keeps both small even when a single deep rebound
    produces a second record entry.
    """

    up_records: tuple
    down_records: tuple
    up_env_gain: float = 0.0
    down_env_drop: float = 0.0


def _collect_records(ns, vs, step, sign):
    """Monotone record subsequence with per-entry gain >= step, as (int index, value) pairs.

    ``ns`` and ``vs`` are the candidates' index and value arrays, in
    index order. ``sign`` +1 builds rising records from local maxima, -1
    falling ones from local minima. While only the anchor exists it is
    replaced by any better (lower for +1 / higher for -1) candidate, so
    record runs start from the most extreme early value available.
    """
    records = []  # (position, value)
    for i, v in enumerate(vs.tolist()):
        s = sign * v
        if not records:
            records.append((i, v))
        elif len(records) == 1 and s < sign * records[0][1]:
            records[0] = (i, v)
        elif s >= sign * records[-1][1] + step:
            records.append((i, v))
    return tuple((int(ns[i]), v) for i, v in records)  # float indices reach 1e304: exact as Python ints


_PHASES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
_MAX_NEIGHBORHOOD = 20000


def _one_per_index(ns_parts, vs_parts):
    """The concatenated (indices, values) parts, one entry per distinct index, in index order.

    Each distinct float index was evaluated once and so has one value,
    which makes this the ``sorted(set(...))`` of the (index, value) pairs.
    """
    ns = np.concatenate([np.empty(0), *ns_parts])
    order = np.argsort(ns, kind="stable")  # the first of equal indices leads its run
    first = order[run_starts(ns[order])]
    return ns[first], np.concatenate([np.empty(0), *vs_parts])[first]


def _analytic_candidates(pair: PairRatio, n_min, n_max):
    """Local extremes of ell near every phase target of the profile.

    Targets sit where sin(ln y) crosses its extremes and zeros; each one
    is refined by scanning the integer grid inside a radius wide enough
    to cover the phase misalignment from differing offsets, in groups
    of about ``families.EVAL_BLOCK`` points per evaluation of the closed
    form, which sees each distinct float index of a group once. Returns
    the maxima, then the minima, each as float arrays (indices, values)
    with one entry per distinct index, in index order.
    """
    delta = pair.delta
    a_ref = max(pair.max_offset, 1.0)
    lo = max(n_min, 1)
    L_hi = math.log(delta * n_max + a_ref)
    L_lo = math.log(delta * lo + a_ref)
    targets = []
    for base in _PHASES:
        p = max(0, math.ceil((L_lo - base) / (2 * math.pi)))
        L = base + 2 * math.pi * p
        while L <= L_hi:
            targets.append(L)
            L += 2 * math.pi
    targets.sort()
    radius = min(int(math.ceil((math.pi + pair.offset_gap) / delta)) + 1, _MAX_NEIGHBORHOOD)

    # Each neighbourhood [start, stop] is sampled as np.arange(start, stop + 1,
    # dtype=float) fills it, float(start) + i * (float(start + 1) - float(start)):
    # past 2**53 that fill decides which indices are sampled, and that must not
    # change. n0 = round((e^L - a_ref) / delta) is an exact integer as a float.
    n0 = np.rint((np.array([math.exp(L) for L in targets]) - a_ref) / delta)
    # n0 in [lo + radius, n_max - radius] leaves a neighbourhood unclipped; as floats,
    # these bounds round inward, so the comparisons below are exact
    inner_lo, inner_hi = float(lo + radius), float(n_max - radius)
    if inner_lo < lo + radius:
        inner_lo = math.nextafter(inner_lo, math.inf)
    if inner_hi > n_max - radius:
        inner_hi = math.nextafter(inner_hi, -math.inf)
    start = n0 - radius  # one rounding of the exact n0 - radius, as float() makes it
    step = (n0 - (radius - 1)) - start
    size = np.full(n0.size, 2 * radius + 1)
    for i in np.flatnonzero((n0 < inner_lo) | (n0 > inner_hi)).tolist():  # clipped: in exact ints
        c = max(lo, min(int(n0[i]), n_max))
        s, e = max(lo, c - radius), min(n_max, c + radius)
        start[i], step[i], size[i] = float(s), float(s + 1) - float(s), e - s + 1

    found = ([], []), ([], [])  # index and value parts of the maxima, then of the minima
    per = max(1, families.EVAL_BLOCK // (2 * radius + 1))
    for g in range(0, len(targets), per):
        sizes = size[g:g + per]
        starts = np.cumsum(sizes) - sizes
        j = np.arange(starts[-1] + sizes[-1]) - np.repeat(starts, sizes)  # position in its neighbourhood
        ns = np.repeat(start[g:g + per], sizes) + j * np.repeat(step[g:g + per], sizes)
        order = np.argsort(ns, kind="stable")
        first = run_starts(ns[order])
        back = np.empty(ns.size, dtype=np.intp)
        back[order] = np.cumsum(first) - 1  # the position of each index among the distinct ones
        vs = pair.values(ns[order[first]])[back]
        for reduce, (ns_found, vs_found) in zip((np.maximum, np.minimum), found):
            # first index equal to each neighbourhood's extreme, as argmax/argmin
            # pick it (a NaN is the extreme once present, as there too)
            extreme = np.repeat(reduce.reduceat(vs, starts), sizes)
            at = np.flatnonzero((vs == extreme) | np.isnan(vs))
            first = at[np.searchsorted(at, starts)]
            ns_found.append(ns[first])
            vs_found.append(vs[first])
    return tuple(_one_per_index(*parts) for parts in found)


def _materialized_candidates(ns, values):
    """Interior local extrema plus endpoints of a stored window, as (indices, values)."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        idx = np.arange(v.size)
    else:
        left = v[1:-1] - v[:-2]
        right = v[1:-1] - v[2:]
        interior = 1 + np.nonzero((left >= 0) & (right >= 0) | ((left <= 0) & (right <= 0)))[0]
        idx = np.concatenate(([0], interior, [v.size - 1]))  # increasing: interior lies in [1, size - 2]
    return ns[idx], v[idx]


def probe_pair(cw: ComparisonWindow, thresholds: TrendThresholds) -> ProbeReport:
    """Witness candidates for ell = ln g_a - ln g_b over a comparison window.

    Uses the pair's closed form when it has one (reaching indices far
    past the stored horizon); otherwise falls back to the local extremes
    of the stored ratio.
    """
    (n_min, n_max), pair = cw.window, cw.pair
    if pair is not None:
        (up_ns, up_vs), (down_ns, down_vs) = _analytic_candidates(pair, n_min, min(n_max, pair.max_index()))
    else:
        finite = np.isfinite(cw.values)
        (up_ns, up_vs) = (down_ns, down_vs) = _materialized_candidates(cw.ns[finite], cw.values[finite])

    step = thresholds.witness_step_nats
    ups = _collect_records(up_ns, up_vs, step, +1.0)
    downs = _collect_records(down_ns, down_vs, step, -1.0)
    # Python max and min: unlike np.max they skip a NaN after the first value
    up_vals, down_vals = up_vs.tolist(), down_vs.tolist()
    up_gain = max(up_vals) - up_vals[0] if up_vals else 0.0
    down_drop = down_vals[0] - min(down_vals) if down_vals else 0.0
    return ProbeReport(ups, downs, float(up_gain), float(down_drop))


def incomparability_certificate(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    window=None,
    thresholds: TrendThresholds | None = None,
) -> OscillationCertificate | None:
    """Search for record witnesses of limsup = +inf and liminf = 0.

    Up-witnesses chase indices where the oscillating profile peaks
    (sin(ln y) = 1), down-witnesses its floors (sin(ln y) = -1), both
    refined over nearby grid indices. Returns None when either list
    cannot reach ``min_witnesses`` entries of ``witness_step_nats``
    gains, e.g. for monotone ratios or identical states.
    """
    thresholds = thresholds or TrendThresholds()
    cw = comparison_window(a, b, window)
    return certificate_from_probe(probe_pair(cw, thresholds), cw.window, thresholds)


def certificate_from_probe(
    probe: ProbeReport, window, thresholds: TrendThresholds
) -> OscillationCertificate | None:
    """Certificate of a probe's record lists when both reach ``min_witnesses``."""
    m = thresholds.min_witnesses
    if len(probe.up_records) >= m and len(probe.down_records) >= m:
        return OscillationCertificate(
            probe.up_records, probe.down_records, (int(window[0]), int(window[1]))
        )
    return None


def verify_certificate(cert: OscillationCertificate, a: SchmidtSpectrum, b: SchmidtSpectrum):
    """Recompute every witness value from the two spectra.

    The certificate's window is resolved by :func:`comparison_window`, so
    a pair without closed form must be stored over all of it. Raises
    ValueError on such a window, on metadata that misdescribes a stored
    tail, and on any mismatch beyond ``WITNESS_TOL``.
    """
    try:
        cw = comparison_window(a, b, cert.window)
    except (TruncationUnsafe, ValidationError) as exc:
        raise ValueError(f"certificate window cannot be resolved: {exc}") from exc
    for name, wit in (("up", cert.up_witnesses), ("down", cert.down_witnesses)):
        for n, v in wit:
            if cw.pair is not None:
                got = float(cw.pair.values(np.array([float(n)]))[0])
            else:
                got = float(cw.values[n - cw.window[0]])
            if not math.isclose(got, v, rel_tol=WITNESS_TOL, abs_tol=WITNESS_TOL):
                raise ValueError(f"{name} witness at {n}: stated {v!r}, recomputed {got!r}")
    return True
