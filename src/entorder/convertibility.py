"""Convertibility decisions: majorization, conversion probability, ratio evidence.

Deterministic conversion of pure bipartite states is majorization of the
Schmidt weights; stochastic single-copy conversion is governed by the
ratio of tail functions. Finite data cannot prove a liminf, so the
stochastic verdicts here are evidence-based with an explicit Undecided
state: convertibility is asserted only when the windowed running minimum
provably stabilizes and nothing beyond the window contradicts it, and
non-convertibility only on hard rank facts, certified drift, record
witnesses, or the sign of a closed-form pair's asymptotic exponent.
One rule walk (``_rule_walk``) grades both directions of every pair,
exact ones included, over its one comparison window, in the order rank,
trend, witnesses, asymptotic, stable-minimum or stable-maximum,
insufficient. ``slocc_decide`` reports its grades; a family bracket
(``estimate_r_bounds``) reads only the two directions per member and
lets exponents lo < 0 < hi settle both before any trend test or probe
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidFamily, ParameterError, TruncationUnsafe, WindowTooSmall
from .families import pair_ratio  # noqa: F401  (perfbench's tracer test expects this module's name)
from .numutil import FLOAT_MAX, LOG_FLOAT_MAX, NEG_INF, run_starts
from .oscillation import (
    ComparisonWindow,
    OscillationCertificate,
    TrendClass,
    TrendThresholds,
    certificate_from_probe,
    comparison_window,
    probe_pair,
    trend_flags,
)
from .spectrum import SchmidtSpectrum, safe_horizon


class Verdict(Enum):
    TwoWay = "TwoWay"
    OneWayAtoB = "OneWayAtoB"
    OneWayBtoA = "OneWayBtoA"
    Incomparable = "Incomparable"
    Undecided = "Undecided"


class _Ev(Enum):
    YES = "yes"
    NO = "no"
    UND = "undecided"


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of a stochastic-convertibility comparison."""

    verdict: Verdict
    log_epsilon_a_to_b: float
    log_epsilon_b_to_a: float
    window: tuple
    trend_forward: TrendClass | None
    trend_reverse: TrendClass | None
    witnesses: OscillationCertificate | None = None
    probability: float | None = None
    evidence: dict | None = None

    @property
    def epsilon_a_to_b(self) -> float:
        return _safe_exp(self.log_epsilon_a_to_b)

    @property
    def epsilon_b_to_a(self) -> float:
        return _safe_exp(self.log_epsilon_b_to_a)

    def to_dict(self):
        # ln 0 = -inf has no JSON form: a zero epsilon logs as null
        return {
            "verdict": self.verdict.value,
            "epsilon": {
                "a_to_b": self.epsilon_a_to_b,
                "b_to_a": self.epsilon_b_to_a,
                "log_a_to_b": None if self.log_epsilon_a_to_b == NEG_INF else self.log_epsilon_a_to_b,
                "log_b_to_a": None if self.log_epsilon_b_to_a == NEG_INF else self.log_epsilon_b_to_a,
            },
            "window": [int(self.window[0]), int(self.window[1])],
            "trend": {
                "forward": self.trend_forward.value if self.trend_forward else None,
                "reverse": self.trend_reverse.value if self.trend_reverse else None,
            },
            "witnesses": self.witnesses.to_dict() if self.witnesses else None,
            "probability": self.probability,
            "evidence": self.evidence or {},
        }


def _safe_exp(x: float) -> float:
    if x == NEG_INF:
        return 0.0
    if x > LOG_FLOAT_MAX:
        return FLOAT_MAX
    return math.exp(x)


def _require_exact(a: SchmidtSpectrum, b: SchmidtSpectrum, what: str):
    if not (a.is_exact and b.is_exact):
        raise TruncationUnsafe(
            f"{what} needs exact finite-rank spectra; a certified tail can flip "
            "the comparison beyond the stored horizon"
        )


def locc_convertible(a: SchmidtSpectrum, b: SchmidtSpectrum) -> bool:
    """Deterministic convertibility a -> b: weights of a majorized by b's.

    Equivalent to g_a(n) >= g_b(n) at every n. A violation settles the
    answer for truncated inputs too where b's g is known: over b's stored
    range when b is exact or has a verified closed form, else up to its
    :func:`safe_horizon`, past which its stored g rests on its tail bound.
    A tail bound only raises a stored g, so a's is read over its whole
    stored range. Otherwise both spectra must be exact. For two exact
    states the stored ranges suffice: past its rank a g is zero, and a
    lower rank of a shows as g_a = 0 < g_b at a's rank.
    """
    ga, gb = a.log_g, b.log_g
    m = min(ga.size, gb.size if b.is_exact or b.form is not None else safe_horizon(b) + 1)
    if np.any(ga[:m] < gb[:m]):
        return False
    _require_exact(a, b, "majorization")
    return True


def max_probability(a: SchmidtSpectrum, b: SchmidtSpectrum) -> float:
    """Largest success probability of converting a into b stochastically.

    min over n of g_a(n)/g_b(n), clamped to [0, 1]; exactly 1.0 whenever
    a majorizes into b, exactly 0.0 when b has larger rank.
    """
    _require_exact(a, b, "conversion probability")
    return _probability(comparison_window(a, b))


def _probability(cw: ComparisonWindow) -> float:
    """:func:`max_probability` from an exact pair's default window: its finite points are the n where g_b > 0."""
    _, values, zero_first = cw.finite
    if zero_first == "a":
        return 0.0
    m = float(np.min(values))
    if m >= 0.0:
        return 1.0
    # contract: exactly 1.0 iff majorization holds, so a strictly negative
    # log minimum must not round up to 1.0
    return min(math.exp(m), math.nextafter(1.0, 0.0))


def _direction(no, yes: bool, yes_grade: str):
    """(NO, grade) by the first (grade, fired) of ``no`` that fired, else (YES, ``yes_grade``) or undecided."""
    for grade, fired in no:
        if fired:
            return _Ev.NO, grade
    return (_Ev.YES, yes_grade) if yes else (_Ev.UND, "insufficient")


def _verdict(fwd: _Ev, bwd: _Ev) -> Verdict:
    table = {
        (_Ev.YES, _Ev.YES): Verdict.TwoWay,
        (_Ev.YES, _Ev.NO): Verdict.OneWayAtoB,
        (_Ev.NO, _Ev.YES): Verdict.OneWayBtoA,
        (_Ev.NO, _Ev.NO): Verdict.Incomparable,
    }
    return table.get((fwd, bwd), Verdict.Undecided)


def _rule_walk(cw: ComparisonWindow, th, exponent_shortcut: bool):
    """Both directions of one ordered pair, each rule applied once and in order.

    Returns ((fwd evidence, grade), (bwd evidence, grade), values, flags,
    probe): ``values`` holds the finite points of the stored window, and
    ``values``, ``flags`` and ``probe`` are None where no rule read them.

    1. A rank fact decides both directions: one g hitting zero while the
       other is positive (``ComparisonWindow.finite``), however short the
       finite overlap is; two exact sides by rank alone, equal ranks YES
       both ways, with no trend labels. Only an exact side's g reaches
       zero, so the stored window is read for this only then.
    2. Fewer than ``th.min_points`` finite points raise
       :class:`WindowTooSmall`; every point is finite where no g reaches
       zero, and their count is read from the stored weights where they
       prove it (:meth:`ComparisonWindow.holds`).
    3. With ``exponent_shortcut`` (estimate-r), closed-form exponents
       lo < 0 < hi (PairRatio.exponents) settle both limits: both
       directions NO, graded asymptotic, without trend test, probe or
       stored window.
    4. Otherwise each direction is NO by trend, then witnesses, then its
       exponent (liminf ell = -inf exactly when lo < 0, limsup ell = +inf
       exactly when hi > 0); else YES where the windowed extreme is stable
       and the probe's envelope moves less than one witness step; else
       insufficient.
    """
    values = None
    if cw.a.is_exact or cw.b.is_exact:
        _, values, zero_first = cw.finite
        both = cw.a.is_exact and cw.b.is_exact
        if zero_first or both:
            # one exact side without the shortcut still reports the trend labels
            labelled = not (both or exponent_shortcut) and values.size >= th.min_points
            return (
                (_Ev.NO if zero_first == "a" else _Ev.YES, "rank"),
                (_Ev.NO if zero_first == "b" else _Ev.YES, "rank"),
                values, trend_flags(values, th) if labelled else None, None,
            )
    if not cw.holds(th.min_points):
        raise WindowTooSmall(f"{cw.finite[1].size} finite window points < minimum {th.min_points}")
    lo, hi = cw.pair.exponents() if cw.pair else (0, 0)
    if exponent_shortcut and lo < 0 < hi:
        return (_Ev.NO, "asymptotic"), (_Ev.NO, "asymptotic"), values, None, None

    values = cw.finite[1]
    flags, probe = trend_flags(values, th), probe_pair(cw, th)
    step, enough = th.witness_step_nats, th.min_witnesses
    fwd = _direction(
        (("trend", flags.down_div), ("witnesses", len(probe.down_records) >= enough), ("asymptotic", lo < 0)),
        yes=flags.min_stable and probe.down_env_drop < step,
        yes_grade="stable-minimum",
    )
    bwd = _direction(
        (("trend", flags.up_div), ("witnesses", len(probe.up_records) >= enough), ("asymptotic", hi > 0)),
        yes=flags.max_stable and probe.up_env_gain < step,
        yes_grade="stable-maximum",
    )
    return fwd, bwd, values, flags, probe


def slocc_decide(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    window=None,
    thresholds: TrendThresholds | None = None,
) -> ComparisonReport:
    """Stochastic-convertibility verdict for a pair of spectra.

    Exact finite-rank pairs are decided by Schmidt rank over their default
    window, whatever ``window`` is given; the report names (0, greater
    rank) and takes the exact conversion probability from that window.
    Other pairs are decided from the windowed log-ratio: stabilized
    extremes assert convertibility, certified drift or record witnesses
    deny it, and a full two-sided certificate yields Incomparable.
    Anything short of evidence stays Undecided rather than guessing.
    """
    th = thresholds or TrendThresholds()
    exact = a.is_exact and b.is_exact
    cw = comparison_window(a, b, None if exact else window)
    (fe, fgrade), (be, bgrade), values, flags, probe = _rule_walk(cw, th, exponent_shortcut=False)
    # the epsilons and the trend labels read every finite point of the stored window; + 0.0 makes a zero
    # epsilon +0.0, as in the swapped pair, whose values are these negated but +0.0 where these are zero
    return ComparisonReport(
        verdict=_verdict(fe, be),
        log_epsilon_a_to_b=float(np.min(values)) + 0.0 if values.size else NEG_INF,
        log_epsilon_b_to_a=-float(np.max(values)) + 0.0 if values.size else NEG_INF,
        window=(0, max(a.length, b.length)) if exact else cw.window,
        trend_forward=flags.label() if flags else None,
        trend_reverse=flags.mirrored().label() if flags else None,
        witnesses=certificate_from_probe(probe, cw.window, th) if probe else None,
        probability=_probability(cw) if exact else None,
        evidence={"forward": fgrade, "backward": bgrade},
    )


@dataclass(frozen=True)
class MonotoneEstimate:
    """Estimated location of a state against a totally ordered family.

    ``r_minus`` bounds where the ratio's liminf starts vanishing,
    ``r_plus`` where its limsup becomes finite; a strict gap certifies
    that the state is incomparable to every family member in between.
    """

    r_minus: float
    r_plus: float
    per_r: tuple
    undecided_band: tuple

    def __post_init__(self):
        if self.r_minus > self.r_plus:
            raise ValueError("r_minus must not exceed r_plus")

    def to_dict(self):
        return {
            "r_minus": self.r_minus,
            "r_plus": self.r_plus,
            "per_r": [[r, v.value] for r, v in self.per_r],
            "undecided_band": list(self.undecided_band),
            "orientation": "higher r converts to lower r",
        }


def estimate_r_bounds(
    psi: SchmidtSpectrum,
    family_gen,
    r_min: float,
    r_max: float,
    steps: int,
    window=None,
    thresholds: TrendThresholds | None = None,
) -> MonotoneEstimate:
    """Bracket a state inside a parameterized reference family.

    ``family_gen(r)`` must yield a truncated spectrum per sampled r: an
    exact one raises :class:`InvalidFamily`, and its constructor holds
    every other tail-function condition. ``steps < 1``, or an r range
    that is reversed or not finite, raises :class:`ParameterError` before
    any member is generated. Each distinct r of the ``steps``-point grid
    is sampled once, so ``r_min == r_max`` gives one member whatever
    ``steps`` is. For each r the liminf and limsup of g_psi/g_(family r)
    are classified by the rule walk of :func:`slocc_decide`, of which only
    the two directions are read. After the rank and window-size checks,
    closed-form exponents lo < 0 < hi settle both limits, so no trend test
    or probe runs there:

    * r_minus estimates inf{r : liminf vanishes}; evidence at the lowest
      sampled r pins it there, otherwise one grid step below the first
      evidenced r (the infimum of an open evidence set).
    * r_plus estimates inf{r : limsup finite}; with no finite-limsup
      evidence anywhere it falls back to r_max.

    Sampled r without evidence either way land in ``undecided_band``;
    if everything is undecided the estimate degrades to the full span.
    """
    th = thresholds or TrendThresholds()
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    if not (math.isfinite(r_min) and math.isfinite(r_max)) or r_min > r_max:
        raise ParameterError(f"need finite r_min <= r_max, got [{r_min}, {r_max}]")
    rs = np.sort(np.linspace(r_min, r_max, steps))
    rs = rs[run_starts(rs)]  # each distinct r once
    grid = (r_max - r_min) / (steps - 1) if steps > 1 else 0.0

    per_r = []
    band = []
    liminf_zero = []
    limsup_finite = []
    for r in rs:
        member = family_gen(float(r))
        if member.is_exact:  # g reaches 0: the one condition the constructor does not refuse
            raise InvalidFamily(f"family member at r={r} fails tail-function conditions")
        try:
            (fe, _), (be, _), *_ = _rule_walk(comparison_window(psi, member, window), th, exponent_shortcut=True)
        except WindowTooSmall:
            fe = be = _Ev.UND
        per_r.append((float(r), _verdict(fe, be)))
        if fe is _Ev.UND or be is _Ev.UND:
            band.append(float(r))
        if fe is _Ev.NO:
            liminf_zero.append(float(r))
        if be is _Ev.YES:
            limsup_finite.append(float(r))

    if liminf_zero:
        r_minus = max(float(r_min), min(liminf_zero) - grid)
    elif len(band) == len(per_r):
        r_minus = float(r_min)
    else:
        r_minus = float(r_max)

    r_plus = min(limsup_finite) if limsup_finite else float(r_max)
    return MonotoneEstimate(min(r_minus, r_plus), r_plus, tuple(per_r), tuple(band))
