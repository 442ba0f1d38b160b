"""Convertibility decisions: majorization, conversion probability, ratio evidence.

Deterministic conversion of pure bipartite states is majorization of the
Schmidt weights; stochastic single-copy conversion is governed by the
ratio of tail functions. Finite data cannot prove a liminf, so the
stochastic verdicts here are evidence-based with an explicit Undecided
state: convertibility is asserted only when the windowed running minimum
provably stabilizes and nothing beyond the window contradicts it, and
non-convertibility only on hard rank facts, certified drift, record
witnesses, or the sign of a closed-form pair's asymptotic exponent.
A family bracket (``estimate_r_bounds``) reads only the two directions
per member: where the exponents settle both limits it computes no
windowed evidence, and otherwise it uses the same evidence as
``slocc_decide``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidFamily, TruncationUnsafe, WindowTooSmall
from .families import pair_ratio  # noqa: F401  (perfbench's tracer test expects this module's name)
from .numutil import NEG_INF
from .oscillation import (
    ComparisonWindow,
    OscillationCertificate,
    ProbeReport,
    TrendClass,
    TrendThresholds,
    certificate_from_probe,
    comparison_window,
    probe_pair,
    trend_flags,
)
from .spectrum import SchmidtSpectrum


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
    if x > 709.0:
        return sys.float_info.max
    return math.exp(x)


def _padded_log_g(a: SchmidtSpectrum, b: SchmidtSpectrum):
    """Tail-function logs of both spectra padded to a common horizon.

    Only valid for exact states, whose g is exactly zero past the rank.
    """
    ga, gb = a.log_g, b.log_g
    n = max(ga.size, gb.size)
    pad = lambda g: np.concatenate((g, np.full(n - g.size, NEG_INF)))
    return pad(ga), pad(gb)


def _require_exact(a: SchmidtSpectrum, b: SchmidtSpectrum, what: str):
    if not (a.is_exact and b.is_exact):
        raise TruncationUnsafe(
            f"{what} needs exact finite-rank spectra; a certified tail can flip "
            "the comparison beyond the stored horizon"
        )


def locc_convertible(a: SchmidtSpectrum, b: SchmidtSpectrum) -> bool:
    """Deterministic convertibility a -> b: weights of a majorized by b's.

    Equivalent to g_a(n) >= g_b(n) at every n. A violation inside the
    stored ranges settles the answer for truncated inputs too; otherwise
    both spectra must be exact.
    """
    if not (a.is_exact and b.is_exact):
        ga, gb = a.log_g, b.log_g
        m = min(ga.size, gb.size)
        if np.any(ga[:m] < gb[:m]):
            return False
        _require_exact(a, b, "majorization")
    ga, gb = _padded_log_g(a, b)
    return bool(np.all(ga >= gb))


def max_probability(a: SchmidtSpectrum, b: SchmidtSpectrum) -> float:
    """Largest success probability of converting a into b stochastically.

    min over n of g_a(n)/g_b(n), clamped to [0, 1]; exactly 1.0 whenever
    a majorizes into b, exactly 0.0 when b has larger rank.
    """
    _require_exact(a, b, "conversion probability")
    ga, gb = _padded_log_g(a, b)
    support = gb > NEG_INF
    diffs = ga[support] - gb[support]
    if np.any(ga[support] == NEG_INF):
        return 0.0
    m = float(np.min(diffs))
    if m >= 0.0:
        return 1.0
    # contract: exactly 1.0 iff majorization holds, so a strictly negative
    # log minimum must not round up to 1.0
    return min(math.exp(m), math.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class _Direction:
    evidence: _Ev
    grade: str


def _direction(no, yes: bool, yes_grade: str) -> _Direction:
    """NO by the first (grade, fired) of ``no`` that fired, else YES if ``yes``, else undecided."""
    for grade, fired in no:
        if fired:
            return _Direction(_Ev.NO, grade)
    if yes:
        return _Direction(_Ev.YES, yes_grade)
    return _Direction(_Ev.UND, "insufficient")


def _verdict(fwd: _Ev, bwd: _Ev) -> Verdict:
    table = {
        (_Ev.YES, _Ev.YES): Verdict.TwoWay,
        (_Ev.YES, _Ev.NO): Verdict.OneWayAtoB,
        (_Ev.NO, _Ev.YES): Verdict.OneWayBtoA,
        (_Ev.NO, _Ev.NO): Verdict.Incomparable,
    }
    return table.get((fwd, bwd), Verdict.Undecided)


def _window_facts(cw: ComparisonWindow, th):
    """The checks every windowed decision makes first: rank facts, then window size.

    Returns (rank, values): ``values`` holds the finite points of the
    stored window, and ``rank`` the (fwd, bwd) directions when one g hits
    zero in the window, else None. Raises :class:`WindowTooSmall` when no
    rank fact decides and fewer than ``th.min_points`` finite points remain.
    """
    values = cw.values

    # rank facts: one g hitting zero while the other is positive decides
    # both directions outright (zero is terminal, so at most one side hits
    # it first), no matter how short the finite overlap is
    a_exhausted = bool(np.any(values == -np.inf))
    b_exhausted = bool(np.any(values == np.inf))
    values = values[np.isfinite(values)]
    if a_exhausted or b_exhausted:
        fwd = _Direction(_Ev.NO if a_exhausted else _Ev.YES, "rank")
        bwd = _Direction(_Ev.NO if b_exhausted else _Ev.YES, "rank")
        return (fwd, bwd), values
    if values.size < th.min_points:
        raise WindowTooSmall(
            f"{values.size} finite window points < minimum {th.min_points}"
        )
    return None, values


def _asymptotic_no(cw: ComparisonWindow):
    """(forward NO, backward NO) as the closed form's exponents settle them (PairRatio.exponents).

    liminf ell = -inf exactly when lo < 0 and limsup ell = +inf exactly when
    hi > 0; a pair without a closed form settles neither.
    """
    lo, hi = cw.pair.exponents() if cw.pair else (0, 0)
    return lo < 0, hi > 0


def _windowed_directions(cw: ComparisonWindow, flags, th):
    """Forward and backward directions of a pair no rank fact decides, with its probe.

    ``flags`` are the trend flags of the finite window points from
    :func:`_window_facts`.
    """
    probe = probe_pair(cw, th)

    # a trend or witness NO, found first, keeps its grade
    fwd_no, bwd_no = _asymptotic_no(cw)
    step, enough = th.witness_step_nats, th.min_witnesses
    fwd = _direction(
        (("trend", flags.down_div), ("witnesses", len(probe.down_records) >= enough), ("asymptotic", fwd_no)),
        yes=flags.min_stable and probe.down_env_drop < step,
        yes_grade="stable-minimum",
    )
    bwd = _direction(
        (("trend", flags.up_div), ("witnesses", len(probe.up_records) >= enough), ("asymptotic", bwd_no)),
        yes=flags.max_stable and probe.up_env_gain < step,
        yes_grade="stable-maximum",
    )
    return fwd, bwd, probe


def _windowed_evidence(cw: ComparisonWindow, th):
    """Shared evidence assembly for one ordered pair over its comparison window.

    Returns (fwd, bwd, probe, (log eps fwd, log eps bwd), (trend fwd, trend bwd)).
    The epsilons and the trend tests both read every finite point of the
    stored window; a rank-decided pair with too few of them has no trends.
    """
    rank, values = _window_facts(cw, th)
    eps = (float(np.min(values)), float(-np.max(values))) if values.size else (NEG_INF, NEG_INF)
    flags = trend_flags(values, th) if values.size >= th.min_points else None
    trends = (flags.label(), flags.mirrored().label()) if flags else (None, None)
    if rank:
        return *rank, ProbeReport((), ()), eps, trends
    return *_windowed_directions(cw, flags, th), eps, trends


def _member_evidence(cw: ComparisonWindow, th):
    """Forward and backward evidence of one estimate-r member, without grades or witnesses.

    Where the closed form's exponents give lo < 0 < hi, both limits are
    settled (both directions NO), so no trend test or probe runs; every
    other pair takes the windowed directions, as :func:`slocc_decide` does.
    """
    rank, values = _window_facts(cw, th)
    if rank:
        fwd, bwd = rank
    elif all(_asymptotic_no(cw)):
        return _Ev.NO, _Ev.NO
    else:
        fwd, bwd, _ = _windowed_directions(cw, trend_flags(values, th), th)
    return fwd.evidence, bwd.evidence


def slocc_decide(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    window=None,
    thresholds: TrendThresholds | None = None,
) -> ComparisonReport:
    """Stochastic-convertibility verdict for a pair of spectra.

    Exact finite-rank pairs are decided by Schmidt rank (with the exact
    conversion probability attached). Truncated pairs are decided from
    the windowed log-ratio: stabilized extremes assert convertibility,
    certified drift or record witnesses deny it, and a full two-sided
    certificate yields Incomparable. Anything short of evidence stays
    Undecided rather than guessing.
    """
    th = thresholds or TrendThresholds()

    if a.is_exact and b.is_exact:
        fwd = a.length >= b.length
        bwd = b.length >= a.length
        m = min(a.length, b.length)
        diffs = a.log_g[:m] - b.log_g[:m]
        return ComparisonReport(
            verdict=_verdict(_Ev.YES if fwd else _Ev.NO, _Ev.YES if bwd else _Ev.NO),
            log_epsilon_a_to_b=float(np.min(diffs)),
            log_epsilon_b_to_a=float(-np.max(diffs)),
            window=(0, max(a.length, b.length)),
            trend_forward=None,
            trend_reverse=None,
            probability=max_probability(a, b),
            evidence={"forward": "rank", "backward": "rank"},
        )

    cw = comparison_window(a, b, window)
    fwd, bwd, probe, (eps_ab, eps_ba), (trend_f, trend_r) = _windowed_evidence(cw, th)
    return ComparisonReport(
        verdict=_verdict(fwd.evidence, bwd.evidence),
        log_epsilon_a_to_b=eps_ab,
        log_epsilon_b_to_a=eps_ba,
        window=cw.window,
        trend_forward=trend_f,
        trend_reverse=trend_r,
        witnesses=certificate_from_probe(probe, cw.window, th),
        probability=None,
        evidence={"forward": fwd.grade, "backward": bwd.grade},
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
    every other tail-function condition. ``r_min <= r_max`` must be
    finite. Each distinct r of the ``steps``-point grid is sampled once,
    so ``r_min == r_max`` gives one member whatever ``steps`` is. For each
    r the liminf and limsup of g_psi/g_(family r) are classified after the
    same rank and window-size checks as :func:`slocc_decide`. Where the
    pair's closed-form exponents give lo < 0 < hi, both limits are settled
    and no windowed evidence is computed; every other member gets
    :func:`slocc_decide`'s trend tests and probe, of which only the two
    directions are read:

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
        raise ValueError("steps must be >= 1")
    if not (math.isfinite(r_min) and math.isfinite(r_max)) or r_min > r_max:
        raise ValueError(f"need finite r_min <= r_max, got [{r_min}, {r_max}]")
    rs = np.unique(np.linspace(r_min, r_max, steps))  # each distinct r once; the grid is nondecreasing
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
            fe, be = _member_evidence(comparison_window(psi, member, window), th)
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
