"""Schmidt spectra in log domain: validation, tail functions, summaries.

A :class:`SchmidtSpectrum` holds the natural logs of the Schmidt weights
of a pure bipartite state, nonincreasing and normalized, plus an optional
certified bound on the mass beyond the stored horizon. All downstream
operations (majorization, conversion probability, ratio trends) consume
the tail function g(n) = sum of weights from index n on, also in log
domain.

The :class:`SchmidtSpectrum` constructor is the one validity check, so no
spectrum exists unchecked; :func:`make_spectrum` is the call that builds
one. Family metadata is trusted only through ``s.form``, which checks it
once per spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonPositive, NotNormalized, ValidationError
from .numutil import LN2, NEG_INF, logsumexp

#: relative tolerance for the normalization of a spectrum
NORMALIZATION_RTOL = 1e-9

#: adjacent log weights may invert by this much and still count as a tie,
#: absorbing rounding in analytically generated spectra
ORDER_LOG_TOL = 1e-12

#: max tail contamination of any ln g used (relative)
TRUNCATION_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class SchmidtSpectrum:
    """Nonincreasing, normalized Schmidt weights stored as natural logs, checked on construction.

    Attributes
    ----------
    log_weights:
        ln(weight) per index, nonincreasing, all finite.
    log_tail_bound:
        ln of a certified upper bound on the total weight beyond the
        stored horizon; ``-inf`` for exact finite-rank states.
    metadata:
        Provenance of analytic families (``family``, ``q``, ``r``, ``k``,
        ``delta``, ``offset``). Free of derived quantities.
    """

    log_weights: np.ndarray
    log_tail_bound: float = NEG_INF
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        """Refuse weights that are not finite, nonincreasing (to ``ORDER_LOG_TOL``) and normalized.

        A tail bound at or above the last stored weight may hide a weight
        larger than it, so it is accepted only when the metadata names a
        closed form that reproduces the stored tail (``s.form``); that form
        then continues the tail past the cut.
        """
        lw = np.asarray(self.log_weights, dtype=float).copy()
        lw.setflags(write=False)
        log_tail = float(self.log_tail_bound)
        object.__setattr__(self, "log_weights", lw)
        object.__setattr__(self, "log_tail_bound", log_tail)
        object.__setattr__(self, "metadata", dict(self.metadata))
        if lw.size == 0:
            raise ValidationError("spectrum must contain at least one weight")
        if not np.all(np.isfinite(lw)):
            raise NonPositive("all weights must be strictly positive and finite")
        diffs = np.diff(lw)
        if np.any(diffs > ORDER_LOG_TOL):
            bad = int(np.argmax(diffs > ORDER_LOG_TOL))
            raise ValidationError(
                f"log weights increase at index {bad} by more than {ORDER_LOG_TOL}"
            )
        if not (log_tail == NEG_INF or math.isfinite(log_tail)):
            raise ValidationError("tail bound must be finite or exactly zero (-inf log)")
        ok, resid, total, tail = self.normalization
        if not ok:
            raise NotNormalized(
                f"stored weights sum to {total!r} with tail bound {tail!r}; "
                f"residual {resid!r} exceeds {NORMALIZATION_RTOL}"
            )
        if not log_tail < lw[-1] and self.form is None:
            raise ValidationError(
                "tail bound is not below the last stored weight; refine the "
                "truncation or give family metadata whose closed form reproduces the stored tail"
            )

    @property
    def length(self) -> int:
        """Number of stored weights (the truncation horizon)."""
        return int(self.log_weights.size)

    @property
    def is_exact(self) -> bool:
        """True when the state is exactly finite rank (no hidden tail)."""
        return self.log_tail_bound == NEG_INF

    def weights(self) -> np.ndarray:
        """Linear-domain weights (entries below ~1e-308 underflow to 0)."""
        return np.exp(self.log_weights)

    @cached_property
    def log_g(self) -> np.ndarray:
        """ln g(n) for n = 0..length, read-only, computed once per spectrum.

        The last entry is the certified tail bound at the cut (``-inf``
        for exact states). See :func:`tail_function`.
        """
        return tail_function(self)

    @cached_property
    def normalization(self) -> tuple:
        """(ok, residual, S, t) of :func:`_normalization`, computed once per spectrum."""
        return _normalization(self.log_weights, self.log_tail_bound)

    @cached_property
    def form(self):
        """Closed form the metadata names, checked once: :func:`entorder.families.analytic_form`."""
        from .families import analytic_form  # deferred: families imports us

        return analytic_form(self)


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of a single tail-function condition over the stored range."""

    ok: bool
    first_failing: int | None = None

    def to_dict(self):
        return {"ok": self.ok, "first_failing": self.first_failing}


@dataclass(frozen=True)
class ConditionReport:
    """The four conditions a valid tail function satisfies.

    ``positivity``: g(n) > 0, ``strict_monotonicity``: g(n) > g(n+1),
    ``convexity``: weights nonincreasing, ``normalization``: g(0) = 1.
    All four passing means the stored range is consistent with a genuine
    (possibly infinite dimensional) state.
    """

    positivity: ConditionCheck
    strict_monotonicity: ConditionCheck
    convexity: ConditionCheck
    normalization_ok: bool
    normalization_residual: float

    @property
    def all_pass(self) -> bool:
        return (
            self.positivity.ok
            and self.strict_monotonicity.ok
            and self.convexity.ok
            and self.normalization_ok
        )

    def to_dict(self):
        return {
            "positivity": self.positivity.to_dict(),
            "strict_monotonicity": self.strict_monotonicity.to_dict(),
            "convexity": self.convexity.to_dict(),
            "normalization": {
                "ok": self.normalization_ok,
                "residual": self.normalization_residual,
            },
            "all_pass": self.all_pass,
        }


def _normalization(log_weights, log_tail_bound):
    """(ok, residual, S, t) for stored sum S and certified tail t.

    The true total lies in [S, S + t]; it is ok when 1 is reachable inside
    that interval up to NORMALIZATION_RTOL. The residual reported is
    S + t/2 - 1.
    """
    log_s = logsumexp(log_weights)
    log_mid = np.logaddexp(log_s, log_tail_bound - LN2)
    total = math.exp(log_s)
    tail = math.exp(log_tail_bound) if log_tail_bound != NEG_INF else 0.0
    ok = total <= 1.0 + NORMALIZATION_RTOL and total + tail >= 1.0 - NORMALIZATION_RTOL
    return ok, float(math.expm1(log_mid)), total, tail


def make_spectrum(log_weights, log_tail_bound=NEG_INF, metadata=None) -> SchmidtSpectrum:
    """Build a spectrum from natural-log weights; its constructor checks every invariant."""
    return SchmidtSpectrum(log_weights, log_tail_bound, metadata or {})


def build_spectrum(weights) -> SchmidtSpectrum:
    """Build a spectrum from linear-domain weights summing to 1, in any order.

    An array is read as it is, any other iterable (a list, a generator)
    through a list. The weights are sorted nonincreasing and their logs
    go to the constructor, which refuses an empty input (ValidationError),
    a zero, negative or non-finite weight (NonPositive) and a sum other
    than 1 (NotNormalized).
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # the constructor refuses ln 0 = -inf and ln(-w) = nan
        w = np.asarray(weights if isinstance(weights, np.ndarray) else list(weights), dtype=float)
        log_weights = np.log(np.sort(w)[::-1])
    return make_spectrum(log_weights)


def tail_function(s: SchmidtSpectrum) -> np.ndarray:
    """Tail sums ln g(n) by reverse log-domain accumulation, as a read-only array.

    g(length) is the certified tail bound. Accumulation leaves ln g(0)
    within one ulp of 0; the whole curve is shifted by that residual so
    g(0) = 1 holds exactly and ratio comparisons of two spectra agree at
    n = 0 by construction. Callers read the memoised ``s.log_g``.
    """
    logs = np.append(s.log_weights, s.log_tail_bound)
    log_g = np.logaddexp.accumulate(logs[::-1])[::-1]
    log_g = log_g - log_g[0]
    if np.any(np.diff(log_g) >= 0):
        raise ValidationError("tail function is not strictly decreasing")
    log_g.setflags(write=False)
    return log_g


def vidal_conditions(s: SchmidtSpectrum) -> ConditionReport:
    """Check the four tail-function conditions over the stored range.

    Strict positivity and strict monotonicity are evaluated on g; for an
    exact finite-rank state positivity fails right at the rank, where g
    hits zero. Convexity of g is equivalent to the weights being
    nonincreasing and is checked with a 1e-12 log tolerance so that
    analytic rounding ties still pass.
    """
    lg = s.log_g

    pos_bad = np.nonzero(lg == NEG_INF)[0]
    positivity = ConditionCheck(pos_bad.size == 0, int(pos_bad[0]) if pos_bad.size else None)

    gdiff = np.diff(lg)
    mono_bad = np.nonzero(~(gdiff < 0))[0]
    strict_mono = ConditionCheck(mono_bad.size == 0, int(mono_bad[0]) if mono_bad.size else None)

    wdiff = np.diff(s.log_weights)
    conv_bad = np.nonzero(wdiff > ORDER_LOG_TOL)[0]
    convexity = ConditionCheck(conv_bad.size == 0, int(conv_bad[0]) if conv_bad.size else None)

    norm_ok, resid, _, _ = s.normalization
    return ConditionReport(positivity, strict_mono, convexity, norm_ok, resid)


def summary_stats(s: SchmidtSpectrum) -> dict:
    """Entropy (bits), Schmidt rank, and mean excitation number.

    The excitation count is per mode: sum of n * weight(n). The total
    photon number of the two-mode state is twice this value. For
    truncated analytic families the certified remainder of the
    excitation sum beyond the horizon is included when derivable from
    the family metadata.
    """
    lw = s.log_weights
    p = np.exp(lw)
    entropy_bits = float(-np.dot(p, lw) / LN2)
    mean_exc = float(np.dot(np.arange(s.length, dtype=float), p))
    if s.is_exact:
        rank = s.length
        exc_tail = 0.0
        log_exc_tail = None
    else:
        rank = "truncated"
        from .families import excitation_remainder_bound  # deferred: families imports us

        log_exc_tail = excitation_remainder_bound(s)
        # linear value may underflow to 0.0; the log field keeps the bound
        exc_tail = math.exp(min(log_exc_tail, 709.0)) if log_exc_tail is not None else None
    return {
        "entropy_bits": entropy_bits,
        "schmidt_rank": rank,
        "mean_excitation": mean_exc,
        "excitation_tail_bound": exc_tail,
        "log_excitation_tail_bound": log_exc_tail,
    }


def safe_horizon(s: SchmidtSpectrum) -> int:
    """Largest index n at which the tail bound perturbs ln g(n) by < TRUNCATION_RTOL.

    Comparisons beyond this index would be contaminated by the unknown
    mass past the truncation. Exact states are safe over their whole
    stored range.
    """
    if s.is_exact:
        return s.length
    limit = s.log_tail_bound - math.log(TRUNCATION_RTOL)
    # log_g is strictly decreasing; find the last index with log_g >= limit
    idx = np.searchsorted(-s.log_g, -limit, side="right")
    return max(int(idx) - 1, 0)
