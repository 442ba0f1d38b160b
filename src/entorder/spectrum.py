"""Schmidt spectra in log domain: validation, tail functions, summaries.

A :class:`SchmidtSpectrum` holds the natural logs of the Schmidt weights
of a pure bipartite state, nonincreasing and normalized, plus an optional
certified bound on the mass beyond the stored horizon. All downstream
operations (majorization, conversion probability, ratio trends) consume
the tail function g(n) = sum of weights from index n on, also in log
domain.

The :class:`SchmidtSpectrum` constructor is the one validity check, so no
spectrum exists unchecked; :func:`make_spectrum` is the call that builds
one. It holds three of Vidal's four tail-function conditions
(monotonicity, convexity, normalization), so :func:`vidal_conditions`
reports those as ok and computes only positivity. Family metadata is
trusted only through ``s.form``, which checks it once per spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonPositive, NotNormalized, ValidationError
from .numutil import LN2, LOG_FLOAT_MAX, NEG_INF, logsumexp

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
        stored horizon, at most ln of the largest float; ``-inf`` for
        exact finite-rank states.
    metadata:
        Provenance of analytic families (``family``, ``q``, ``r``, ``k``,
        ``delta``, ``offset``). Free of derived quantities.
    """

    log_weights: np.ndarray
    log_tail_bound: float = NEG_INF
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        """Refuse weights that are not finite, nonincreasing (to ``ORDER_LOG_TOL``) and normalized.

        Normalization is decided by a pairwise linear sum wherever its error
        bound allows (:func:`_bounded_normalization`), and otherwise by the
        sequential sum that ``normalization`` keeps and refusals quote.

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
        if log_tail > LOG_FLOAT_MAX:  # no float holds the bound: the sums below would overflow
            raise ValidationError(f"tail bound e^{log_tail!r} lies past the largest float")
        ok = _bounded_normalization(lw, log_tail)
        if ok is None:  # a threshold lies within the error bound: the sequential sum decides
            ok = self.normalization[0]
        if not ok:
            _, resid, total, tail = self.normalization
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


#: unit roundoff of a double
_U = 2.0**-53

#: absolute slack of :func:`_bounded_normalization` for sums that lie in the subnormal range
_TINY = 1e-300

#: exp of anything at or above this is a normal double
_EXP_CUT = -708.0


def _sum_bound(n, reach):
    """Relative distance, to first order in u, of :func:`_bounded_normalization`'s sums from the sequential ones.

    n is the number of weights and ``reach`` the R of that docstring.
    """
    return _U * (n * (reach + 9.0) + 7.0)


def _bounded_normalization(log_weights, log_tail_bound):
    """The verdict of :func:`_normalization` from a pairwise linear sum, or None where it may differ.

    The stored sum is taken as S' = e^m sum exp(w - m), with m the largest
    log weight, by numpy's pairwise sum over the first k weights, k the
    count of w - m >= ``_EXP_CUT``: numpy's exp is slow where it
    underflows, as in deep tails. The weights rise by at most
    ``ORDER_LOG_TOL`` a step, so a term past k lies below
    e^(cut + n ORDER_LOG_TOL), under e^-707 for n below 10^12. Against the
    sequential S of :func:`_normalization`, with n weights and
    R = max(|w_0|, |ln S'|) + 1:

    * ``logaddexp.reduce`` adds the weights in order, so each partial log
      sum r lies between w_0 and ln S. A step rounds ``x - y``, ``exp``,
      ``log1p`` and the final sum by at most u (4 + |r|) in all, and
      carries its input's error with slope at most 1: ln S errs by at most
      (n - 1) u (4 + R), and ``math.exp`` adds 2u.
    * Each term exp(w - m) errs by at most u (|w - m| + 4) relative, so by
      4u absolute (a term left out by less), against a sum of at least 1
      (the term at m). Summing n positive terms in any order adds
      (n - 1) u relative, and the product with e^m 3u.
    * S + t and S' + t round once each: 3u more.

    So the two sums, and the two sums with the tail, differ by at most
    :func:`_sum_bound` times S' (or S' + t), plus ``_TINY`` where S is
    subnormal. A threshold more than twice that away (room for the terms
    of higher order) sees both on the same side.
    """
    lw = log_weights
    m = float(lw.max())
    if m > 1.0:  # one weight above e: both sums exceed 1 + NORMALIZATION_RTOL
        return False
    shifted = lw - m
    with np.errstate(under="ignore"):  # a tie at the cut may keep a term a little below it
        s = float(np.sum(np.exp(shifted[: np.count_nonzero(shifted >= _EXP_CUT)])))
    total = math.exp(m) * s
    tail = math.exp(log_tail_bound) if log_tail_bound != NEG_INF else 0.0
    window = 2.0 * _sum_bound(lw.size, max(abs(float(lw[0])), abs(m + math.log(s))) + 1.0)
    undecided = False
    for x, threshold, ok_below in ((total, 1.0 + NORMALIZATION_RTOL, True),
                                   (total + tail, 1.0 - NORMALIZATION_RTOL, False)):
        if abs(x - threshold) <= window * x + _TINY:
            undecided = True
        elif (x < threshold) != ok_below:  # either check failing refuses the spectrum
            return False
    return None if undecided else True


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
    log_g = np.empty(s.length + 1)
    log_g[:-1] = s.log_weights
    log_g[-1] = s.log_tail_bound
    backward = log_g[::-1]
    np.logaddexp.accumulate(backward, out=backward)
    log_g -= log_g[0]
    if np.any(log_g[1:] >= log_g[:-1]):
        raise ValidationError("tail function is not strictly decreasing")
    log_g.setflags(write=False)
    return log_g


def vidal_conditions(s: SchmidtSpectrum) -> dict:
    """The four tail-function conditions over the stored range, as ``validate`` reports them.

    The constructor refuses weights that are not nonincreasing (convexity
    of g) or not normalized, and :func:`tail_function` a g that does not
    strictly decrease, so those three hold for every spectrum and read ok.
    Positivity is read from g: an exact finite-rank state fails it right
    at its rank, where g hits zero; ``all_pass`` is positivity's verdict.
    """
    zero = np.flatnonzero(s.log_g == NEG_INF)
    positive = zero.size == 0
    return {
        "positivity": {"ok": positive, "first_failing": None if positive else int(zero[0])},
        "strict_monotonicity": {"ok": True, "first_failing": None},
        "convexity": {"ok": True, "first_failing": None},
        "normalization": {"ok": True, "residual": s.normalization[1]},
        "all_pass": positive,
    }


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
        # the linear value underflows to 0.0, and past the float range it is None; the log field keeps the bound
        exc_tail = None if log_exc_tail is None or log_exc_tail > LOG_FLOAT_MAX else math.exp(log_exc_tail)
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
    # log_g is strictly decreasing: the entries >= limit are its first ones
    return max(int(np.count_nonzero(s.log_g >= limit)) - 1, 0)
