"""Analytic state families: squeezed states and oscillating tail curves.

Two generators beyond the plain two-mode squeezed state:

* ``xi_state(r, ...)``  -- tail g(n) proportional to exp(-delta n) times the
  oscillating profile p_r evaluated along the grid, one state per r.
* ``psi_state(k, ...)`` -- tail proportional to exp(-delta n) times the k-th
  power of the r = 1 profile, one state per integer k.

The profile p_r(x) = (log x)^r (sin log x + 1) + 1/(log x) swings between
~2 (log x)^r and 1/(log x) as log x runs through multiples of pi, which is
what makes distinct family members mutually non-convertible. Shifting the
profile by a large enough offset keeps the resulting tail strictly
decreasing and convex; ``find_offset`` searches for the smallest such shift
on a grid.

``AnalyticForm(k, r, offset, delta)`` is the one type for a family member:
its constructor checks the parameters, it generates the stored weights,
and ``analytic_form`` rebuilds it from a spectrum's metadata to continue
the tail past the stored horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConditionViolated,
    DomainError,
    OffsetNotFound,
    QOutOfRange,
    ValidationError,
)
from .numutil import NEG_INF, log1mexp
from .spectrum import SchmidtSpectrum, make_spectrum

#: largest log-argument the float64 grid can represent (exp(701) < inf)
LOG_ARG_CAP = 700.0


def eval_p(r: float, x):
    """Profile p_r and its first two derivatives at x > 1.

    With L = ln x:

        p   = L^r (sin L + 1) + 1/L
        p'  = q(L)/x,          q  = r L^(r-1) (sin L + 1) + L^r cos L - L^-2
        p'' = (q'(L) - q(L))/x^2,
        q'  = r(r-1) L^(r-2) (sin L + 1) + 2 r L^(r-1) cos L - L^r sin L + 2 L^-3

    Returns (p, p', p'') as floats or arrays matching the input shape.
    """
    if not (r > 0):
        raise ValueError("profile exponent r must be positive")
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 1.0):
        raise DomainError("profile defined only for x > 1")
    L = np.log(x)
    sinL = np.sin(L)
    cosL = np.cos(L)
    s1 = sinL + 1.0
    Lr = L**r
    L2 = L**2
    p = Lr * s1 + 1.0 / L
    q = r * Lr / L * s1 + Lr * cosL - 1.0 / L2
    qp = (
        r * (r - 1.0) * Lr / L2 * s1
        + 2.0 * r * Lr / L * cosL
        - Lr * sinL
        + 2.0 / L**3
    )
    p1 = q / x
    p2 = (qp - q) / x / x  # two divisions: x*x overflows for x near exp(709)
    if scalar:
        return float(p), float(p1), float(p2)
    return p, p1, p2


@dataclass(frozen=True)
class AnalyticForm:
    """One family member: ln g(n) = -delta n + k (ln p_r(delta n + offset) - ln p_r(offset)).

    ``k = 0`` is the bare exponential (a squeezed state); larger k weights
    the oscillating profile more strongly. The constructor is the one
    place the family parameters are checked: all finite, k a nonnegative
    integer, r > 0, delta > 0, offset >= 0, and offset > 1 when k >= 1 so
    that every profile argument delta n + offset lies above 1.
    """

    k: int
    r: float
    offset: float
    delta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k, self.r, self.offset, self.delta))):
            raise ValueError("k, r, offset and delta must be finite")
        if self.k < 0 or self.k != int(self.k):
            raise ValueError("k must be a nonnegative integer")
        if not (self.r > 0):
            raise ValueError("r must be positive")
        if not (self.delta > 0):
            raise ValueError("delta must be positive")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if self.k > 0 and self.offset <= 1.0:
            raise ValueError("k >= 1 members need offset > 1 so that x + offset > 1")

    def log_d(self, x):
        """ln d(x) = -x + k ln p_r(x + offset), the continuous tail at x = delta n."""
        x = np.asarray(x, dtype=float)
        if self.k == 0:
            return -x
        p, _, _ = eval_p(self.r, x + self.offset)
        return -x + self.k * np.log(p)

    def log_g(self, n):
        """ln g(n) for float indices; valid while delta*n stays in float range."""
        n = np.asarray(n, dtype=float)
        return -self.delta * n + self.log_profile(n)

    def log_profile(self, n):
        """k (ln p(delta n + offset) - ln p(offset)): ln g(n) without its exponential."""
        n = np.asarray(n, dtype=float)
        if not self.k:
            return np.zeros_like(n)
        p0, _, _ = eval_p(self.r, self.offset)
        p, _, _ = eval_p(self.r, self.delta * n + self.offset)
        return self.k * (np.log(p) - math.log(p0))


def _profile_conditions(k, r, y):
    """Decrease and convexity functionals of a member at profile argument y.

    Returns (p, M, C) where M > 0 certifies d' < 0 and C >= 0 certifies
    d'' >= 0 for d(x) = exp(-x) p_r(x + offset)^k at y = x + offset. With
    u = p'/p and w = p''/p at y:

        M = 1 - k u
        C = (1 - k u)^2 + k (w - u^2)

    For k = 1 these reduce (in sign) to p - p' and p - 2p' + p''.
    """
    p, p1, p2 = eval_p(r, y)
    u = p1 / p
    w = p2 / p
    M = 1.0 - k * u
    C = M * M + k * (w - u * u)
    return p, M, C


#: Most condition-lattice points one generation request may scan: about 100 s at the
#: ~1e7 points/s measured on 2 vCPUs; the largest lattice in use (xi, n = 5e4) has 5e6
MAX_SCAN_POINTS = 10**9

# Most points per closed-form call: 48 KiB temporaries reuse the heap; from 8,192 on they page-fault anew each call
EVAL_BLOCK = 6144


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as NaN, which is not clean
def _first_clean(k, r, base, step, first, last, W, margin):
    """Smallest j in [first, last] whose window base + i*step, i = j..j+W, is clean.

    Clean: p > 0, M > margin and C >= 0 at every point, so a NaN
    condition is not clean (None if no j is).
    The lattice is walked once, in blocks of at most ``EVAL_BLOCK`` points:
    a failing point at index i rules out every candidate up to i.
    """
    j = i = first  # indices j..i-1 are known clean
    while j <= last:
        stop = min(i + EVAL_BLOCK, j + W + 1)
        idx = np.arange(i, stop, dtype=float)
        p, M, C = _profile_conditions(k, r, base + idx * step)
        bad = np.flatnonzero(~((p > 0) & (M > margin) & (C >= 0.0)))
        if bad.size:
            j = i + int(bad[-1]) + 1
        elif stop == j + W + 1:
            return j
        i = stop
    return None


def find_offset(
    k: int,
    r: float = 1.0,
    grid_step: float = 0.01,
    horizon: float = 100.0,
    margin: float = 0.0,
    a_max: float | None = None,
) -> float:
    """Smallest grid multiple a such that the shifted curve is valid on [0, horizon].

    Validity means M(x) > margin >= 0 and C(x) >= 0 at every grid point of
    step ``grid_step`` in [0, horizon], with x + a > 1 throughout. The
    check is finite: nothing beyond the horizon is certified. Raises
    :class:`OffsetNotFound` past ``a_max`` (default 1e6 * grid_step).
    """
    if grid_step <= 0 or horizon <= 0:
        raise ValueError("grid_step and horizon must be positive")
    if not (margin >= 0):
        raise ValueError("margin must be nonnegative")
    if k == 0:
        return 0.0
    if a_max is None:
        a_max = 1e6 * grid_step

    # Candidates and scan points share one lattice of grid_step multiples,
    # so the window for candidate m covers lattice indices [m, m + W].
    m_lo = int(math.floor(1.0 / grid_step)) + 1  # first multiple > 1
    m_hi = int(math.floor(a_max / grid_step))
    if m_hi < m_lo:
        raise OffsetNotFound(f"a_max={a_max} leaves no candidate above 1")
    W = int(math.ceil(horizon / grid_step))
    m = _first_clean(k, r, 0.0, grid_step, m_lo, m_hi, W, margin)
    if m is None:
        raise OffsetNotFound(f"no offset <= {a_max} satisfies the conditions over [0, {horizon}]")
    return float(m * grid_step)


def discretize(form: AnalyticForm, n: int, family: str = "psi") -> SchmidtSpectrum:
    """Sample a member into a spectrum: g(m) = d(delta m)/d(0), m <= n.

    Before sampling, the conditions M > 0 and C >= 0 are re-verified
    at x = i*s for i = 0..ceil(delta*(n+1)/s), with s = min(0.01, delta).
    That grid covers [0, delta*(n+1)] and overshoots it by less than one
    step (the step past the horizon certifies the ordering of the first
    hidden weight at the cut). The tail bound is the exact analytic g(n).
    """
    if n < 1:
        raise ValueError("need at least one stored weight")
    span = form.delta * (n + 1)
    step = min(0.01, form.delta)
    last = int(math.ceil(span / step))
    if form.k and _first_clean(form.k, form.r, form.offset, step, 0, 0, last, 0.0) is None:
        raise ConditionViolated(f"curve conditions fail inside [0, {span}] for offset {form.offset}")
    return _sample(form, n, family)


def _sample(form: AnalyticForm, n: int, family: str) -> SchmidtSpectrum:
    """The spectrum of :func:`discretize`, for a member already checked on its grid."""
    grid = np.arange(n + 1, dtype=float) * form.delta
    log_g = form.log_d(grid)
    log_g = log_g - log_g[0]  # normalization: g(0) = 1 exactly
    diffs = log_g[1:] - log_g[:-1]
    if np.any(diffs >= 0):
        raise ConditionViolated("sampled tail function is not strictly decreasing")
    log_weights = log_g[:-1] + log1mexp(diffs)
    metadata = {
        "family": family,
        "k": form.k,
        "r": form.r,
        "delta": float(form.delta),
        "offset": float(form.offset),
    }
    return make_spectrum(log_weights, float(log_g[-1]), metadata, cut_certified=True)


def tmss(q: float, n: int = 1000) -> SchmidtSpectrum:
    """Two-mode squeezed state: weights (1 - q^2) q^(2m), exact tail q^(2n).

    ``q`` is the squeezing parameter in [0, 1); q = 0 gives the product
    state. In the grid-step convention used throughout, delta = -2 ln q.
    """
    if not (0.0 <= q < 1.0):
        raise QOutOfRange(f"q={q} outside [0, 1)")
    if q == 0.0:
        return make_spectrum([0.0], NEG_INF, {"family": "tmss", "q": 0.0})
    if n < 1:
        raise ValueError("need at least one stored weight")
    log_q2 = 2.0 * math.log(q)
    log_head = math.log1p(-(q * q))
    log_weights = log_head + log_q2 * np.arange(n, dtype=float)
    log_tail = log_q2 * n
    metadata = {"family": "tmss", "q": float(q), "delta": -log_q2}
    return make_spectrum(log_weights, log_tail, metadata, cut_certified=True)


def delta_from_q(q: float, convention: str = "schmidt") -> float:
    """Grid step matching a squeezing parameter.

    ``schmidt`` (default): weights fall like q^(2n), delta = -2 ln q.
    ``amplitude``: state amplitudes fall like q^n, delta = -ln q.
    """
    if not (0.0 < q < 1.0):
        raise QOutOfRange(f"q={q} outside (0, 1)")
    if convention == "schmidt":
        return -2.0 * math.log(q)
    if convention == "amplitude":
        return -math.log(q)
    raise ValueError(f"unknown delta convention {convention!r}")


def xi_state(
    r: float,
    delta: float,
    n: int = 10000,
    offset: float | None = None,
    grid_step: float = 0.01,
    margin: float = 0.0,
) -> SchmidtSpectrum:
    """Reference-family member: g(m) proportional to exp(-delta m) p_r(delta m + a)."""
    return _family_state("xi", 1, r, delta, n, offset, grid_step, margin)


def psi_state(
    k: int,
    delta: float,
    n: int = 10000,
    r: float = 1.0,
    offset: float | None = None,
    grid_step: float = 0.01,
    margin: float = 0.0,
) -> SchmidtSpectrum:
    """Ladder member k: g(m) proportional to exp(-delta m) p_r(delta m + a)^k.

    k = 0 reproduces a two-mode squeezed state with q = exp(-delta/2).
    """
    return _family_state("psi", k, r, delta, n, offset, grid_step, margin)


def _family_state(family, k, r, delta, n, offset, grid_step, margin) -> SchmidtSpectrum:
    """Family member at a given or searched offset; each lattice point is scanned once."""
    if k == 0 or offset is not None:
        return discretize(AnalyticForm(k, r, offset if k else 0.0, delta), n, family)
    # the constructor refuses k, r and delta before the scan; any offset above 1 passes it
    form = replace(AnalyticForm(k, r, 2.0, delta), offset=find_offset(k, r, grid_step, delta * (n + 1), margin))
    # The search proved M > margin >= 0 and C >= 0 at j*g, j = m..m+W, for
    # a = m*g and W = ceil(delta*(n+1)/g). When g equals discretize's step
    # min(0.01, delta), its check points a + i*g, i = 0..W, are the same W+1
    # points up to rounding, so it need not scan them again (n < 1 it refuses).
    if grid_step == min(0.01, delta) and n >= 1:
        return _sample(form, n, family)
    return discretize(form, n, family)


# ---------------------------------------------------------------------------
# analytic continuation from metadata


#: largest relative gap |form ln g(n) - stored ln g(n)| / max(1, |ln g(n)|) a file may show:
#: generated files stay below 4e-14, while moving r, offset or delta by 1e-6 shows 5e-8 or more
FORM_RTOL = 1e-9


def analytic_form(s: SchmidtSpectrum) -> AnalyticForm | None:
    """Closed form of a spectrum's tail function, if its metadata names one.

    Metadata the constructor refuses gives None. Metadata it accepts must
    reproduce the stored ln g(n) at every n = 0..length to ``FORM_RTOL``,
    else the file misdescribes itself and :class:`ValidationError` is
    raised. Past the stored range the named family is assumed, not checked.
    """
    meta = s.metadata
    family = meta.get("family")
    if family == "tmss":
        q = float(meta.get("q", 0.0))
        if not (0.0 < q < 1.0):
            return None
        form = AnalyticForm(k=0, r=1.0, offset=0.0, delta=-2.0 * math.log(q))
    elif family in ("xi", "psi"):
        try:
            form = AnalyticForm(meta["k"], float(meta.get("r", 1.0)), float(meta["offset"]), float(meta["delta"]))
        except (KeyError, TypeError, ValueError):  # missing, or refused by the constructor
            return None
    else:
        return None
    stored = s.log_g
    gap = np.abs(form.log_g(np.arange(stored.size)) - stored) / np.maximum(1.0, np.abs(stored))
    residual = float(np.max(gap))
    if not residual <= FORM_RTOL:  # NaN fails too
        raise ValidationError(
            f"the {family} metadata does not reproduce the stored tail: "
            f"relative residual {residual:.3g} > {FORM_RTOL:g}"
        )
    return form


@dataclass(frozen=True)
class PairRatio:
    """Evaluator of ln g_a(n) - ln g_b(n) for two same-grid analytic forms.

    The exponential parts cancel exactly, so the ratio stays well
    conditioned at indices far beyond anything a stored array could
    reach (delta * n up to ~exp(700)).
    """

    a: AnalyticForm
    b: AnalyticForm

    @property
    def delta(self) -> float:
        return self.a.delta

    @property
    def max_offset(self) -> float:
        return max(self.a.offset, self.b.offset)

    @property
    def offset_gap(self) -> float:
        return abs(self.a.offset - self.b.offset)

    @property
    def oscillating(self) -> bool:
        return self.a.k > 0 or self.b.k > 0

    def max_index(self) -> int:
        """Largest index with delta*n + offsets inside float range."""
        return int(math.exp(LOG_ARG_CAP) / self.delta)

    def values(self, n):
        """ln g_a(n) - ln g_b(n) at float indices n."""
        return self.a.log_profile(n) - self.b.log_profile(n)


def pair_ratio(a: SchmidtSpectrum, b: SchmidtSpectrum) -> PairRatio | None:
    """Analytic log-ratio evaluator for two spectra, when both allow one.

    Requires identical grid steps: otherwise the exponential parts do not
    cancel and the materialized window is the only honest comparison.
    """
    fa = analytic_form(a)
    fb = analytic_form(b)
    if fa is None or fb is None:
        return None
    if fa.delta != fb.delta:
        return None
    return PairRatio(fa, fb)


def excitation_remainder_bound(s: SchmidtSpectrum) -> float | None:
    """ln of a certified bound on sum(n * weight(n)) beyond the horizon.

    Uses the exact geometric remainder for squeezed states. For profile
    families it combines p(y) <= 3 (ln y)^(r k) (valid once ln y >= 1)
    with the envelope ratio exp(-delta + rk*delta/(y ln y)), summed as a
    geometric series. Returns None when no certified form applies.
    """
    form = analytic_form(s)
    N = s.length
    if form is None:
        return None
    if form.k == 0:
        # remainder = z^N (N + z/(1-z)) with z = exp(-delta)
        log_z = -form.delta
        z = math.exp(log_z)
        return log_z * N + math.log(N + z / (1.0 - z))
    y_next = form.delta * (N + 1) + form.offset
    L_next = math.log(y_next)
    if L_next < 1.0:
        return None
    rk = form.r * form.k
    rho = math.exp(-form.delta + rk * form.delta / (y_next * L_next))
    if rho >= 1.0:
        return None
    p0, _, _ = eval_p(form.r, form.offset)
    # ln G(N+1) with G(n) = exp(-delta n) * (3 ln y)^(rk) / p(offset)^k
    log_G = (
        -form.delta * (N + 1)
        + form.k * math.log(3.0)
        + rk * math.log(L_next)
        - form.k * math.log(p0)
    )
    log_sum_tail = log_G - math.log1p(-rho)
    log_n_gN = math.log(N) + s.log_tail_bound
    return float(np.logaddexp(log_n_gN, log_sum_tail))
