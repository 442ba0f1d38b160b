"""Analytic state families: squeezed states and oscillating tail curves.

Two generators beyond the plain two-mode squeezed state:

* ``xi_state(r, ...)``  -- tail g(n) proportional to exp(-delta n) times the
  oscillating profile p_r evaluated along the grid, one state per r.
* ``psi_state(k, ...)`` -- tail proportional to exp(-delta n) times the k-th
  power of the r = 1 profile, one state per integer k.

The profile p_r(x) = (log x)^r (sin log x + 1) + 1/(log x) swings between
~2 (log x)^r and 1/(log x) as log x runs through multiples of pi, which is
what makes distinct family members mutually non-convertible. ``profile``
evaluates p_r alone, for the tail values; ``eval_p`` adds its first two
derivatives, which only the curve conditions use. Shifting the
profile by a large enough offset keeps the resulting tail strictly
decreasing and convex; ``find_offset`` searches for the smallest such shift
on a grid, proving the conditions in closed form where it can (past a
cut-off y*, and cell by cell below it) and evaluating them elsewhere.

``AnalyticForm(k, r, offset, delta)`` is the one type for a family member:
its constructor checks the parameters, it generates the stored weights,
and ``analytic_form`` (read as ``s.form``) rebuilds it from a spectrum's
metadata to continue the tail past the stored horizon.

A member just sampled hands its spectrum the form it came from
(``_sampled_from``) where its sampler shows that the spectrum's tail
function strictly decreases, so ``s.form`` re-derives nothing and the
metadata check runs only when the stored tail is first read. Two caches,
each for the latest key only, hold read-only arrays that do not depend on
r, so the members of an ``estimate-r`` run share them: the terms of the
sampling grid (:func:`_grid_terms`), and the whole cell partition of one
search lattice with its interval terms (:func:`_lattice_cells`), of
which every range reads a prefix. No weight, proven cell or offset
depends on what was kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConditionViolated,
    OffsetNotFound,
    ParameterError,
    QOutOfRange,
    ValidationError,
    WeightsIncrease,
)
from .numutil import FLOAT_MAX, NEG_INF, log1mexp, run_starts
from .spectrum import ORDER_LOG_TOL, SchmidtSpectrum, _sum_bound, make_spectrum

#: largest log-argument the float64 grid can represent (exp(701) < inf)
LOG_ARG_CAP = 700.0


def _p(Lr, s1, iL):
    """p_r = L^r (sin L + 1) + 1/L from L^r, sin L + 1 and 1/L: the one expression for p."""
    return Lr * s1 + iL


def _profile_terms(r, x):
    """x > 1 as an array, with L = ln x, sin L, L^r and p_r(x)."""
    if not (r > 0):
        raise ParameterError("profile exponent r must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 1.0):
        raise ParameterError("profile defined only for x > 1")
    L = np.log(x)
    sinL = np.sin(L)
    Lr = L**r
    return x, L, sinL, Lr, _p(Lr, sinL + 1.0, 1.0 / L)


def profile(r: float, x):
    """Profile p_r(x) = L^r (sin L + 1) + 1/L with L = ln x, at x > 1.

    The value of :func:`eval_p` without its derivatives, bit for bit; a
    float or an array matching the input shape.
    """
    p = _profile_terms(r, x)[-1]
    return float(p) if np.isscalar(x) else p


@lru_cache(maxsize=1)
def _grid_terms(delta, offset, size):
    """ln y, sin ln y + 1 and 1/ln y at y = delta n + offset, n < size, as read-only arrays.

    None of them depends on r, so members that share a grid share them;
    only the grid of the latest key is kept. Callers pass the grid of an
    :class:`AnalyticForm` with k >= 1, whose constructor holds offset > 1
    and delta > 0, so every y lies above 1.
    """
    L = np.log(np.arange(size, dtype=float) * delta + offset)
    terms = L, np.sin(L) + 1.0, 1.0 / L
    for t in terms:
        t.setflags(write=False)
    return terms


def _log_p_on_grid(r, delta, offset, size):
    """ln p_r(delta n + offset) for n < size, bit for bit ``np.log(profile(r, delta * n + offset))``."""
    L, s1, iL = _grid_terms(delta, offset, size)
    return np.log(_p(L**r, s1, iL))


def eval_p(r: float, x):
    """Profile p_r and its first two derivatives at x > 1.

    With L = ln x:

        p   = L^r (sin L + 1) + 1/L
        p'  = q(L)/x,          q  = r L^(r-1) (sin L + 1) + L^r cos L - L^-2
        p'' = (q'(L) - q(L))/x^2,
        q'  = r(r-1) L^(r-2) (sin L + 1) + 2 r L^(r-1) cos L - L^r sin L + 2 L^-3

    Returns (p, p', p'') as floats or arrays matching the input shape.
    """
    scalar = np.isscalar(x)
    x, L, sinL, Lr, p = _profile_terms(r, x)
    cosL = np.cos(L)
    s1 = sinL + 1.0
    L2 = L**2
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
        if self.k > FLOAT_MAX:
            raise ParameterError("k must be a nonnegative integer within the float range")
        # not math.isfinite, which raises OverflowError on an int past the float range
        if not all(abs(v) <= FLOAT_MAX for v in (self.k, self.r, self.offset, self.delta)):
            raise ParameterError("k, r, offset and delta must be finite")
        if self.k < 0 or self.k != int(self.k):
            raise ParameterError("k must be a nonnegative integer")
        if not (self.r > 0):
            raise ParameterError("r must be positive")
        if not (self.delta > 0):
            raise ParameterError("delta must be positive")
        if self.offset < 0:
            raise ParameterError("offset must be nonnegative")
        if self.k > 0 and self.offset <= 1.0:
            raise ParameterError("k >= 1 members need offset > 1 so that x + offset > 1")

    def log_d(self, x):
        """ln d(x) = -x + k ln p_r(x + offset), the continuous tail at x = delta n."""
        x = np.asarray(x, dtype=float)
        if self.k == 0:
            return -x
        return -x + self.k * np.log(profile(self.r, x + self.offset))

    def log_g(self, n):
        """ln g(n) for float indices; valid while delta*n stays in float range."""
        n = np.asarray(n, dtype=float)
        return -self.delta * n + self.log_profile(n)

    def log_profile(self, n):
        """k (ln p(delta n + offset) - ln p(offset)): ln g(n) without its exponential."""
        n = np.asarray(n, dtype=float)
        if not self.k:
            return np.zeros_like(n)
        p0 = profile(self.r, self.offset)
        p = profile(self.r, self.delta * n + self.offset)
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


#: How far the closed-form bounds of :func:`_y_star` and :func:`_cell_bounds` must clear margin
#: and 0. Past y* that is far above float rounding, so the float-evaluated M and C pass as well.
#: Below y*, u and w are O(1), and near a trough of sin L the float L^r (sin L + 1) loses
#: relative accuracy as y grows, so the slack alone does not cover rounding there. What keeps
#: float points of proven cells clean is that a cell near a trough proves only far from where
#: the conditions fail: over 2.2e8 such points (r up to 100, y up to 1.7e10) float M and C
#: cleared margin and 0 by at least 0.013; the tests evaluate the proven points of several
#: lattices in float, r up to 100.
Y_STAR_SLACK = 1e-6

#: Width in L = ln y at which :func:`_y_star`'s bisection stops: 20 steps from the first bracket,
#: and y* at most 0.1 % above the lowest cut it could reach, a tenth of one ``CELL_WIDTH`` cell.
Y_STAR_WIDTH = 1e-3

_L_FLOAT_MAX = math.log(np.finfo(float).max)  # ln of the largest float profile argument


def _term_bound(r):
    """4 max(1, 2r, r|r-1|): each float term of :func:`eval_p` at L = ln y lies below this times L^r."""
    return 4.0 * max(1.0, 2.0 * r, r * abs(r - 1.0))


def _log_arg_cap(r):
    """Largest ln y at which p_r is evaluated: ``LOG_ARG_CAP``, or below it the L where
    ``_term_bound(r)`` L^r reaches the float maximum (from r = 107 on)."""
    log_L = (_L_FLOAT_MAX - math.log(_term_bound(r))) / r
    return LOG_ARG_CAP if log_L >= math.log(LOG_ARG_CAP) else math.exp(log_L)


def _y_star(k, r, margin):
    """Cut-off y* past which M > margin and C >= 0 hold at every real y (inf if none is found).

    With L = ln y and p >= 1/L, the closed forms of :func:`eval_p` give

        |q|  <= 2 r L^(r-1) + L^r + L^-2
        |q'| <= 2 r |r-1| L^(r-2) + 2 r L^(r-1) + L^r + 2 L^-3
        |u|  <= L |q| / y,    |w| <= L (|q'| + |q|) / y^2

    so M >= 1 - k|u| and C >= (1 - k|u|)^2 - k|w| - k u^2. Both lower
    bounds increase with L once L > r + 1; y* = e^L for an L where they
    clear margin and 0 by ``Y_STAR_SLACK``, found by bisection between
    r + 1 and ``LOG_ARG_CAP``. Its upper end is proven at every step, so
    any stopping point is a valid cut; it stops once the bracket is
    ``Y_STAR_WIDTH`` wide in L, so y* lies at most a factor e^Y_STAR_WIDTH
    (0.1 %) above the cut of a bisection run to the last ulp, and no
    offset depends on where it stops. The same bounds hold for the float values,
    up to rounding far below that slack, as long as no float term of
    eval_p (each below 4 max(1, 2r, r|r-1|) L^r) overflows for any float y.
    """
    if r * math.log(_L_FLOAT_MAX) + math.log(_term_bound(r)) >= _L_FLOAT_MAX:
        return math.inf
    lo, hi = r + 1.0, LOG_ARG_CAP
    if not (lo < hi and _proven_past(k, r, margin, hi)):
        return math.inf
    if _proven_past(k, r, margin, lo):
        return math.exp(lo)
    while hi - lo > Y_STAR_WIDTH:  # proven at hi throughout, never at lo
        mid = 0.5 * (lo + hi)
        if _proven_past(k, r, margin, mid):
            hi = mid
        else:
            lo = mid
    return math.exp(hi)


def _proven_past(k, r, margin, L):
    """True where :func:`_y_star`'s lower bounds of M and C at L = ln y clear margin and 0 by ``Y_STAR_SLACK``."""
    q = 2.0 * r * L ** (r - 1) + L**r + L**-2
    qp = 2.0 * r * abs(r - 1.0) * L ** (r - 2) + 2.0 * r * L ** (r - 1) + L**r + 2.0 * L**-3
    e = math.exp(-L)
    u = L * q * e
    w = L * (qp + q) * e * e
    M = 1.0 - k * u
    return M >= margin + Y_STAR_SLACK and M * M - k * w - k * u * u >= Y_STAR_SLACK


def _cut_index(k, r, margin, base, step):
    """First lattice index i whose float point base + i*step is >= y* (inf past 2**53)."""
    y = _y_star(k, r, margin)
    est = (y - base) / step
    if not est < 2.0**53:  # also y* = inf: no lattice reaches it
        return math.inf
    i = math.ceil(est) if est > 0 else 0  # at or below 0 (-inf from a base near the float maximum): all past y*
    while i > 0 and base + (i - 1) * step >= y:
        i -= 1
    while base + i * step < y:
        i += 1
    return i


#: Relative width of the cells below y* that the scan tries to prove before it evaluates their
#: lattice points (never below one lattice step). An unproven cell of more than ``CELL_SPLIT``
#: steps is cut into ``CELL_SPLIT`` parts and tried again, up to ``CELL_ROUNDS`` times: with 0,
#: 1, 2 and 3 rounds ``xi_state(6, 1e300, 10)`` evaluates 119,713, 15,601, 657 and 645 points.
CELL_WIDTH = 0.01
CELL_SPLIT = 4
CELL_ROUNDS = 3

# Intervals below are stacked arrays, row 0 the lower and row 1 the upper bound of each cell.
_WIDEN = 2.0**-49  # outward rounding: 8 ulps of each bound, above the error of the few operations before it
_UNIT = np.array([[-1.0], [1.0]])
_POS = 1.0 + _WIDEN * _UNIT  # widens a positive interval outward in one product
_SIGNED = _WIDEN * _UNIT
_SUM_PAD = 2.0 * _SIGNED  # 32 units of round-off per unit of a signed sum's magnitude bound (see _sum)
_TRIG_PAD = 1e-14 * _UNIT  # sin and cos get an absolute pad: their ulps vanish at their zeros
_QUARTERS = np.arange(4)[:, None]  # L = j pi/2 with j mod 4 = 0: cos peak, 1: sin peak, 2: cos trough, 3: sin trough


def _out(a):
    """A signed interval, rounded outward."""
    return a + np.abs(a) * _SIGNED


def _dn(x):
    return x - np.abs(x) * _WIDEN


def _up(x):
    return x + np.abs(x) * _WIDEN


def _times(a, c):
    """Positive interval a times signed interval c, in round-to-nearest (a :func:`_sum` term)."""
    return c * np.where(c >= 0, a, a[::-1])


def _sum(a, mag):
    """Signed interval a, a sum of terms made in round-to-nearest, rounded outward in one step.

    ``mag`` bounds the sum of the terms' magnitudes, and so every partial
    result: each of the operations that made a errs by at most 2^-53 mag,
    and the widening by 2^-48 mag covers 32 of them.
    """
    return a + mag * _SUM_PAD


def _over(a, d):
    """Signed interval a over positive interval d, rounded outward."""
    return _out(a / np.where(a >= 0, d[::-1], d))


class _CellTerms(NamedTuple):
    """The terms of :func:`_cell_bounds` over cells [y[0], y[1]] that depend on neither k nor r.

    Each is a stacked interval, one column per cell: y; L = ln y rounded
    outward; 1/L, 1/L^2 and 2/L^3; sin L and cos L, each with its trough
    row above its peak row; sin L + 1.
    """

    y: np.ndarray
    L: np.ndarray
    iL: np.ndarray
    iL2: np.ndarray
    iL3: np.ndarray
    s: np.ndarray
    c: np.ndarray
    s1: np.ndarray

    def head(self, n):
        """The terms of the first n cells."""
        return _CellTerms(*(t[:, :n] for t in self))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # an inf or NaN bound proves nothing
def _cell_terms(y):
    """The :class:`_CellTerms` of each cell [y[0], y[1]] (see :func:`_cell_bounds`)."""
    L = np.log(y) * _POS
    iL = 1.0 / L[::-1] * _POS
    iL2 = iL * iL * _POS
    j = L * (2.0 / np.pi)
    j0 = np.ceil(j[0] - 1e-9)
    hit = ((_QUARTERS - j0.astype(np.int64)) & 3) <= np.floor(j[1] + 1e-9) - j0  # a j pi/2 of each class inside
    s, c = (np.where(ends, _UNIT, np.where(v[0] <= v[1], v, v[::-1]) + _TRIG_PAD)  # rows: trough, then peak
            for v, ends in ((np.sin(L), hit[3::-2]), (np.cos(L), hit[2::-2])))
    return _CellTerms(y, L, iL, iL2, 2.0 * iL2 * iL, s, c, np.maximum(s + 1.0, 0.0))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # an inf or NaN bound proves nothing
def _term_bounds(k, r, t):
    """Lower bounds of p, M and C over each cell of the :class:`_CellTerms` t (see :func:`_cell_bounds`)."""
    y, L, iL, iL2, iL3, s, c, s1 = t
    Lr = L**r  # L^r, L^(r-1) and L^(r-2) at both ends, each ordered by its direction
    Lr1 = Lr / L
    Lr2 = (Lr1 / L if r >= 2 else (Lr1 / L)[::-1]) * _POS
    Lr1 = (Lr1 if r >= 1 else Lr1[::-1]) * _POS
    Lr = Lr * _POS
    p = (Lr * s1 + iL) * _POS
    # q = r L^(r-1) s1 + L^r c - L^-2 and q' = r(r-1) L^(r-2) s1 + 2r L^(r-1) c - L^r s + 2 L^-3,
    # with |c|, |s| <= 1 (up to the pad): 5 and 11 roundings, 17 for q' - q
    rLr1 = r * Lr1 * s1
    q = rLr1 + _times(Lr, c) - iL2[::-1]
    q_mag = rLr1[1] + Lr[1] + iL2[1]
    coef, Lr2s1 = r * (r - 1.0), Lr2 * s1
    qp = (coef * Lr2s1)[:: 1 if coef >= 0 else -1] + _times(2.0 * r * Lr1, c) + _times(Lr, -s[::-1]) + iL3
    qp_mag = abs(coef) * Lr2s1[1] + 2.0 * r * Lr1[1] + Lr[1] + iL3[1]
    yp = y * p * _POS
    u = _over(_sum(q, q_mag), yp)
    w = _over(_sum(qp - q[::-1], qp_mag + q_mag), y * yp * _POS)
    M = _dn(1.0 - _up(k * u[1]))
    M2, ku2, kw = M * M, k * np.max(u * u, axis=0), k * w[0]
    C = _sum(M2 - ku2 + kw, M2 + ku2 + np.abs(kw))[0]  # 6 roundings
    fits = (L[0] > 0) & (Lr[1] * _term_bound(r) < FLOAT_MAX)
    return np.where(fits, p[0], np.nan), M, C


def _cell_bounds(k, r, y):
    """Lower bounds of p, M and C over every real y in each cell [y[0], y[1]] (arrays).

    The closed forms of :func:`eval_p` in interval arithmetic, with L in
    [ln y0, ln y1]: sin L and cos L lie between their end values unless a
    peak or trough lies inside; L^r, L^(r-1), L^(r-2) and L^-1..L^-3 are
    each monotone, so their end values bound them. Each of those bounds,
    p, y p and each quotient rounds outward by a few ulps (sin and cos by
    ``_TRIG_PAD``); the signed sums q, q' - q and C, their terms included,
    are made in round-to-nearest and rounded outward once, by the sum of
    their terms' magnitudes (:func:`_sum`). Then
    M >= 1 - k max u and, where M > 0, C = M^2 + k(w - u^2) >=
    M_lo^2 - k max u^2 + k min w. The p bound is NaN where L may be <= 0 or
    a float term of eval_p (each below 4 max(1, 2r, r|r-1|) L^r) may overflow.
    The terms free of k and r (:func:`_cell_terms`) come first, then the
    bounds made from them (:func:`_term_bounds`).
    """
    return _term_bounds(k, r, _cell_terms(y))


@lru_cache(maxsize=1)
def _lattice_cells(base, step, first):
    """Edges and :class:`_CellTerms` of the whole cell partition of lattice (base, step, first).

    The cells grow by ``CELL_WIDTH`` of y each from the lattice's first point
    above 1 (never less than one step), and meet at their end points, which
    are lattice indices. They reach index first + 2**53 - 1, the last one a
    scan tries cells on (:func:`_first_clean`), or stop at the first y past
    the float range, whose edge lies past every range: at most about 3,700
    cells. Every range [first, end) reads a prefix of this one partition, up
    to the cell that holds end - 1. Read-only, for the latest lattice only.
    """
    start = max(base + first * step, 1.0 + step)
    growth = math.log1p(CELL_WIDTH)
    last = first + 2**53 - 1
    # the y one cell past index last, or past the float range: its edge lies at or past last
    count = math.ceil(math.log(max(min(base + last * step, FLOAT_MAX), start) / start) / growth) + 1
    with np.errstate(over="ignore"):  # a y past the float range makes an edge past every range
        ys = start * np.exp(growth * np.arange(count + 1))
    # nondecreasing, as the ys increase by CELL_WIDTH each, far above their rounding: one pass drops repeats
    edges = np.concatenate(([first], np.maximum(np.floor((ys - base) / step), first)))
    edges = edges[run_starts(edges)]
    edges = edges[: np.searchsorted(edges, last) + 1]
    terms = _cell_terms(base + np.array((edges[:-1], edges[1:])) * step)
    for t in (edges, *terms):
        t.setflags(write=False)
    return edges, terms


def _proven_cells(k, r, margin, base, step, first, end):
    """Index pairs (a, b), in order, of cells [a, b] inside [first, end) proven clean at every real y.

    A cell runs between two lattice points, so a lattice index lies in it
    by its float point base + i*step, as in :func:`_cut_index`. The cells
    are the lattice's (:func:`_lattice_cells`), up to the one that holds
    end - 1, which may reach past it: its proof then covers more points
    than it needs, and its pair ends at end - 1. One whose bounds show
    p > 0, M > margin + ``Y_STAR_SLACK`` and C >= ``Y_STAR_SLACK`` is proven;
    an unproven one, cut at end - 1, is split (``CELL_SPLIT``,
    ``CELL_ROUNDS``) before its points are left to the lattice scan. The
    first round reads the lattice's kept terms, so only the bounds that
    depend on k and r are made; the split rounds use :func:`_cell_bounds`.
    """
    edges, terms = _lattice_cells(base, step, first)
    n = int(np.searchsorted(edges, end - 1))  # the cells that hold an index below end - 1
    a, b = edges[:n], np.minimum(edges[1 : n + 1], end - 1)
    p, M, C = _term_bounds(k, r, terms.head(n))
    cells = []
    for rounds_left in range(CELL_ROUNDS, -1, -1):
        proven = (p > 0) & (M > margin + Y_STAR_SLACK) & (C >= Y_STAR_SLACK)
        cells.append((a[proven], b[proven]))
        split = ~proven & (b - a > CELL_SPLIT)
        if not (rounds_left and split.any()):
            break
        a, b = a[split], b[split]
        parts = a[:, None] + np.floor((b - a)[:, None] * np.arange(CELL_SPLIT + 1) / CELL_SPLIT)
        a, b = parts[:, :-1].ravel(), parts[:, 1:].ravel()
        p, M, C = _cell_bounds(k, r, base + np.array((a, b)) * step)
    a, b = (np.concatenate(ends) for ends in zip(*cells))
    order = np.argsort(a)
    return a[order].astype(np.int64), b[order].astype(np.int64)


#: Most lattice points one condition scan may evaluate, those below y* that no proven cell
#: holds: about 100 s at the ~1e7 points/s measured on 2 vCPUs. A search on the 0.01 grid at
#: k <= 4, r <= 2 leaves at most a few hundred, and r = 6 at delta 1e300 a few thousand.
MAX_SCAN_POINTS = 10**9

# Most points per closed-form call: 48 KiB temporaries reuse the heap; from 8,192 on they page-fault anew each call
EVAL_BLOCK = 6144


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as NaN, which is not clean
def _first_clean(k, r, base, step, first, last, W, margin):
    """Smallest j in [first, last] whose window base + i*step, i = j..j+W, is clean.

    Clean: p > 0, M > margin and C >= 0 at every point, so a NaN
    condition is not clean (None if no j is). Points at or past
    :func:`_y_star` are proven clean in closed form, and so are the points
    below it that a cell of :func:`_proven_cells` holds; neither is
    evaluated. More than ``MAX_SCAN_POINTS`` points left to evaluate raise
    ValueError before any is (a range of more than 2**53 indices tries no
    cell). The points left are walked once, in blocks of at most
    ``EVAL_BLOCK``: a failing point at index i rules out every candidate
    up to i.
    """
    end = min(_cut_index(k, r, margin, base, step), last + W + 1)
    runs = [(first, end)] if first < end else []
    if 1 < end - first <= 2**53:  # past 2**53 float indices are not exact, and no cell is tried
        a, b = _proven_cells(k, r, margin, base, step, first, end)
        # the lattice left between proven cells, which may share an end point: no run there
        starts, stops = np.append(first, b + 1), np.append(a, end)
        left = starts < stops
        runs = list(zip(starts[left].tolist(), stops[left].tolist()))
    most = sum(stop - i for i, stop in runs)
    if most > MAX_SCAN_POINTS:
        y = _y_star(k, r, margin)
        why = "" if end - first <= 2**53 or y == math.inf else (
            f": y* = {y:.2g} lies more than 2**53 lattice steps out, so no cell is tried")
        raise ValueError(
            f"the condition scan may evaluate {most:.3g} lattice points, more than {MAX_SCAN_POINTS:.0e}{why}")
    j = first  # every point from j up to the walk's position is clean
    for i, run_end in runs:
        while i < run_end:
            if i > j + W:  # j..j+W are clean: evaluated or proven
                return j
            stop = min(i + EVAL_BLOCK, run_end, j + W + 1)
            idx = np.arange(i, stop, dtype=float)
            p, M, C = _profile_conditions(k, r, base + idx * step)
            bad = np.flatnonzero(~((p > 0) & (M > margin) & (C >= 0.0)))
            if bad.size:
                j = i + int(bad[-1]) + 1
                if j > last:
                    return None
            i = stop
    return j if j <= last else None


def _check_search(grid_step, horizon, margin):
    """Refuse an offset search's grid step, horizon or margin outside its range."""
    if not (0 < grid_step < math.inf and 0 < horizon < math.inf):
        raise ParameterError("grid_step and horizon must be positive and finite")
    if not (0 <= margin < math.inf):
        raise ParameterError("margin must be finite and nonnegative")


def _span(delta, n):
    """delta * (n + 1), the span of n stored weights; refuses n < 1 and a span that is not finite."""
    if n < 1:
        raise ParameterError("n must be >= 1: need at least one stored weight")
    span = delta * (n + 1) if n < 1e308 else math.inf  # an n past the float range is not finite
    if not math.isfinite(span):
        raise ParameterError("delta * (n + 1) overflows; give a smaller delta or n")
    return span


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
    step ``grid_step`` in [0, horizon], with x + a > 1 throughout. Grid
    points whose profile argument x + a lies at or past :func:`_y_star`, or
    in a cell below it that :func:`_proven_cells` proves, are not
    evaluated: there the conditions hold for every real x, so the result
    is the full scan's. The other grid points below y* are evaluated, and
    nothing beyond the horizon is certified unless y* lies inside it. Raises
    :class:`OffsetNotFound` past ``a_max`` (default 1e6 * grid_step), and
    ValueError if it may evaluate more than ``MAX_SCAN_POINTS`` points.
    A grid step or horizon that is not positive and finite, a negative
    margin, an ``a_max`` below the first grid multiple above 1 (as the
    default is for a grid step of 1e-6 or less) or one that is not a finite
    number of grid steps (inf, NaN, 1e308 at step 0.01) raises
    :class:`ParameterError` before any point is evaluated.
    """
    _check_search(grid_step, horizon, margin)
    if k == 0:
        return 0.0
    if a_max is None:
        a_max = 1e6 * grid_step

    # Candidates and scan points share one lattice of grid_step multiples,
    # so the window for candidate m covers lattice indices [m, m + W].
    m_lo = int(math.floor(1.0 / grid_step)) + 1  # first multiple > 1
    if not math.isfinite(a_max / grid_step):
        raise ParameterError(f"a_max={a_max} over grid_step={grid_step} is not finite")
    m_hi = int(math.floor(a_max / grid_step))
    if m_hi < m_lo:
        raise ParameterError(f"a_max={a_max} leaves no multiple of grid_step={grid_step} above 1 to try")
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
    hidden weight at the cut). Points with x + offset at or past
    :func:`_y_star`, or in a proven cell below it, are proven in closed
    form, for every real x there, instead of evaluated; more than
    ``MAX_SCAN_POINTS`` points left to evaluate raise ValueError. The tail
    bound is the exact analytic g(n). An n below 1, or one whose span is
    not finite, raises :class:`ParameterError`.
    """
    span = _span(form.delta, n)
    step = min(0.01, form.delta)
    last = int(math.ceil(span / step))
    if form.k and _first_clean(form.k, form.r, form.offset, step, 0, 0, last, 0.0) is None:
        raise ConditionViolated(f"curve conditions fail inside [0, {span}] for offset {form.offset}")
    return _sample(form, n, family)


def _sample(form: AnalyticForm, n: int, family: str) -> SchmidtSpectrum:
    """The spectrum of :func:`discretize`, for a member already checked on its grid.

    Sampled weights that rise by more than ``ORDER_LOG_TOL`` (a step so
    fine that their float values jitter), which the constructor refuses,
    raise :class:`ConditionViolated` naming delta and n.

    The spectrum is handed ``form`` (``_sampled_from``) where the steps of
    the sampled ln g, L, all exceed 8 :func:`~entorder.spectrum._sum_bound`
    (n + 64, R), R = 1 + max |w_i|, |L_n|: then the tail function the
    spectrum computes from its weights strictly decreases, so deferring
    the metadata check to it skips no refusal. Each weight
    w_i = fl(L_i + log1mexp(fl(L_(i+1) - L_i))) lies within 32 u (R + 1)
    of ln(e^L_i - e^L_(i+1)): the difference rounds by u of itself, which
    moves log1mexp by at most u (|x| e^x / (1 - e^x) <= 1 for x < 0), and
    log1mexp and the sum round by a few ulps of values below R. These
    exact weights telescope to e^L_i, so the exact log-sum of the stored
    ones from i on, with the tail, lies as close to L_i. The reverse
    accumulation adds at most n u (4 + R) (see
    :func:`~entorder.spectrum._bounded_normalization`; its partial sums lie
    between L_n and about 0), its total (as close to L_0 = 0) is
    subtracted, and that rounds once: the computed ln g(i) lies within
    2 _sum_bound(n + 64, R) of L_i, and so strictly decreases where every
    step of L exceeds twice that. The factor 8 leaves room for terms of
    higher order. Elsewhere (steps near 1e-17, say) the metadata check
    runs in the constructor, as for any spectrum.
    """
    # form.log_d(delta n), with ln p from the kept grid terms; in place, with the bits of -(delta n) + k ln p
    log_g = np.arange(n + 1, dtype=float) * -form.delta
    if form.k:
        log_g += form.k * _log_p_on_grid(form.r, form.delta, form.offset, n + 1)
    log_g -= log_g[0]  # normalization: g(0) = 1 exactly
    diffs = log_g[1:] - log_g[:-1]
    if np.any(diffs >= 0):
        raise ConditionViolated("sampled tail function is not strictly decreasing")
    log_weights = log1mexp(diffs)
    log_weights += log_g[:-1]
    metadata = {
        "family": family,
        "k": form.k,
        "r": form.r,
        "delta": float(form.delta),
        "offset": float(form.offset),
    }
    reach = 1.0 - min(float(log_weights.min()), float(log_g[-1]))  # every w_i and L_i is <= 0
    decreases = -float(diffs.max()) > 8.0 * _sum_bound(n + 64, reach)
    try:
        return SchmidtSpectrum(log_weights, float(log_g[-1]), metadata, _sampled_from=form if decreases else None)
    except WeightsIncrease as err:
        raise ConditionViolated(
            f"weights sampled at delta {form.delta!r} and n {n} increase at index {err.index} "
            f"by more than {ORDER_LOG_TOL}: the step is too fine for float weights"
        ) from None


def tmss(q: float, n: int = 1000) -> SchmidtSpectrum:
    """Two-mode squeezed state: weights (1 - q^2) q^(2m), exact tail q^(2n).

    ``q`` is the squeezing parameter in [0, 1); q = 0 gives the product
    state. In the grid-step convention used throughout, delta = -2 ln q.
    A q outside [0, 1), or n < 1 at any q, raises :class:`ParameterError`.
    """
    if not (0.0 <= q < 1.0):
        raise QOutOfRange(f"q={q} outside [0, 1)")
    if n < 1:
        raise ParameterError("n must be >= 1: need at least one stored weight")
    if q == 0.0:
        return make_spectrum([0.0], NEG_INF, {"family": "tmss", "q": 0.0})
    log_q2 = 2.0 * math.log(q)
    log_head = math.log1p(-(q * q))
    log_weights = log_head + log_q2 * np.arange(n, dtype=float)
    log_tail = log_q2 * n
    metadata = {"family": "tmss", "q": float(q), "delta": -log_q2}
    return make_spectrum(log_weights, log_tail, metadata)


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
    """Family member at a given or searched offset; each lattice point is scanned once.

    Every parameter is refused before any scan, ``grid_step`` and ``margin`` even where none runs.
    """
    # any offset above 1 passes the constructor; a searched one replaces it
    form = AnalyticForm(k, r, 0.0 if k == 0 else 2.0 if offset is None else offset, delta)
    span = _span(delta, n)
    _check_search(grid_step, span, margin)
    if k == 0 or offset is not None:
        return discretize(form, n, family)
    form = replace(form, offset=find_offset(k, r, grid_step, span, margin))
    # The search proved M > margin >= 0 and C >= 0 at j*g, j = m..m+W, for
    # a = m*g and W = ceil(delta*(n+1)/g), in closed form from y* on and in
    # proven cells below it (y* at discretize's margin 0 is no larger). When
    # g equals discretize's step min(0.01, delta), its check points a + i*g,
    # i = 0..W, are the same W+1 points up to rounding, so it need not scan
    # them again.
    if grid_step == min(0.01, delta):
        return _sample(form, n, family)
    return discretize(form, n, family)


# ---------------------------------------------------------------------------
# analytic continuation from metadata


#: largest relative gap |form ln g(n) - stored ln g(n)| / max(1, |ln g(n)|) a file may show:
#: generated files stay below 4e-14, while moving r, offset or delta by 1e-6 shows 5e-8 or more
FORM_RTOL = 1e-9

# keys of the other families, which a file of the named family must not carry
_UNUSED_KEYS = {"tmss": ("k", "r", "offset"), "xi": ("q",), "psi": ("q",)}


def _tail_residual(form: AnalyticForm, stored) -> float:
    """Largest |form.log_g(n) - stored[n]| / max(1, |stored[n]|), ln p from the kept grid terms."""
    gap = np.arange(stored.size, dtype=float) * -form.delta  # the fit, then its gap, in place
    if form.k:
        log_p = _log_p_on_grid(form.r, form.delta, form.offset, stored.size)
        gap += form.k * (log_p - math.log(profile(form.r, form.offset)))
    gap -= stored
    return float(np.max(np.abs(gap, out=gap) / np.maximum(np.abs(stored), 1.0)))


def analytic_form(s: SchmidtSpectrum) -> AnalyticForm | None:
    """Closed form of a spectrum's tail function, if its metadata names one.

    Metadata the constructor refuses gives None. Metadata it accepts must
    reproduce the stored ln g(n) at every n = 0..length to ``FORM_RTOL``,
    a tmss ``delta`` must be exactly -2 ln q, and no key of another family
    may appear (``k``, ``r`` or ``offset`` in a tmss file, ``q`` in a psi
    or xi file), else the file misdescribes itself and
    :class:`ValidationError` is raised. Past the stored range the named
    family is assumed, not checked. Callers read the memoised ``s.form``.
    """
    form = metadata_form(s.metadata)
    if form is not None:
        check_reproduced(form, s.metadata["family"], s.log_g)
    return form


def metadata_form(meta: dict) -> AnalyticForm | None:
    """The form ``meta`` names, unchecked against any stored tail; see :func:`analytic_form`."""
    family = meta.get("family")
    stray = [key for key in _UNUSED_KEYS.get(family, ()) if key in meta]
    if stray:
        raise ValidationError(f"a {family} file does not use the metadata key(s) {', '.join(stray)}")
    if family == "tmss":
        q = float(meta.get("q", 0.0))
        if not (0.0 < q < 1.0):
            return None
        form = AnalyticForm(k=0, r=1.0, offset=0.0, delta=-2.0 * math.log(q))
        if meta.get("delta", form.delta) != form.delta:
            raise ValidationError(f"the tmss delta {meta['delta']!r} is not -2 ln q = {form.delta!r}")
    elif family in ("xi", "psi"):
        try:
            form = AnalyticForm(meta["k"], float(meta.get("r", 1.0)), float(meta["offset"]), float(meta["delta"]))
        except (KeyError, TypeError, ValueError):  # missing, or refused by the constructor
            return None
    else:
        return None
    return form


def check_reproduced(form: AnalyticForm, family, log_g) -> None:
    """Refuse a form whose ln g differs from the stored ``log_g`` by more than ``FORM_RTOL`` (ValidationError).

    An exact spectrum's g reaches 0 at its end (ln g = -inf there), which no closed form does.
    """
    if log_g[-1] == NEG_INF:  # g is non-increasing: only the last entry can be the first zero
        raise ValidationError(
            f"the {family} metadata names a closed form, but the stored weights are exact: "
            "their tail g reaches 0, which no closed form does"
        )
    residual = _tail_residual(form, log_g)
    if not residual <= FORM_RTOL:  # NaN fails too
        raise ValidationError(
            f"the {family} metadata does not reproduce the stored tail: "
            f"relative residual {residual:.3g} > {FORM_RTOL:g}"
        )


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

    @property
    def log_arg_cap(self) -> float:
        """Largest ln y the closed form reaches: ``LOG_ARG_CAP``, or lower where a member
        with k > 0 has so large an r that its profile could overflow first (see
        :func:`_log_arg_cap`)."""
        return min((_log_arg_cap(f.r) for f in (self.a, self.b) if f.k), default=LOG_ARG_CAP)

    def max_index(self) -> int:
        """Largest index n with delta*n below e^cap, which leaves every profile term in float range.

        The cap is :attr:`log_arg_cap`. The offsets, far below e^cap, are left out.
        """
        return int(math.exp(self.log_arg_cap) / self.delta)

    def values(self, n):
        """ln g_a(n) - ln g_b(n) at float indices n."""
        return self.a.log_profile(n) - self.b.log_profile(n)

    def exponents(self) -> tuple[Fraction, Fraction]:
        """(lo, hi), the extremes over s >= 0 of e(s) in ell = e(s) ln L + O(1), exact in the parameters.

        Where sin L + 1 = L^-s (L = ln y), ln p_r = max(r - s, -1) ln L + O(1), so
        e(s) = k_a max(r_a - s, -1) - k_b max(r_b - s, -1). Being piecewise linear, e has
        its extremes at s in {0, r_a + 1, r_b + 1, inf}, with e(inf) = k_b - k_a. So
        liminf ell = -inf exactly when lo < 0, and limsup ell = +inf exactly when hi > 0.
        Each r is an integer over a power of two; e is evaluated in integers over the
        pair's common denominator D, as D e(s).
        """
        (na, da), (nb, db) = (Fraction(f.r).as_integer_ratio() for f in (self.a, self.b))
        D = math.lcm(da, db)
        ka, kb, ra, rb = int(self.a.k), int(self.b.k), na * (D // da), nb * (D // db)
        e = [ka * max(ra - s, -D) - kb * max(rb - s, -D) for s in (0, ra + D, rb + D)] + [(kb - ka) * D]
        return Fraction(min(e), D), Fraction(max(e), D)


def near_equal_steps(delta_a: float, delta_b: float) -> bool:
    """True when two grid steps differ by no more than ``FORM_RTOL`` of the larger, yet differ."""
    return delta_a != delta_b and abs(delta_a - delta_b) <= FORM_RTOL * max(delta_a, delta_b)


def pair_ratio(a: SchmidtSpectrum, b: SchmidtSpectrum) -> PairRatio | None:
    """Analytic log-ratio evaluator for two spectra, when both allow one.

    Requires identical grid steps: otherwise the exponential parts do not
    cancel and the materialized window is the only honest comparison.
    Steps within ``FORM_RTOL`` of each other are ones the metadata check
    cannot tell apart, so such a pair with a member of k > 0 raises
    :class:`ValidationError`; a squeezed pair (both k = 0) keeps its
    stored window.
    """
    fa, fb = a.form, b.form
    if fa is None or fb is None:
        return None
    if (fa.k or fb.k) and near_equal_steps(fa.delta, fb.delta):
        raise ValidationError(
            f"grid steps {fa.delta!r} and {fb.delta!r} differ by no more than FORM_RTOL "
            f"({FORM_RTOL:g}), which the metadata check cannot resolve: give both files one step"
        )
    return PairRatio(fa, fb) if fa.delta == fb.delta else None


def excitation_remainder_bound(s: SchmidtSpectrum) -> float | None:
    """ln of a certified bound on sum(n * weight(n)) beyond the horizon.

    Uses the exact geometric remainder for squeezed states. For profile
    families it combines p(y) <= 3 (ln y)^(r k) (valid once ln y >= 1)
    with the envelope ratio exp(-delta + rk*delta/(y ln y)), summed as a
    geometric series. Returns None when no certified form applies.
    """
    form = s.form
    N = s.length
    if form is None:
        return None
    if form.k == 0:
        # remainder = z^N (N + z/(1-z)) with z = exp(-delta), in logs: z rounds to 1 below delta ~1.1e-16
        log_z = -form.delta
        return float(log_z * N + np.logaddexp(math.log(N), log_z - log1mexp(log_z)))
    y_next = form.delta * (N + 1) + form.offset
    L_next = math.log(y_next)
    if L_next < 1.0:
        return None
    rk = form.r * form.k
    rho = math.exp(-form.delta + rk * form.delta / (y_next * L_next))
    if rho >= 1.0:
        return None
    p0 = profile(form.r, form.offset)
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
