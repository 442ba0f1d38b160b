"""Small log-domain numerics helpers.

Everything in this package stores probabilities as natural logarithms;
weights like exp(-20000) are routine and underflow to 0.0 in linear
domain, so sums and differences happen on log values.
"""

import math
import sys

import numpy as np

LN2 = math.log(2.0)
LN10 = math.log(10.0)
NEG_INF = float("-inf")
FLOAT_MAX = sys.float_info.max
#: ln of the largest float: exp of anything above it overflows
LOG_FLOAT_MAX = math.log(FLOAT_MAX)


def log1mexp(x):
    """log(1 - exp(x)) for x < 0, stable near both ends.

    Uses expm1 for x close to zero and log1p(-exp(x)) far from it.
    Accepts scalars or arrays; x == -inf maps to 0.0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x >= 0):
        raise ValueError("log1mexp requires x < 0")
    near = x > -LN2
    if near.any():  # each branch on its own entries: above -1.1e-16, log1p(-exp(x)) is log1p(-1)
        out = np.empty_like(x)
        out[near] = np.log(-np.expm1(x[near]))
        out[~near] = np.log1p(-np.exp(x[~near]))
    else:  # every entry far from zero, as in a sampled tail: one branch
        out = np.log1p(-np.exp(x))
    if out.ndim == 0:
        return float(out)
    return out


def logsumexp(values):
    """Sequential log-domain sum of a 1-D array (deterministic order)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return NEG_INF
    return float(np.logaddexp.reduce(values))


def run_starts(x):
    """Mask of the entries of a sorted 1-D array that differ from the entry before them.

    ``x[run_starts(x)]`` is ``np.unique(x)`` for a sorted x without NaN, in
    one pass: ``np.unique`` imports ``numpy.ma`` on its first call, which
    costs a fresh process more than most commands.
    """
    mask = np.empty(x.shape, dtype=bool)
    mask[:1] = True
    np.not_equal(x[1:], x[:-1], out=mask[1:])
    return mask
