"""Small log-domain numerics helpers.

Everything in this package stores probabilities as natural logarithms;
weights like exp(-20000) are routine and underflow to 0.0 in linear
domain, so sums and differences happen on log values.
"""

import math

import numpy as np

LN2 = math.log(2.0)
LN10 = math.log(10.0)
NEG_INF = float("-inf")


def log1mexp(x):
    """log(1 - exp(x)) for x < 0, stable near both ends.

    Uses expm1 for x close to zero and log1p(-exp(x)) far from it.
    Accepts scalars or arrays; x == -inf maps to 0.0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x >= 0):
        raise ValueError("log1mexp requires x < 0")
    near = x > -LN2
    if near.any():
        out = np.where(near, np.log(-np.expm1(x)), np.log1p(-np.exp(x)))
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
