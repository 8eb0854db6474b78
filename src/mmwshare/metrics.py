"""Pure aggregation of per-UE Monte Carlo samples.

An empirical CDF is its stable-sorted sample array (entry i sits at
cumulative probability (i + 1) / n), read by nearest-rank percentiles (no
interpolation, so results are bit-reproducible); plus rate-outage
fractions and log-log scaling-exponent fits. Nothing here runs a drop:
the run layer pools the samples (in drop-index order, unassociated UEs
kept with rate 0 and SINR -inf) and calls these functions on them.
"""
from __future__ import annotations

import math

import numpy as np


def cdf(samples) -> np.ndarray:
    """The empirical CDF of a 1-d sample set: its samples as floats,
    stable-sorted, so equal values (0.0 and -0.0 too) keep their order."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("empty population: no samples to aggregate")
    if s.ndim != 1:
        raise ValueError("need a 1-d sample array")
    return np.sort(s, kind="stable")


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of a CDF from `cdf`: the sample at 1-based
    rank ceil(p*n).

    A tiny epsilon guards against p*n landing just above an integer from
    float rounding (e.g. 0.07*100), which would otherwise shift the rank.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    rank = max(1, math.ceil(p * len(sorted_values) - 1e-9))
    return float(sorted_values[rank - 1])


def outage_rate(rates_bps, target_bps: float) -> float:
    """Fraction of UEs with rate strictly below the target."""
    if target_bps < 0:
        raise ValueError("target must be >= 0")
    r = np.asarray(rates_bps, dtype=float)
    if r.size == 0:
        raise ValueError("empty population")
    return float(np.count_nonzero(r < target_bps) / r.size)


def fit_scaling_exponent(densities, values) -> float:
    """OLS slope of log(value) against log(density)."""
    d = np.asarray(densities, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(d) != len(v) or len(d) < 3:
        raise ValueError("need at least 3 (density, value) pairs")
    # one distinct value, NaNs counting as one: np.unique's rule, without
    # the numpy.ma import it costs
    if d.min() == d.max() or np.isnan(d).all():
        raise ValueError("need at least two distinct densities for a slope")
    if not (np.all((0 < d) & (d < math.inf)) and np.all((0 < v) & (v < math.inf))):
        raise ValueError("densities and values must be finite and positive for a log-log fit")
    slope, _ = np.polyfit(np.log(d), np.log(v), 1)
    return float(slope)
