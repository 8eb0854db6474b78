"""Pure aggregation of per-UE Monte Carlo samples.

Empirical CDFs with nearest-rank percentiles (no interpolation, so results
are bit-reproducible), rate-outage fractions and log-log scaling-exponent
fits. Nothing here runs a drop: the run layer pools the samples (in
drop-index order, unassociated UEs kept with rate 0 and SINR -inf) and
calls these functions on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class EmpiricalCdf:
    """Right-continuous empirical distribution of a sample set."""

    sorted_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.sorted_values, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("need a non-empty 1-d sample array")
        if np.any(v[:-1] > v[1:]):   # avoids inf - inf of np.diff on outage-heavy samples
            raise ValueError("values must be sorted non-decreasing")
        self.sorted_values = v

    @property
    def n(self) -> int:
        return len(self.sorted_values)

    def evaluate(self, x):
        """F(x) = P(X <= x), right-continuous, 0 below the sample range."""
        r = np.searchsorted(self.sorted_values, x, side="right") / self.n
        return float(r) if np.isscalar(x) else r


def cdf(samples) -> EmpiricalCdf:
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ValueError("empty population: no samples to aggregate")
    return EmpiricalCdf(np.sort(s, kind="stable"))


def percentile(c: EmpiricalCdf, p: float) -> float:
    """Nearest-rank percentile: the sample at 1-based rank ceil(p*n).

    A tiny epsilon guards against p*n landing just above an integer from
    float rounding (e.g. 0.07*100), which would otherwise shift the rank.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    rank = max(1, math.ceil(p * c.n - 1e-9))
    return float(c.sorted_values[rank - 1])


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
    if np.unique(d).size < 2:
        raise ValueError("need at least two distinct densities for a slope")
    if np.any(d <= 0) or np.any(v <= 0):
        raise ValueError("densities and values must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(d), np.log(v), 1)
    return float(slope)
