"""Aggregation of per-UE Monte Carlo samples.

Empirical CDFs with nearest-rank percentiles (no interpolation, so results
are bit-reproducible), rate-outage fractions, log-log scaling-exponent
fits, and the density sweep that drives the capacity/outage-vs-density
figures. UEs are pooled across drops in drop-index order; unassociated
UEs stay in the population (rate 0, SINR -inf).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .experiment import run_drop
from .geometry import mix_seed

# offset separating the sweep's per-density seed streams from the
# scenario-comparison drop streams (which use k = drop index)
_SWEEP_SEED_BASE = 1_000_000


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
    if np.any(d <= 0) or np.any(v <= 0):
        raise ValueError("densities and values must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(d), np.log(v), 1)
    return float(slope)


@dataclass
class SweepResult:
    densities: np.ndarray          # BS/km^2 per operator
    median_rate_bps: np.ndarray
    p05_rate_bps: np.ndarray
    mean_rate_bps: np.ndarray
    outage_fraction: np.ndarray
    fitted_exponent: float         # log-log slope of mean rate vs density (nan if degenerate)

    def __post_init__(self):
        n = len(self.densities)
        for name in ("median_rate_bps", "p05_rate_bps", "mean_rate_bps", "outage_fraction"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        of = np.asarray(self.outage_fraction, dtype=float)
        if np.any((of < 0) | (of > 1)):
            raise ValueError("outage fractions must lie in [0, 1]")


def run_sweep(config: ExperimentConfig, densities, drops: int | None = None) -> SweepResult:
    """Pooled per-UE statistics of the configured scenario at each BS density.

    Density index i runs `drops` drops seeded from
    mix_seed(mix_seed(master_seed, 1000000 + i), j); results are
    deterministic given the config and master seed.
    """
    densities = [float(d) for d in densities]
    if not densities:
        raise ValueError("need at least one density")
    if any(d <= 0 for d in densities):
        raise ValueError("densities must be > 0")
    n_drops = config.drops if drops is None else int(drops)
    if n_drops < 1:
        raise ValueError("drops must be >= 1")

    medians, p05s, means, outages = [], [], [], []
    for i, rho in enumerate(densities):
        cfg = replace(config, bs_density_per_km2=rho)
        base = mix_seed(config.master_seed, _SWEEP_SEED_BASE + i)
        parts = [run_drop(cfg, cfg.scenario.kind, mix_seed(base, j)).rate_bps
                 for j in range(n_drops)]
        rates = np.concatenate(parts)
        c = cdf(rates)
        medians.append(percentile(c, 0.5))
        p05s.append(percentile(c, 0.05))
        means.append(float(rates.mean()))
        outages.append(outage_rate(rates, config.rate.target_rate_bps))

    if len(densities) >= 3 and all(m > 0 for m in means):
        exponent = fit_scaling_exponent(densities, means)
    else:
        exponent = math.nan
    return SweepResult(np.asarray(densities), np.asarray(medians),
                       np.asarray(p05s), np.asarray(means),
                       np.asarray(outages), exponent)
