"""Closed-form scaling laws for dense mmWave networks under sharing.

Pure functions giving the analytic side of the story the Monte Carlo
engine simulates: bandwidth per user, rate-scaling exponents in the
interference- and power-limited regimes, the linear outage-decay model,
and the PPP nearest-neighbor distance constant behind d = O(rho^-1/2).
`summary` evaluates them all at an experiment config.
"""
from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig

REGIMES = ("InterferenceLimited", "PowerLimited")


def bandwidth_per_ue(w_hz: float, n_bs: int, n_ue: int, m: int, sharing: bool) -> float:
    """Mean bandwidth per UE: W*N_BS/N_UE pooled, 1/M of that per-license.

    The unshared branch divides the shared value by M as its final step, so
    the shared/unshared ratio is exactly M (for the operator counts in
    practical use; see the invariant notes in the tests).
    """
    if w_hz <= 0 or n_bs <= 0 or m < 1:
        raise ValueError("W, N_BS must be > 0 and M >= 1")
    if n_ue <= 0:
        raise ValueError("N_UE must be > 0")
    shared = w_hz * n_bs / n_ue
    return shared if sharing else shared / m


def rate_scaling_exponent(regime: str, alpha_pl: float) -> float:
    """d log(rate) / d log(density): 1 when interference-limited, alpha/2 power-limited."""
    if alpha_pl <= 0:
        raise ValueError("alpha_pl must be > 0")
    if regime == "InterferenceLimited":
        return 1.0
    if regime == "PowerLimited":
        return alpha_pl / 2.0
    raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")


def outage_fraction(a_c_km2: float, rho):
    """Fraction of UEs uncovered when each cell covers a fixed area: max(1 - A_c*rho, 0)."""
    if a_c_km2 <= 0:
        raise ValueError("A_c must be > 0")
    r = np.asarray(rho, dtype=float)
    if np.any(r < 0):
        raise ValueError("rho must be >= 0")
    f = np.maximum(1.0 - a_c_km2 * r, 0.0)
    return float(f) if np.isscalar(rho) else f


def nearest_distance_scaling(rho: float) -> float:
    """Mean distance (km) to the nearest point of a PPP of intensity rho: 1/(2*sqrt(rho))."""
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return 1.0 / (2.0 * math.sqrt(rho))


def summary(config: ExperimentConfig) -> dict:
    """All closed forms evaluated at one config, for tabular display.

    rho is the per-operator BS density, M the operator count and W the
    pooled bandwidth of `config.scenario`. N_BS and N_UE are one
    operator's expected counts on the region, max(1, round(density x
    area)). alpha is the NLOS path-loss exponent and A_c the hard-coverage
    area of `config.channel`.
    """
    rho = config.bs_density_per_km2
    m = config.scenario.num_operators
    w_hz = config.scenario.total_bandwidth_hz
    area = config.region.area_km2
    n_ue = max(1, round(config.ue_density_per_km2 * area))
    n_bs = max(1, round(rho * area))
    alpha = config.channel.pl_exponent_nlos
    return {
        "effective_density_per_km2": m * rho,
        "bandwidth_per_ue_shared_hz": bandwidth_per_ue(w_hz, n_bs, n_ue, m, True),
        "bandwidth_per_ue_unshared_hz": bandwidth_per_ue(w_hz, n_bs, n_ue, m, False),
        "rate_exponent_interference_limited":
            rate_scaling_exponent("InterferenceLimited", alpha),
        "rate_exponent_power_limited": rate_scaling_exponent("PowerLimited", alpha),
        "outage_fraction": outage_fraction(config.channel.hard_coverage_area_km2, rho),
        "nearest_bs_distance_km": nearest_distance_scaling(rho),
    }
