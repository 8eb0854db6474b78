"""Closed-form scaling laws for dense mmWave networks under sharing.

Pure functions giving the analytic side of the story the Monte Carlo
engine simulates: bandwidth per user, rate-scaling exponents in the
interference- and power-limited regimes, the linear outage-decay model,
and the PPP nearest-neighbor distance constant behind d = O(rho^-1/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import require_finite

REGIMES = ("InterferenceLimited", "PowerLimited")


@dataclass(frozen=True)
class ScalingInputs:
    """Inputs to the closed forms (one network snapshot, aggregate counts)."""

    rho: float            # BS density per km^2
    M: int = 2            # number of operators
    W_hz: float = 1e9     # total system bandwidth
    N_UE: int = 200
    N_BS: int = 30
    alpha_pl: float = 2.7
    A_c_km2: float = 0.03

    def __post_init__(self):
        require_finite(self)
        if self.rho < 0 or self.W_hz <= 0 or self.alpha_pl <= 0 or self.A_c_km2 <= 0:
            raise ValueError("rho must be >= 0; W, alpha, A_c must be > 0")
        if self.M < 1 or self.N_UE < 1 or self.N_BS < 1:
            raise ValueError("M, N_UE, N_BS must be >= 1")


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


def summary(inputs: ScalingInputs) -> dict:
    """All closed forms evaluated on one snapshot, for tabular display."""
    return {
        "effective_density_per_km2": inputs.M * inputs.rho,
        "bandwidth_per_ue_shared_hz":
            bandwidth_per_ue(inputs.W_hz, inputs.N_BS, inputs.N_UE, inputs.M, True),
        "bandwidth_per_ue_unshared_hz":
            bandwidth_per_ue(inputs.W_hz, inputs.N_BS, inputs.N_UE, inputs.M, False),
        "rate_exponent_interference_limited":
            rate_scaling_exponent("InterferenceLimited", inputs.alpha_pl),
        "rate_exponent_power_limited":
            rate_scaling_exponent("PowerLimited", inputs.alpha_pl),
        "outage_fraction": outage_fraction(inputs.A_c_km2, inputs.rho),
        "nearest_bs_distance_km":
            nearest_distance_scaling(inputs.rho) if inputs.rho > 0 else math.inf,
    }
