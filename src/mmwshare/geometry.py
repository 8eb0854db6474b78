"""Spatial deployments: Poisson point processes on a rectangle with torus distance.

Base stations and users are dropped as independent homogeneous PPPs and
returned as plain (n, 2) position arrays; which operator owns which point
is left to `scenario`. The default region wraps around (torus metric) so
that interference statistics are free of edge effects; the flat metric is
kept for debugging.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(master_seed: int, k: int) -> int:
    """Derive the k-th child seed from a master seed.

    Uses the SplitMix64 output function evaluated at stream offset ``k``,
    so child streams are reproducible across runs and implementations:
    ``z = finalize(master + (k + 1) * 0x9E3779B97F4A7C15)`` with the
    standard 64-bit xor-shift/multiply finalizer.
    """
    z = (master_seed + (k + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Region:
    """Rectangular deployment region, optionally with wraparound distance."""

    width_km: float = 1.0
    height_km: float = 1.0
    wraparound: bool = True

    def __post_init__(self):
        for side in (self.width_km, self.height_km):
            if not (math.isfinite(side) and side > 0):
                raise ValueError("region dimensions must be finite and positive")

    @property
    def area_km2(self) -> float:
        return self.width_km * self.height_km


def deploy_ppp(density_per_km2: float, region: Region, seed: int) -> np.ndarray:
    """Draw one homogeneous PPP realization on the region.

    The point count is Poisson(density * area) and positions are i.i.d.
    uniform. Identical (density, region, seed) gives a bit-identical array.

    Returns an (n, 2) array of (x_km, y_km) positions.
    """
    if density_per_km2 < 0:
        raise ValueError(f"density must be >= 0, got {density_per_km2}")
    rng = np.random.default_rng(seed)
    n = rng.poisson(density_per_km2 * region.area_km2)
    xy = np.empty((n, 2))
    xy[:, 0] = rng.uniform(0.0, region.width_km, n)
    xy[:, 1] = rng.uniform(0.0, region.height_km, n)
    return xy


def wrapped_delta(p_xy: np.ndarray, q_xy: np.ndarray, region: Region) -> np.ndarray:
    """Displacement q - p under the region metric (minimum torus image if wrapping)."""
    d = np.asarray(q_xy, dtype=float) - np.asarray(p_xy, dtype=float)
    if region.wraparound:
        w, h = region.width_km, region.height_km
        d[..., 0] -= w * np.round(d[..., 0] / w)
        d[..., 1] -= h * np.round(d[..., 1] / h)
    return d


def avg_cell_radius_m(density_per_km2: float) -> float:
    """Radius in meters of a disc whose area is the mean cell area 1/density."""
    if density_per_km2 <= 0:
        raise ValueError(f"density must be > 0, got {density_per_km2}")
    return 1000.0 / math.sqrt(math.pi * density_per_km2)


def deploy_operator(
    bs_density_per_km2: float,
    ue_density_per_km2: float,
    region: Region,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop one operator's BSs and UEs from independent child streams of `seed`.

    Returns (bs_xy, ue_xy), drawn from mix_seed(seed, 0) and mix_seed(seed, 1).
    """
    return (deploy_ppp(bs_density_per_km2, region, mix_seed(seed, 0)),
            deploy_ppp(ue_density_per_km2, region, mix_seed(seed, 1)))
