"""Link-level channel model: LOS/NLOS/blockage states, path loss, shadowing,
sectored antenna gains, and received power.

The model is a parameterized statistical stand-in for measurement-based
urban 28 GHz channels: a Friis intercept at 1 m, dual-slope distance
exponents, lognormal shadowing, an exponentially decaying LOS probability,
and a blockage (outage) state that is either a hard coverage radius or a
smooth exponential ramp. The antenna pattern is flat-top sectored
(mainlobe within a beamwidth, sidelobe floor outside).

Links are realized one way, in bulk per drop, by `LinkTable.realize`. The
table carries the drop's geometry; `allocation` derives the interference
gains (geometric beam pointing, the only model) from it. Geometry and the
random draws are full-shaped (one uniform and one normal per site link,
in that order); the transcendental work runs only on the links it can
affect: LOS probabilities on candidate links (inside the hard radius, or
all links under the exponential model), path loss and received power on
links that are not OUT. Most links of a default drop are OUT.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .geometry import Region

THERMAL_NOISE_DBM_PER_HZ = -174.0


def require_finite(params, error: type[ValueError] = ValueError) -> None:
    """Raise `error` if a float field of a parameter dataclass is NaN or infinite."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if f.type in ("float", float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")


class LinkState(IntEnum):
    LOS = 0
    NLOS = 1
    OUT = 2


@dataclass
class ChannelParams:
    """Propagation model parameters (defaults target dense-urban 28 GHz)."""

    carrier_ghz: float = 28.0
    pl_exponent_los: float = 2.0
    pl_exponent_nlos: float = 2.7
    pl_intercept_db: float = 61.4       # dB at 1 m (Friis at 28 GHz)
    shadow_sigma_los_db: float = 4.0
    shadow_sigma_nlos_db: float = 7.0
    outage_model: str = "hard_radius"   # "hard_radius" | "exponential"
    hard_coverage_area_km2: float = 0.03
    los_decay_per_m: float = 1.0 / 67.1
    outage_rise_per_m: float = 1.0 / 200.0  # exponential mode only

    def __post_init__(self):
        require_finite(self)
        if self.outage_model not in ("hard_radius", "exponential"):
            raise ValueError(f"unknown outage_model {self.outage_model!r}")
        if self.shadow_sigma_los_db < 0 or self.shadow_sigma_nlos_db < 0:
            raise ValueError("shadowing sigmas must be >= 0")
        if self.hard_coverage_area_km2 <= 0:
            raise ValueError("hard_coverage_area_km2 must be > 0")
        if self.los_decay_per_m < 0 or self.outage_rise_per_m < 0:
            raise ValueError("decay rates must be >= 0")


@dataclass
class AntennaModel:
    """Flat-top sectored beam patterns for the BS and UE sides."""

    bs_mainlobe_gain_db: float = 20.0
    bs_sidelobe_gain_db: float = -10.0
    bs_beamwidth_deg: float = 10.0
    ue_mainlobe_gain_db: float = 10.0
    ue_sidelobe_gain_db: float = -10.0
    ue_beamwidth_deg: float = 30.0

    def __post_init__(self):
        require_finite(self)
        for bw in (self.bs_beamwidth_deg, self.ue_beamwidth_deg):
            if not 0 < bw <= 360:
                raise ValueError("beamwidths must be in (0, 360]")
        if self.bs_mainlobe_gain_db <= self.bs_sidelobe_gain_db:
            raise ValueError("BS mainlobe must exceed sidelobe")
        if self.ue_mainlobe_gain_db <= self.ue_sidelobe_gain_db:
            raise ValueError("UE mainlobe must exceed sidelobe")


def friis_intercept_db(carrier_ghz: float) -> float:
    """Free-space path loss at 1 m: 20*log10(4*pi*f/c)."""
    return 20.0 * math.log10(4.0 * math.pi * 1.0 * carrier_ghz * 1e9 / 299_792_458.0)


def outage_radius_m(params: ChannelParams) -> float:
    """Hard-blockage radius: the radius of a disc of the per-cell coverage area."""
    return 1000.0 * math.sqrt(params.hard_coverage_area_km2 / math.pi)


def _exact_pair(total, part):
    """Split `total` as (part, total - part) with an exactly representable sum.

    The smaller half is recomputed as the complement of the larger, which is
    exact by the Sterbenz lemma, so a + b == total holds bit-exactly.
    """
    other = total - part
    a = np.where(part >= other, part, total - other)
    b = np.where(part >= other, total - part, other)
    return a, b


def state_probabilities(distance_m, params: ChannelParams):
    """Return (p_los, p_nlos, p_out) for one or many distances.

    The triple sums to 1 exactly under the grouping ``p_los + (p_nlos + p_out)``.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be >= 0")
    p_los_raw = np.exp(-d * params.los_decay_per_m)
    if params.outage_model == "hard_radius":
        inside = d <= outage_radius_m(params)
        p_los, p_nlos = _exact_pair(1.0, p_los_raw)
        p_los = np.where(inside, p_los, 0.0)
        p_nlos = np.where(inside, p_nlos, 0.0)
        p_out = np.where(inside, 0.0, 1.0)
    else:
        p_los, rest = _exact_pair(1.0, p_los_raw)
        survive = np.exp(-d * params.outage_rise_per_m)
        p_nlos, p_out = _exact_pair(rest, rest * survive)
    if np.isscalar(distance_m):
        return float(p_los), float(p_nlos), float(p_out)
    return p_los, p_nlos, p_out


def draw_link_states(distance_m, params: ChannelParams, rng: np.random.Generator):
    """Draw LOS/NLOS/OUT states for an array of distances (one uniform per link).

    The uniforms are drawn full-shaped, one per link, whatever the states;
    LOS/NLOS probabilities are computed only for candidate links, those that
    can be anything but OUT: inside the hard radius, or every link under the
    exponential outage model. The rest are OUT.
    """
    d = np.asarray(distance_m, dtype=float)
    reach_m = outage_radius_m(params) if params.outage_model == "hard_radius" else math.inf
    candidate = d <= reach_m
    p_los, p_nlos, _ = state_probabilities(d[candidate], params)
    u = rng.random(d.shape)[candidate]
    drawn = np.full(u.shape, LinkState.OUT, dtype=np.int8)
    drawn[u < p_los + p_nlos] = LinkState.NLOS
    drawn[u < p_los] = LinkState.LOS
    states = np.full(d.shape, LinkState.OUT, dtype=np.int8)
    states[candidate] = drawn
    return states


def path_loss_db(distance_m, state, params: ChannelParams):
    """Distance-power-law path loss in dB; distances are clamped below 1 m."""
    state_arr = np.asarray(state)
    if np.any(state_arr == LinkState.OUT):
        raise ValueError("path loss is undefined for blocked (OUT) links")
    d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
    exponent = np.where(state_arr == LinkState.LOS,
                        params.pl_exponent_los, params.pl_exponent_nlos)
    pl = params.pl_intercept_db + 10.0 * exponent * np.log10(d)
    return float(pl) if np.isscalar(distance_m) else pl


def beam_gain_db(angle_off_boresight_deg, mainlobe_db, sidelobe_db, beamwidth_deg):
    """Sectored pattern: mainlobe inside the half-beamwidth (inclusive), sidelobe outside."""
    a = np.abs(np.asarray(angle_off_boresight_deg, dtype=float)) % 360.0
    a = np.minimum(a, 360.0 - a)
    g = np.where(a <= beamwidth_deg / 2.0, mainlobe_db, sidelobe_db)
    return float(g) if np.isscalar(angle_off_boresight_deg) else g


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power over a bandwidth, plus the receiver noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be > 0")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


@dataclass
class LinkTable:
    """All BS->UE links of one drop, realized in bulk.

    `serving_rx_dbm` is the long-term received power with boresight-aligned
    gains on both ends (the blind association metric); blocked links are -inf.
    The table also carries the drop's torus geometry: `delta_km` is computed
    once here, and SINR evaluation reads its interference angles from it.

    `realize` fills `delta_km`, `dist_m` and `state` on every entry; path
    loss, shadowing and `serving_rx_dbm` are computed only where the link
    is not OUT, and the OUT entries hold +inf, 0 and -inf. The uniform
    (state) and normal (shadowing) draws stay full-shaped per site link,
    so the random streams do not depend on which links are live.
    """

    region: Region
    bs_xy: np.ndarray          # (B, 2) km
    ue_xy: np.ndarray          # (U, 2) km
    tx_power_dbm: float
    params: ChannelParams
    antenna: AntennaModel
    delta_km: np.ndarray       # (B, U, 2), BS -> UE displacement under the region metric
    dist_m: np.ndarray         # (B, U), 1000 * |delta_km|
    state: np.ndarray          # (B, U) int8
    path_loss_db: np.ndarray   # (B, U), +inf where OUT
    shadowing_db: np.ndarray   # (B, U), 0 where OUT
    serving_rx_dbm: np.ndarray  # (B, U), -inf where OUT

    @property
    def n_bs(self) -> int:
        return len(self.bs_xy)

    @property
    def n_ue(self) -> int:
        return len(self.ue_xy)

    @classmethod
    def realize(cls, bs_xy, ue_xy, region, tx_power_dbm, params, antenna, seed: int) -> "LinkTable":
        from .geometry import wrapped_delta

        rng = np.random.default_rng(seed)
        bs_xy = np.asarray(bs_xy, dtype=float).reshape(-1, 2)
        ue_xy = np.asarray(ue_xy, dtype=float).reshape(-1, 2)
        n_ue = len(ue_xy)
        delta_km = wrapped_delta(bs_xy[:, None, :], ue_xy[None, :, :], region)
        dist_m = 1000.0 * np.hypot(delta_km[..., 0], delta_km[..., 1])

        # Transmitters mounted on one tower share the propagation path, so
        # state and shadowing are drawn per site (exact coordinate match)
        # and expanded to co-located BSs. With all-distinct positions this
        # is a relabeling of the per-BS draw. A site's distances are those
        # of its first BS, whose coordinates are the site's exactly.
        _, first_bs, site_of_bs = np.unique(bs_xy, axis=0, return_index=True,
                                            return_inverse=True)
        site_of_bs = site_of_bs.reshape(-1)
        site_states = draw_link_states(dist_m[first_bs], params, rng)
        normal = rng.normal(0.0, 1.0, (len(first_bs), n_ue))
        states = site_states[site_of_bs]

        # path loss, shadowing and received power only where the link is not OUT
        live = np.nonzero(states != LinkState.OUT)
        state_live = states[live]
        sigma = np.where(state_live == LinkState.LOS,
                         params.shadow_sigma_los_db, params.shadow_sigma_nlos_db)
        pl_live = path_loss_db(dist_m[live], state_live, params)
        shadow_live = normal[site_of_bs[live[0]], live[1]] * sigma
        pl = np.full(dist_m.shape, np.inf)
        shadow = np.zeros(dist_m.shape)
        rx = np.full(dist_m.shape, -np.inf)
        pl[live] = pl_live
        shadow[live] = shadow_live
        rx[live] = (tx_power_dbm + antenna.bs_mainlobe_gain_db + antenna.ue_mainlobe_gain_db
                    - pl_live - shadow_live)
        return cls(region, bs_xy, ue_xy, tx_power_dbm, params, antenna,
                   delta_km, dist_m, states, pl, shadow, rx)
