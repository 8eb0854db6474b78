"""Link-level channel model: LOS/NLOS/blockage states, path loss, shadowing,
sectored antenna gains, and received power.

The model is a parameterized statistical stand-in for measurement-based
urban 28 GHz channels: a Friis intercept at 1 m, dual-slope distance
exponents, lognormal shadowing, an exponentially decaying LOS probability,
and a blockage (outage) state that is either a hard coverage radius or a
smooth exponential ramp. The antenna pattern is flat-top sectored
(mainlobe within a beamwidth, sidelobe floor outside).

Links are realized one way, in bulk, by `LinkTable.realize_block`; a
`LinkTable` holds the live links of one or more drops (a single drop is
a block of one). Most links of a default drop are OUT (about 3% of its
(BS, UE) pairs lie inside the hard coverage radius), so the table lists
only the live links, as flat row-major arrays with their state and torus
geometry, and builds the dense (B, U) state only on demand; `allocation`
derives the interference gains (geometric beam pointing, the only model)
from them. A block table lays its drops side by side, with drop-offset
BS, UE and site indices, and no link crosses a drop. A cell grid finds the
candidate links (inside the hard radius, or all links under the
exponential model), and geometry and LOS probabilities are computed on
those alone, path loss and received power on the links that are not OUT.
The random draws stay full-shaped and per drop (one uniform and one
normal per site link of the drop, in that order, from the drop's own
generator), so the streams do not depend on which links are live or on
which drops share a block.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import geometry   # wrapped_delta is looked up on the module at call time
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


def _reach_m(params: ChannelParams) -> float:
    """Distance beyond which a link is OUT for sure: the hard radius, or inf."""
    return outage_radius_m(params) if params.outage_model == "hard_radius" else math.inf


def _states_from_uniforms(distance_m, uniform, params: ChannelParams) -> np.ndarray:
    """LOS/NLOS/OUT of candidate links (within reach), one uniform each."""
    p_los, p_nlos, _ = state_probabilities(distance_m, params)
    drawn = np.full(np.shape(uniform), LinkState.OUT, dtype=np.int8)
    drawn[uniform < p_los + p_nlos] = LinkState.NLOS
    drawn[uniform < p_los] = LinkState.LOS
    return drawn


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


def beam_gain_db(cos_off_boresight, mainlobe_db, sidelobe_db, beamwidth_deg):
    """Sectored pattern read from the cosine of the off-boresight angle:
    mainlobe within half the beamwidth, edge inclusive (cosine at least
    cos(beamwidth / 2)), sidelobe outside. A NaN cosine (0/0, coincident
    points) is mainlobe. A 360-deg beam is omnidirectional: its edge is
    -inf, as an antiparallel pair's cosine can round below -1."""
    edge = -math.inf if beamwidth_deg >= 360.0 else math.cos(math.radians(beamwidth_deg / 2.0))
    g = np.where(np.asarray(cos_off_boresight, dtype=float) < edge, sidelobe_db, mainlobe_db)
    return float(g) if np.isscalar(cos_off_boresight) else g


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power over a bandwidth, plus the receiver noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be > 0")
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


_MAX_CELLS = 1024   # grid cells per axis; wider cells only add candidates


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The aranges [start[i], start[i] + count[i]) concatenated in order."""
    start, count = start.ravel(), count.ravel()
    return np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())


def _sites(xy: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (N, 2) array within each group (ascending group
    labels): each site's first row and every row's site, with sites in
    (group, x, y) lexicographic order. For one group these are
    `np.unique(xy, axis=0, return_index=True, return_inverse=True)[1:]`,
    at a fraction of its cost on a drop's few dozen rows."""
    order = np.lexsort((xy[:, 1], xy[:, 0], group))   # stable: first rows first
    s = xy.take(order, axis=0)
    g = group.take(order)
    new = np.empty(len(xy), dtype=bool)
    new[:1] = True
    new[1:] = (s[1:, 0] != s[:-1, 0]) | (s[1:, 1] != s[:-1, 1]) | (g[1:] != g[:-1])
    site_of = np.empty(len(xy), dtype=np.int64)
    site_of[order] = np.cumsum(new) - 1
    return order[new], site_of


def _cells_per_axis(side: float, reach_km: float) -> int:
    """Grid cells along a side: as many as fit cells of the reach plus a
    rounding margin, at least 1 (an infinite reach) and at most _MAX_CELLS."""
    cell_min = reach_km * (1.0 + 1e-6)
    if cell_min * _MAX_CELLS < side:
        return _MAX_CELLS
    return max(1, int(side // cell_min))


def candidate_share(region: Region, params: ChannelParams) -> float:
    """The share of a drop's (site, UE) pairs that `LinkTable.realize_block`
    expects to list as candidates: the cells a site's 3 x 3 neighbourhood
    covers, out of the grid's, and every pair where the grid is not built
    (the exponential outage model, or at most 3 cells per axis)."""
    reach_km = _reach_m(params) / 1000.0
    share = 1.0
    for side in (region.width_km, region.height_km):
        n = _cells_per_axis(side, reach_km)
        share *= min(n, 3) / n
    return share


def _candidate_pairs(p_xy: np.ndarray, p_group: np.ndarray, q_xy: np.ndarray,
                     q_count: np.ndarray, region: Region,
                     reach_km: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), in row-major order, of a superset of the pairs
    (p_i, q_j) of one group that lie within `reach_km` of each other.

    `p_group` labels each p with its group, ascending; group g owns the
    next `q_count[g]` rows of `q_xy`. The grid's cells are at least the
    reach (plus a rounding margin) wide, on coordinates reduced mod the
    region's sides, so a pair within reach under the torus or the flat
    metric lies in one cell or in two adjacent ones, counted cyclically.
    Each p is paired with its group's q's in its cell and its neighbours;
    the per-axis neighbour offsets are deduplicated mod the cell count, and
    each group has its own copy of the grid. With at most three cells per
    axis (an infinite reach gives one) every cell neighbours every other,
    so every pair of a group is a candidate, once, and the grid is not
    built.
    """
    nx, ny = (_cells_per_axis(side, reach_km) for side in (region.width_km, region.height_km))
    q_start = np.cumsum(q_count) - q_count
    if max(nx, ny) <= 3:
        per_p = q_count.take(p_group)
        return (np.repeat(np.arange(len(p_xy)), per_p),
                _ranges(q_start.take(p_group), per_p))
    sides = np.array([region.width_km, region.height_km])
    n = np.array([nx, ny])
    cell = sides / n

    def cells(xy):   # (N, 2) cell indices; x % w can round up to w itself
        return np.minimum(((xy % sides) / cell).astype(np.int64), n - 1)

    kq = cells(q_xy)
    q_cell = (np.repeat(np.arange(len(q_count)) * (nx * ny), q_count)
              + kq[:, 0] + nx * kq[:, 1])
    order = np.argsort(q_cell, kind="stable")
    sorted_cells = q_cell.take(order)
    kp = cells(p_xy)
    # neighbour offsets -1, 0, 1 per axis, of which the first m are distinct mod m
    dx, dy = (np.array([-1, 0, 1][:m]) % m for m in (nx, ny))
    near = ((p_group * (nx * ny))[:, None, None]
            + (kp[:, 0, None, None] + dx[:, None]) % nx
            + nx * ((kp[:, 1, None, None] + dy) % ny)).reshape(len(p_xy), dx.size * dy.size)
    lo = np.searchsorted(sorted_cells, near, side="left")
    count = np.searchsorted(sorted_cells, near, side="right") - lo
    n_q = max(len(q_xy), 1)
    keys = (np.repeat(np.arange(len(p_xy)) * n_q, count.sum(axis=1))
            + order.take(_ranges(lo, count)))
    keys.sort()   # a p's q's came cell by cell
    return np.divmod(keys, n_q)


@dataclass
class LinkTable:
    """The live BS->UE links of one drop, or of a block of drops, realized
    in bulk.

    Only a few percent of a drop's (BS, UE) pairs are not OUT, so the table
    keeps those live links alone, as flat arrays in row-major (b, u) order
    (ascending BS, then ascending UE): `link_bs` and `link_ue` name each
    link, and `link_state`, `delta_km`, `path_loss_db`, `shadowing_db` and
    `serving_rx_dbm` hold its state, torus geometry and link budget.
    `serving_rx_dbm` is the long-term received power with boresight-aligned
    gains on both ends (the blind association metric).
    A block table lays its drops side by side: drop d's BSs, UEs and sites
    follow those of the drops before it, and no link crosses a drop, so
    each UE's links are its own drop's, in ascending BS order.
    `site_of_bs` labels the BSs that share coordinates within a drop (one
    tower): SINR evaluation compares these ids to find a victim's serving
    site. The dense views are built on demand, for the small instances of
    the coordination-gap search and for tests: `state` is the (B, U) int8
    state, OUT wherever no link is listed, and `dense` scatters a per-link
    array to (B, U); `at_links` gathers a (B, U) mask at the live links.

    `realize_block` finds candidate (site, UE) pairs with a cell grid
    (`_candidate_pairs`), computes `wrapped_delta` and distances on those
    alone, and draws states for the pairs within the outage reach
    (`_states_from_uniforms`, one uniform each). Each drop keeps its own
    generator: the uniform (state) and normal (shadowing) draws stay
    full-shaped per site link of the drop, in that order, and are read at
    its pairs, so the random streams do not depend on which links are live
    or on the other drops of the block; every entry equals that of a dense
    evaluation of the drop alone over all pairs.
    """

    region: Region
    bs_xy: np.ndarray          # (B, 2) km
    ue_xy: np.ndarray          # (U, 2) km
    tx_power_dbm: float
    antenna: AntennaModel
    site_of_bs: np.ndarray     # (B,) int64, equal for BSs of one drop at equal coordinates
    link_bs: np.ndarray        # (L,) int64, live links in row-major (b, u) order
    link_ue: np.ndarray        # (L,) int64
    link_state: np.ndarray     # (L,) int8, LOS or NLOS
    delta_km: np.ndarray       # (L, 2), BS -> UE displacement under the region metric
    path_loss_db: np.ndarray   # (L,)
    shadowing_db: np.ndarray   # (L,)
    serving_rx_dbm: np.ndarray  # (L,)

    @property
    def n_bs(self) -> int:
        return len(self.bs_xy)

    @property
    def n_ue(self) -> int:
        return len(self.ue_xy)

    @property
    def state(self) -> np.ndarray:
        """(B, U) int8 link states, OUT wherever no link is listed."""
        return self.dense(self.link_state, LinkState.OUT).astype(np.int8)

    def dense(self, values, fill: float) -> np.ndarray:
        """(B, U) array: per-link `values` at the live links, `fill` elsewhere."""
        out = np.full((self.n_bs, self.n_ue), fill)
        out[self.link_bs, self.link_ue] = values
        return out

    def at_links(self, values_bu) -> np.ndarray:
        """(L,) entries of a (B, U) array at the live links."""
        return np.asarray(values_bu).ravel().take(self.link_bs * self.n_ue + self.link_ue)

    @classmethod
    def realize_block(cls, drops, region, tx_power_dbm, params, antenna) -> "LinkTable":
        """One table for a block of drops, each given as (bs_xy, ue_xy, seed)."""
        bs_parts = [np.asarray(b, dtype=float).reshape(-1, 2) for b, _, _ in drops]
        ue_parts = [np.asarray(u, dtype=float).reshape(-1, 2) for _, u, _ in drops]
        bs_xy, ue_xy = np.concatenate(bs_parts), np.concatenate(ue_parts)
        n_drops, n_bs = len(drops), len(bs_xy)
        n_ue_of = np.array([len(u) for u in ue_parts], dtype=np.int64)
        ue_start = np.cumsum(n_ue_of) - n_ue_of

        # Transmitters mounted on one tower share the propagation path, so
        # state and shadowing are drawn per site (exact coordinate match
        # within a drop) and expanded to co-located BSs. With all-distinct
        # positions this is a relabeling of the per-BS draw. A site's
        # coordinates are those of its first BS exactly.
        drop_of_bs = np.repeat(np.arange(n_drops), [len(b) for b in bs_parts])
        first_bs, site_of_bs = _sites(bs_xy, drop_of_bs)
        site_xy = bs_xy.take(first_bs, axis=0)
        drop_of_site = drop_of_bs.take(first_bs)
        n_site_of = np.bincount(drop_of_site, minlength=n_drops)
        site_end = np.cumsum(n_site_of)
        # pair (site, ue) has row-major key site_key[site] + ue in its drop's grid
        site_key = ((np.arange(len(first_bs)) - (site_end - n_site_of).take(drop_of_site))
                    * n_ue_of.take(drop_of_site) - ue_start.take(drop_of_site))
        reach_m = _reach_m(params)

        # geometry on candidate site links only; states where within reach.
        # Rows are gathered with take(axis=0), which is several times
        # cheaper than fancy indexing on (N, 2) arrays.
        site, ue = _candidate_pairs(site_xy, drop_of_site, ue_xy, n_ue_of, region,
                                    reach_m / 1000.0)
        delta = geometry.wrapped_delta(site_xy.take(site, axis=0), ue_xy.take(ue, axis=0),
                                       region)
        dist = 1000.0 * np.hypot(delta[:, 0], delta[:, 1])
        near = np.flatnonzero(dist <= reach_m)
        near_site = site.take(near)
        key = site_key.take(near_site) + ue.take(near)
        uniform, normal = np.empty(len(near)), np.empty(len(near))
        cuts = [0, *np.searchsorted(near_site, site_end).tolist()]
        for d, (_, _, seed) in enumerate(drops):
            rng = np.random.default_rng(seed)
            size = int(n_site_of[d] * n_ue_of[d])
            at = slice(cuts[d], cuts[d + 1])
            rng.random(size).take(key[at], out=uniform[at])
            # standard_normal draws the stream and values of normal(0.0, 1.0)
            rng.standard_normal(size).take(key[at], out=normal[at])
        drawn = _states_from_uniforms(dist.take(near), uniform, params)

        # path loss, shadowing and received power only where the link is not OUT
        kept = np.flatnonzero(drawn != LinkState.OUT)
        live = near.take(kept)
        site, ue, dist, state = site.take(live), ue.take(live), dist.take(live), drawn.take(kept)
        delta = delta.take(live, axis=0)
        sigma = np.where(state == LinkState.LOS,
                         params.shadow_sigma_los_db, params.shadow_sigma_nlos_db)
        pl = path_loss_db(dist, state, params)
        shadow = normal.take(kept) * sigma
        rx = (tx_power_dbm + antenna.bs_mainlobe_gain_db + antenna.ue_mainlobe_gain_db
              - pl - shadow)

        # each BS takes its site's links, which are ordered by UE already
        count = np.bincount(site, minlength=len(first_bs))
        per_bs = count.take(site_of_bs)
        at = _ranges((np.cumsum(count) - count).take(site_of_bs), per_bs)
        return cls(region, bs_xy, ue_xy, tx_power_dbm, antenna, site_of_bs,
                   np.repeat(np.arange(n_bs), per_bs), ue.take(at), state.take(at),
                   delta.take(at, axis=0), pl.take(at), shadow.take(at), rx.take(at))
