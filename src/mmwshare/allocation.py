"""User association, bandwidth splitting, SINR, and per-user rate.

The drop engine associates users one way, blindly: each UE attaches to
the accessible BS with the highest long-term received power, ignoring
interference. A brute-force coordinated upper bound (exhaustive search
over all UE -> accessible-BS assignments, re-evaluating loads, bandwidth
splits and interference for each, maximizing the sum rate) serves only
the small instances of the coordination-gap study: at most `_MAX_UES`
UEs and `_MAX_ASSIGNMENTS` assignments.

Interference has one model, deterministic given positions and an
association. A served UE's SINR is its serving-link power over the sum of
noise, taken over its allocated bandwidth, and the power of every loaded
co-channel BS off its serving site whose link to it is not OUT. Every
loaded BS aims its mainlobe at its lowest-index attached UE, every victim
UE aims at its serving BS, and both sectored gains are read from the
true (torus) geometry: a link is in a beam's mainlobe iff the cosine of
its off-boresight angle is at least cos(beamwidth / 2) (`beam_gain_db`),
and a zero displacement (coincident points, a 0/0 cosine) counts as
boresight-aligned. Transmitters mounted at the victim's serving site are
scheduled orthogonally by the shared site and add no interference (this
only triggers under co-located deployments, where the victim's receive
mainlobe would otherwise point straight at the co-sited array).

The serving site is the `LinkTable`'s `site_of_bs` label: BSs at equal
coordinates share one. Two implementations of the model read the table,
one per use:
- `network_sinr`, vectorized over a whole drop for Monte Carlo volume.
  It works on the table's flat live links (co-channel, loaded, off the
  victim's serving site; a few percent of a default drop's pairs) and
  adds them per UE in ascending BS order from +0.0, the same sequence
  as a dense sum over every BS with zeros elsewhere.
- one batched objective kernel that scores blocks of complete
  assignments. Its one caller is `coordinated_upper_bound`, which scores
  the blind baseline of the coordination-gap study as a one-row block and
  the exhaustive search in blocks of `_BLOCK_ROWS`. Per instance it
  tabulates every term of the model on dense (B, U) arrays, which suits
  the search's instances of at most `_MAX_UES` UEs, then evaluates each
  assignment per UE: noise, then interferers in ascending BS index in
  linear milliwatts, with scalar IEEE operations in a fixed order. Its
  values equal a scalar per-UE evaluation of the model bit for bit, and
  `network_sinr`'s only to rounding.

Boresights come from the table too. A served UE's receive boresight, and
the transmit boresight of a BS whose lowest-index attached UE it is, is
the displacement of the UE's serving link. `network_sinr` evaluates the
associations the drop engine makes: blind association serves only over
listed (live) links, so it reads that displacement, and the signal, from
the serving link's `delta_km` and `serving_rx_dbm`, and it refuses a UE
served over a blocked, unlisted link. A search assignment can serve over
a blocked link; the kernel scores it from the dense `wrapped_delta`
geometry of `_objective_tables`, with no signal. Both read every beam
through one gain step, `_sectored_gain_db`.

`associate_blind` reads the same flat links. Both take the sharing rules
as per-link flags, which the drop engine reads from the scenario's labels
(`RealizedScenario.access_at`, `cochannel_at`), and neither builds a
(B, U) array. A table may hold a block of drops side by side: no link
crosses a drop and every per-UE reduction adds a UE's own links in
ascending BS order, so each drop's values are those of the drop alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (THERMAL_NOISE_DBM_PER_HZ, LinkState, LinkTable,
                      beam_gain_db, noise_power_dbm, require_finite)
from .geometry import wrapped_delta

NONE = -1   # serving_bs value for an unassociated UE


class InstanceSizeError(ValueError):
    """Raised when an instance exceeds the brute-force search limits."""


@dataclass
class RateParams:
    eta: float = 0.5            # Shannon capacity rescaling
    duty_factor: float = 0.5    # TDD/half-duplex airtime share
    overhead_beta: float = 0.2  # control-plane overhead fraction
    target_rate_bps: float = 1e7  # below this a user counts as in outage

    def __post_init__(self):
        require_finite(self)
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if not 0.0 < self.duty_factor <= 1.0:
            raise ValueError("duty_factor must be in (0, 1]")
        if not 0.0 <= self.overhead_beta < 1.0:
            raise ValueError("overhead_beta must be in [0, 1)")
        if self.target_rate_bps < 0:
            raise ValueError("target_rate_bps must be >= 0")


@dataclass
class Association:
    """UE -> BS assignment with per-UE bandwidth and per-BS load."""

    serving_bs: np.ndarray      # (U,) int64, NONE where unassociated
    ue_bandwidth_hz: np.ndarray  # (U,) float, 0 where unassociated
    load: np.ndarray            # (B,) int64


def associate_blind(links: LinkTable, access: np.ndarray) -> np.ndarray:
    """(U,) int64 serving vector: each UE's strongest accessible BS, interference ignored.

    `access` flags each live link of the table whose BS may serve its UE
    (`RealizedScenario.access_at`, or `links.at_links` of a (B, U) mask).
    The metric is long-term received power with shadowing, read from the
    table's live links: a segment argmax over each UE's accessible live
    links. Ties break to the lowest BS index; a UE whose accessible links
    are all blocked stays unassociated.
    """
    ok = np.flatnonzero(access)
    b, u, rx = links.link_bs.take(ok), links.link_ue.take(ok), links.serving_rx_dbm.take(ok)
    best = np.full(links.n_ue, -np.inf)
    np.maximum.at(best, u, rx)
    win = rx == best.take(u)
    first = np.full(links.n_ue, links.n_bs)
    np.minimum.at(first, u[win], b[win])
    return np.where(first < links.n_bs, first, NONE)


def _bandwidth_share_hz(load: np.ndarray, pool_hz: float,
                        full_bandwidth: bool) -> np.ndarray:
    """Bandwidth of a served UE at a BS of `load` UEs: an equal split of the
    pool, or with `full_bandwidth` the whole pool (no per-BS conservation)."""
    if pool_hz <= 0:
        raise ValueError("pool bandwidth must be > 0")
    if full_bandwidth:
        return np.full(np.shape(load), float(pool_hz))
    return pool_hz / load


def split_bandwidth(serving_bs: np.ndarray, n_bs: int, pool_hz: float,
                    full_bandwidth: bool = False) -> Association:
    """Association of a (U,) serving vector: per-BS loads, and each served
    UE's bandwidth by `_bandwidth_share_hz` (0 Hz where unassociated)."""
    serving_bs = np.asarray(serving_bs, dtype=np.int64)
    served = serving_bs != NONE
    load = np.bincount(serving_bs[served], minlength=n_bs)
    w = np.zeros(len(serving_bs))
    w[served] = _bandwidth_share_hz(load[serving_bs[served]], pool_hz, full_bandwidth)
    return Association(serving_bs, w, load)


def interferer_targets(serving_bs: np.ndarray, n_bs: int) -> np.ndarray:
    """Per BS, the UE its mainlobe tracks: the lowest-index attached UE (-1 if idle)."""
    n_ue = len(serving_bs)
    served = np.flatnonzero(serving_bs != NONE)
    first = np.full(n_bs, n_ue, dtype=np.int64)
    np.minimum.at(first, serving_bs[served], served)
    return np.where(first < n_ue, first, -1)


def user_rate(gamma, bandwidth_hz, params: RateParams):
    """Per-user rate: eta * duty * (1 - overhead) * W * log2(1 + gamma)."""
    if np.any(np.asarray(gamma) < 0):
        raise ValueError("gamma must be >= 0")
    r = (params.eta * params.duty_factor * (1.0 - params.overhead_beta)
         * bandwidth_hz * np.log2(1.0 + gamma))
    return float(r) if np.isscalar(gamma) and np.isscalar(bandwidth_hz) else r


def _sectored_gain_db(bore, delta, norm, mainlobe_db, sidelobe_db, beamwidth_deg):
    """Gain of a beam aimed along `bore` towards `delta` (of length `norm`),
    over broadcast leading axes; the last axis holds (x, y). The cosine is
    `b0*d0 + b1*d1` over the product of the lengths, in that order, and a
    zero vector makes it 0/0 = NaN, which `beam_gain_db` reads as mainlobe."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = ((bore[..., 0] * delta[..., 0] + bore[..., 1] * delta[..., 1])
               / (np.hypot(bore[..., 0], bore[..., 1]) * norm))
    return beam_gain_db(cos, mainlobe_db, sidelobe_db, beamwidth_deg)


def network_sinr(links: LinkTable, assoc: Association, cochannel: np.ndarray,
                 noise_figure_db: float) -> np.ndarray:
    """Vectorized linear SINR for every UE (0 where unassociated).

    `cochannel` flags each live link of the table whose BS transmits in
    its UE's pool (`RealizedScenario.cochannel_at`, or `links.at_links` of
    a (B, U) mask). The model of the module docstring, evaluated on the
    table's live links only: those from a loaded co-channel BS to a
    served victim, off the victim's serving site (`site_of_bs`). Every
    other (BS, UE) pair adds exactly 0 mW, so it is never formed. The
    flat links are in row-major order (ascending BS per UE) and are
    accumulated per UE from +0.0, which is the operation sequence of a
    dense axis-0 sum over all BSs; agreement with a scalar evaluation
    is to rounding, not bit-exact.
    The association must serve every served UE over a listed (live) link,
    as `associate_blind` does: each served UE's signal and its serving-link
    displacement are read from that link, and a UE served over a blocked
    link raises ValueError. The displacement gives both the victim's
    boresight and, at a BS's lowest-index attached UE, the interferer's;
    the links' `delta_km` give the directions to the victims. Both beam
    ends go through one gain step (`_sectored_gain_db`). Rows are gathered
    with `take`, not fancy indexing.
    """
    n_ue = links.n_ue
    ant = links.antenna
    s = assoc.serving_bs
    served = s != NONE
    targets = interferer_targets(s, links.n_bs)
    lb, lu = links.link_bs, links.link_ue
    server = s.take(lu)                           # NONE where the victim is unserved
    own = np.flatnonzero(lb == server)            # listed serving links
    own_ue = lu.take(own)
    if len(own) != np.count_nonzero(served):
        raise ValueError("a served UE has no listed serving link: "
                         "its link is blocked and carries no signal")
    site = links.site_of_bs
    live = np.flatnonzero(cochannel & (assoc.load.take(lb) > 0)
                          & (server != NONE) & (site.take(lb) != site.take(server)))
    b, u = lb.take(live), lu.take(live)           # ascending b within each UE

    # serving-link displacements (bs -> ue) and powers; rows of unserved UEs are never read
    to_ue = np.empty((n_ue, 2))
    to_ue[own_ue] = links.delta_km.take(own, axis=0)
    sig_dbm = np.empty(n_ue)
    sig_dbm[own_ue] = links.serving_rx_dbm.take(own)
    delta = links.delta_km.take(live, axis=0)     # (L, 2), bs -> ue
    norm = np.hypot(delta[:, 0], delta[:, 1])
    # the interferer aims at its target UE; the victim aims at its serving BS,
    # and both UE-side vectors are negated bs -> ue deltas, so the sign cancels
    gt = _sectored_gain_db(to_ue.take(targets.take(b), axis=0), delta, norm,
                           ant.bs_mainlobe_gain_db, ant.bs_sidelobe_gain_db, ant.bs_beamwidth_deg)
    gr = _sectored_gain_db(to_ue.take(u, axis=0), delta, norm,
                           ant.ue_mainlobe_gain_db, ant.ue_sidelobe_gain_db, ant.ue_beamwidth_deg)

    rx_dbm = (links.tx_power_dbm + gt + gr
              - links.path_loss_db.take(live) - links.shadowing_db.take(live))
    i_mw = np.bincount(u, weights=10.0 ** (rx_dbm / 10.0), minlength=n_ue)

    gamma = np.zeros(n_ue)
    ues = np.flatnonzero(served)
    w = assoc.ue_bandwidth_hz[ues]
    noise_dbm = THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(w) + noise_figure_db
    noise_mw = 10.0 ** (noise_dbm / 10.0)
    sig_mw = 10.0 ** (sig_dbm[ues] / 10.0)
    gamma[ues] = sig_mw / (noise_mw + i_mw[ues])
    return gamma


_BLOCK_ROWS = 4096   # assignments per kernel call: bounds the search's working memory
_MAX_UES = 8                      # search limits: the tables grow as B^2 U^2,
_MAX_ASSIGNMENTS = 4 ** _MAX_UES  # the work with the number of assignments


def _mw(dbm) -> np.ndarray:
    """dBm -> mW entry by entry with Python's float power, the value a scalar
    evaluation gets (numpy's vector power can differ in the last ulp)."""
    dbm = np.asarray(dbm, dtype=float)
    return np.array([10.0 ** (x / 10.0) for x in dbm.ravel().tolist()]).reshape(dbm.shape)


@dataclass
class _ObjectiveTables:
    """Per-instance constants of the batched objective kernel, in mW and Hz.

    `interference[b, t, u, s]` is what BS b adds at UE u when its mainlobe
    tracks UE t and u is served by BS s; it is 0 where the model adds
    nothing (b off u's channel, b's link to u OUT, b on u's serving site)
    and at t = U, the slot of an idle BS. `noise` and `width` are indexed
    by the serving BS's load.
    """

    interference: np.ndarray   # (B, U+1, U, B)
    signal: np.ndarray         # (B, U), serving-link power
    noise: np.ndarray          # (U+1,), entry 0 unused
    width: np.ndarray          # (U+1,) Hz, entry 0 unused
    params: RateParams


def _objective_tables(links: LinkTable, cochannel_bu: np.ndarray, pool_hz: float,
                      params: RateParams, noise_figure_db: float,
                      full_bandwidth: bool) -> _ObjectiveTables:
    """Precompute every term of the interference model on this instance.

    Geometry comes from `wrapped_delta` over every (BS, UE) pair and the
    link budget is scattered from the live links (+inf path loss, 0
    shadowing and -inf serving power where OUT). Each beam end's gains
    come from one broadcast cosine array and one `beam_gain_db` call
    (`_sectored_gain_db`); each received power adds transmit power, BS
    gain and UE gain, then subtracts path loss and shadowing, in that
    order, and goes to mW through `_mw`, so each entry is bit-identical to
    a scalar evaluation of the term.
    """
    n_bs, n_ue = links.n_bs, links.n_ue
    ant = links.antenna
    delta = wrapped_delta(links.bs_xy[:, None, :], links.ue_xy[None, :, :],
                          links.region)   # (B, U, 2), bs -> ue
    norm = np.hypot(delta[..., 0], delta[..., 1])
    path_loss = links.dense(links.path_loss_db, np.inf)
    shadowing = links.dense(links.shadowing_db, 0.0)
    # BS side [b, t, u]: b tracks UE t, victim u
    gt = _sectored_gain_db(delta[:, :, None], delta[:, None], norm[:, None],
                           ant.bs_mainlobe_gain_db, ant.bs_sidelobe_gain_db, ant.bs_beamwidth_deg)
    # UE side [u, s, b]: victim u served by s, interferer b (the sign cancels)
    by_ue = delta.transpose(1, 0, 2)
    gr = _sectored_gain_db(by_ue[:, :, None], by_ue[:, None], norm.T[:, None],
                           ant.ue_mainlobe_gain_db, ant.ue_sidelobe_gain_db, ant.ue_beamwidth_deg)

    rx_dbm = ((((links.tx_power_dbm + gt[:, :, :, None])
                + gr.transpose(2, 0, 1)[:, None, :, :])
               - path_loss[:, None, :, None])
              - shadowing[:, None, :, None])                   # (B, U, U, B)
    off_site = links.site_of_bs[:, None] != links.site_of_bs[None, :]   # [b, s]
    hears = np.asarray(cochannel_bu, dtype=bool) & (links.state != LinkState.OUT)
    live = np.broadcast_to(hears[:, None, :, None] & off_site[:, None, None, :],
                           rx_dbm.shape)
    interference = np.zeros((n_bs, n_ue + 1, n_ue, n_bs))
    interference[:, :n_ue][live] = _mw(rx_dbm[live])

    width = np.zeros(n_ue + 1)
    width[1:] = _bandwidth_share_hz(np.arange(1, n_ue + 1), pool_hz, full_bandwidth)
    noise = np.zeros(n_ue + 1)
    noise[1:] = _mw([noise_power_dbm(w, noise_figure_db) for w in width[1:].tolist()])
    return _ObjectiveTables(interference, _mw(links.dense(links.serving_rx_dbm, -np.inf)),
                            noise, width, params)


def _score_block(tables: _ObjectiveTables, serving: np.ndarray) -> np.ndarray:
    """Sum rate of every row of an (R, U) block of assignments (NONE = unassociated).

    Per row: loads and interferer targets from the assignment; per UE:
    noise, then interferers in ascending BS order, then `user_rate`; the
    rates add up in ascending UE index, unassociated UEs contributing 0.
    Element by element, this is the operation sequence of a scalar
    evaluation of the model followed by `user_rate`, summed per UE.
    """
    n_rows, n_ue = serving.shape
    served = serving != NONE
    if not served.any():
        return np.zeros(n_rows)   # nothing to score (also U = 0 or B = 0)
    n_bs = len(tables.signal)
    attached = serving[:, :, None] == np.arange(n_bs)          # (R, U, B)
    load = attached.sum(axis=1)                                # (R, B)
    target = np.where(load > 0, attached.argmax(axis=1), n_ue)  # lowest-index UE, U if idle
    s = np.where(served, serving, 0)
    ues = np.arange(n_ue)
    own_load = np.maximum(np.take_along_axis(load, s, axis=1), 1)   # 1 where unserved
    acc = tables.noise[own_load]
    for b in range(n_bs):
        acc = acc + tables.interference[b][target[:, b:b + 1], ues, s]
    gamma = tables.signal[s, ues] / acc
    rate = user_rate(gamma, tables.width[own_load], tables.params)
    value = np.where(served, rate, 0.0)
    total = np.zeros(n_rows)
    for u in range(n_ue):
        total = total + value[:, u]
    return total


def coordinated_upper_bound(
    links: LinkTable,
    access_bu: np.ndarray,
    cochannel_bu: np.ndarray,
    pool_hz: float,
    params: RateParams,
    noise_figure_db: float,
    full_bandwidth: bool = False,
) -> tuple[np.ndarray, float, float]:
    """Exhaustive-search assignment maximizing the sum rate.

    Every UE ranges over all of its accessible BSs (a UE whose accessible
    links are all blocked is fixed unassociated); loads, bandwidth splits
    and interference are recomputed per assignment. An instance with more
    than `_MAX_UES` UEs, or whose assignments (the product of the
    candidate counts of the UEs it enumerates) exceed `_MAX_ASSIGNMENTS`,
    raises InstanceSizeError before the per-instance tables, whose size
    grows as B^2 U^2, are built. The tables then score the blind
    assignment (`associate_blind`) as one row and every search assignment
    in `itertools.product` order, blocks of `_BLOCK_ROWS` at a time. Ties
    resolve to the lexicographically smallest assignment.

    Returns `(serving_bs, value, blind_value)`: the best (U,) assignment
    (NONE where unassociated), its sum rate, and the blind assignment's
    sum rate. Both values come from the same tables, and the blind
    assignment is one the search scores, so `value >= blind_value` exactly.
    """
    n_ue = links.n_ue
    if n_ue > _MAX_UES:
        raise InstanceSizeError(f"{n_ue} UEs exceeds the search limit of {_MAX_UES}")
    access = links.at_links(access_bu)
    reachable = np.zeros(n_ue, dtype=bool)   # has an accessible live link
    reachable[links.link_ue[access]] = True
    candidates: list[np.ndarray] = []
    enumerated: list[int] = []
    for u in np.flatnonzero(reachable).tolist():   # the others are forced unassociated
        enumerated.append(u)
        candidates.append(np.flatnonzero(access_bu[:, u]))
    shape = tuple(len(c) for c in candidates)
    n_total = math.prod(shape)   # 1 with no enumerated UEs: the fixed assignment
    if n_total > _MAX_ASSIGNMENTS:
        raise InstanceSizeError(
            f"{n_total} assignments exceeds the search limit of {_MAX_ASSIGNMENTS}")

    tables = _objective_tables(links, cochannel_bu, pool_hz, params,
                               noise_figure_db, full_bandwidth)
    blind = associate_blind(links, access)
    blind_value = float(_score_block(tables, blind[None, :])[0])

    fixed = np.full(n_ue, NONE, dtype=np.int64)
    best_assignment = fixed
    best_value = None
    for start in range(0, n_total, _BLOCK_ROWS):
        index = np.arange(start, min(start + _BLOCK_ROWS, n_total))
        block = np.tile(fixed, (len(index), 1))
        if enumerated:
            # C-order digits: the last UE varies fastest, as in itertools.product
            for u, cand, digit in zip(enumerated, candidates,
                                      np.unravel_index(index, shape)):
                block[:, u] = cand[digit]
        values = _score_block(tables, block)
        i = int(np.argmax(values))   # first maximum within the block
        if best_value is None or values[i] > best_value:
            # strict across blocks: the first maximizer in product order wins,
            # i.e. the lexicographically smallest assignment
            best_value = float(values[i])
            best_assignment = block[i].copy()
    return best_assignment, best_value, blind_value
