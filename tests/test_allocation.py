"""Association, bandwidth splits, SINR, rates, and the brute-force bound."""
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mmwshare import allocation
from mmwshare.allocation import (NONE, Association, InstanceSizeError, RateParams,
                                 associate_blind, coordinated_upper_bound,
                                 interferer_targets, network_sinr, split_bandwidth,
                                 user_rate)
from mmwshare.channel import (THERMAL_NOISE_DBM_PER_HZ, AntennaModel, ChannelParams,
                              LinkState, LinkTable, noise_power_dbm, path_loss_db)
from mmwshare.config import default_config
from mmwshare.experiment import _links
from mmwshare.geometry import Region, wrapped_delta
from mmwshare.scenario import SCENARIO_KINDS, build_scenario

FLAT = Region(1.0, 1.0, wraparound=False)


def make_table(bs_xy, ue_xy, region=FLAT, state=None, shadow=None, tx=30.0):
    """Hand-built link table: all-LOS, zero shadowing unless overridden."""
    bs_xy = np.asarray(bs_xy, dtype=float)
    ue_xy = np.asarray(ue_xy, dtype=float)
    params, antenna = ChannelParams(), AntennaModel()
    delta = wrapped_delta(bs_xy[:, None, :], ue_xy[None, :, :], region)
    dist_m = 1000.0 * np.hypot(delta[..., 0], delta[..., 1])
    state = (np.zeros(dist_m.shape, dtype=np.int8) if state is None
             else np.asarray(state, dtype=np.int8))
    shadow = (np.zeros(dist_m.shape) if shadow is None
              else np.asarray(shadow, dtype=float))
    ok = state != LinkState.OUT
    pl = path_loss_db(dist_m[ok], state[ok], params)
    sh = shadow[ok]
    rx = tx + antenna.bs_mainlobe_gain_db + antenna.ue_mainlobe_gain_db - pl - sh
    site_of_bs = np.unique(bs_xy, axis=0, return_inverse=True)[1].reshape(-1)
    link_bs, link_ue = np.nonzero(ok)
    return LinkTable(region, bs_xy, ue_xy, tx, antenna, site_of_bs,
                     link_bs, link_ue, state[ok], delta[ok], pl, sh, rx)


def rx_dbm(links):
    """(B, U) serving-link power of a table, -inf where OUT."""
    return links.dense(links.serving_rx_dbm, -np.inf)


def test_blind_association_nearest_wins():
    links = make_table([[0.2, 0.5], [0.8, 0.5]], [[0.3, 0.5], [0.75, 0.5]])
    serving = associate_blind(links, links.at_links(np.ones((2, 2), bool)))
    assert serving.dtype == np.int64 and serving.shape == (2,)
    assert_array_equal(serving, [0, 1])
    assert_array_equal(split_bandwidth(serving, 2, 1e9).load, [1, 1])


def test_blind_association_tie_breaks_low_index():
    # co-sited arrays present identical received powers
    links = make_table([[0.5, 0.5], [0.5, 0.5]], [[0.52, 0.5]])
    assert associate_blind(links, links.at_links(np.ones((2, 1), bool)))[0] == 0
    # equal powers from mirrored BSs go to the lowest index, whatever the UE
    # order, while an inaccessible stronger BS and a weaker one are passed over
    links = make_table([[0.9, 0.5], [0.6, 0.5], [0.4, 0.5], [0.52, 0.5], [0.3, 0.5]],
                       [[0.7, 0.5], [0.5, 0.5], [0.5, 0.5]])
    rx = rx_dbm(links)
    assert rx[1, 1] == rx[2, 1] > rx[4, 1] and rx[3, 1] > rx[1, 1]
    access = np.ones((5, 3), bool)
    access[3, :] = False
    assert_array_equal(associate_blind(links, links.at_links(access)), [1, 1, 1])
    access[1, 2] = False
    assert_array_equal(associate_blind(links, links.at_links(access)), [1, 1, 2])
    assert_array_equal(associate_blind(links, links.at_links(np.ones((5, 3), bool))),
                       [1, 3, 3])


def test_blind_association_respects_access():
    links = make_table([[0.2, 0.5], [0.8, 0.5]], [[0.3, 0.5]])
    access = np.array([[False], [True]])
    assert associate_blind(links, links.at_links(access))[0] == 1


def test_blind_association_all_blocked():
    links = make_table([[0.2, 0.5]], [[0.3, 0.5]], state=[[LinkState.OUT]])
    serving = associate_blind(links, links.at_links(np.ones((1, 1), bool)))
    assert serving[0] == NONE
    assoc = split_bandwidth(serving, 1, 1e9)
    assert_array_equal(assoc.load, [0])
    assert assoc.ue_bandwidth_hz[0] == 0.0


def test_split_bandwidth_conserves_pool():
    # loads of 1, 2 and 4 divide exactly in binary floating point
    serving = np.array([0, 1, 1, 2, 2, 2, 2])
    assoc = split_bandwidth(serving, 3, 1e9)
    assert assoc.load.dtype == np.int64
    assert_array_equal(assoc.load, [1, 2, 4])
    for b in range(3):
        assert assoc.ue_bandwidth_hz[serving == b].sum() == 1e9
    assert_array_equal(assoc.ue_bandwidth_hz,
                       [1e9, 5e8, 5e8, 2.5e8, 2.5e8, 2.5e8, 2.5e8])


def test_split_bandwidth_full_mode_and_errors():
    serving = np.array([0, NONE])
    full = split_bandwidth(serving, 2, 1e9, full_bandwidth=True)
    assert_array_equal(full.ue_bandwidth_hz, [1e9, 0.0])
    assert_array_equal(full.load, [1, 0])
    with pytest.raises(ValueError):
        split_bandwidth(serving, 2, 0.0)


def test_interferer_targets_lowest_index():
    serving = np.array([2, 0, 0, NONE, 1])
    assert_array_equal(interferer_targets(serving, 4), [1, 4, 0, -1])
    cases = [
        (np.array([], dtype=np.int64), 3, [-1, -1, -1]),           # no UE
        (np.array([NONE, NONE]), 0, []),                            # no BS
        (np.array([NONE, NONE, NONE]), 2, [-1, -1]),                # all unassociated
        (np.array([NONE, 1, 1, 0, 1, 1]), 3, [3, 1, -1]),          # one BS, many UEs
    ]
    for serving, n_bs, expected in cases:
        targets = interferer_targets(serving, n_bs)
        assert targets.dtype == np.int64
        assert_array_equal(targets, expected)
    rng = np.random.default_rng(9)
    for _ in range(200):   # against the per-UE loop: the last write is the lowest UE
        n_bs, n_ue = int(rng.integers(1, 70)), int(rng.integers(0, 500))
        serving = rng.integers(NONE, n_bs, size=n_ue)
        expected = np.full(n_bs, -1)
        for u in range(n_ue - 1, -1, -1):
            if serving[u] != NONE:
                expected[serving[u]] = u
        assert_array_equal(interferer_targets(serving, n_bs), expected)


# --- independent mirror of the interference model: the one scalar reference
# of `network_sinr` and of the search kernel. It shares no wrap, angle, gain
# or noise code with the package.


def _wrap(p, q, region):
    dx = float(q[0]) - float(p[0])
    dy = float(q[1]) - float(p[1])
    if region.wraparound:
        dx -= region.width_km * round(dx / region.width_km)
        dy -= region.height_km * round(dy / region.height_km)
    return dx, dy


def _angle(v, w):
    nv = math.hypot(v[0], v[1])
    nw = math.hypot(w[0], w[1])
    if nv == 0.0 or nw == 0.0:
        return 0.0   # coincident points: boresight-aligned
    c = (v[0] * w[0] + v[1] * w[1]) / (nv * nw)
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def _gain(angle, main, side, bw):
    a = abs(angle) % 360.0
    a = min(a, 360.0 - a)
    return main if a <= bw / 2.0 else side


def _oracle_gamma(links, serving, coch, pool_hz, nf, full_bandwidth=False):
    """Per UE of a complete assignment, the linear SINR and the bandwidth
    (both 0 where unassociated): interferers in ascending BS index, in mW."""
    ant = links.antenna
    serving_rx, path_loss = rx_dbm(links), links.dense(links.path_loss_db, np.inf)
    shadowing = links.dense(links.shadowing_db, 0.0)
    load = [0] * links.n_bs
    for s in serving:
        if s != NONE:
            load[s] += 1
    targets = [-1] * links.n_bs
    for u in range(links.n_ue - 1, -1, -1):
        if serving[u] != NONE:
            targets[serving[u]] = u
    gamma, width = [0.0] * links.n_ue, [0.0] * links.n_ue
    for u in range(links.n_ue):
        s = serving[u]
        if s == NONE:
            continue
        w = pool_hz if full_bandwidth else pool_hz / load[s]
        sig = 10.0 ** (float(serving_rx[s, u]) / 10.0)
        acc = 10.0 ** ((-174.0 + 10.0 * math.log10(w) + nf) / 10.0)
        sx, sy = float(links.bs_xy[s, 0]), float(links.bs_xy[s, 1])
        to_serving = _wrap(links.ue_xy[u], links.bs_xy[s], links.region)
        for b in range(links.n_bs):
            if load[b] == 0 or not coch[b, u]:
                continue
            if float(links.bs_xy[b, 0]) == sx and float(links.bs_xy[b, 1]) == sy:
                continue
            if links.state[b, u] == LinkState.OUT:
                continue
            bore = _wrap(links.bs_xy[b], links.ue_xy[targets[b]], links.region)
            to_victim = _wrap(links.bs_xy[b], links.ue_xy[u], links.region)
            gt = _gain(_angle(bore, to_victim), ant.bs_mainlobe_gain_db,
                       ant.bs_sidelobe_gain_db, ant.bs_beamwidth_deg)
            to_interferer = _wrap(links.ue_xy[u], links.bs_xy[b], links.region)
            gr = _gain(_angle(to_serving, to_interferer), ant.ue_mainlobe_gain_db,
                       ant.ue_sidelobe_gain_db, ant.ue_beamwidth_deg)
            rx = (links.tx_power_dbm + gt + gr
                  - float(path_loss[b, u]) - float(shadowing[b, u]))
            acc += 10.0 ** (rx / 10.0)
        gamma[u], width[u] = sig / acc, w
    return gamma, width


def _oracle_value(links, serving, coch, pool_hz, params, nf, full_bandwidth=False):
    """Sum rate of a complete assignment, served UEs added in ascending index."""
    gamma, width = _oracle_gamma(links, serving, coch, pool_hz, nf, full_bandwidth)
    total = 0.0
    for u in range(links.n_ue):
        if serving[u] != NONE:
            total += (params.eta * params.duty_factor * (1.0 - params.overhead_beta)
                      * width[u] * math.log2(1.0 + gamma[u]))
    return total


def test_cosine_rule_equals_angle_rule():
    # the package's one gain step (a cosine against cos(beamwidth / 2))
    # against the mirror's angle rule, on random direction pairs at every
    # scale, zero vectors and exact antiparallel pairs
    rng = np.random.default_rng(20)
    n = 100_000
    scale = 10.0 ** rng.integers(-4, 4, size=(n, 1))
    bore = rng.normal(size=(n, 2)) * scale
    delta = rng.normal(size=(n, 2)) * scale
    bore[:2000:2] = 0.0
    delta[1:2000:2] = 0.0
    delta[2000:20000] = -bore[2000:20000]
    norm = np.hypot(delta[:, 0], delta[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = ((bore[:, 0] * delta[:, 0] + bore[:, 1] * delta[:, 1])
               / (np.hypot(bore[:, 0], bore[:, 1]) * norm))
    # antiparallel cosines can round below -1, where only the omnidirectional
    # beam's -inf edge keeps them in the mainlobe
    assert (cos < -1.0).any()
    angles = [_angle(v, w) for v, w in zip(bore.tolist(), delta.tolist())]
    for bw in (1.0, 10.0, 30.0, 179.9, 360.0):
        got = allocation._sectored_gain_db(bore, delta, norm, 10.0, -10.0, bw)
        assert got.tolist() == [_gain(a, 10.0, -10.0, bw) for a in angles]


def test_sinr_worked_example():
    # serving BS 100 m west of the UE; interferer also 100 m out but 10 deg
    # off the UE boresight (inside the 30 deg receive lobe), with its own
    # mainlobe tracking a UE due north, 100 deg away from the victim.
    ang = math.radians(170.0)
    bs1 = (0.1 + 0.1 * math.cos(ang), 0.1 * math.sin(ang))
    links = make_table([[0.0, 0.0], bs1],
                       [[0.1, 0.0], [bs1[0], bs1[1] + 0.05]])
    assoc = Association(np.array([0, 1]), np.array([5e8, 5e8]),
                        np.array([1, 1]))
    # oracle, in dBm: serving 30+20+10-101.4 = -41.4; interferer sidelobe
    # out, mainlobe in: 30-10+10-101.4 = -71.4; noise over 500 MHz, NF 7
    noise_dbm = -174.0 + 10.0 * math.log10(5e8) + 7.0
    expected = 10.0 ** -4.14 / (10.0 ** (noise_dbm / 10.0) + 10.0 ** -7.14)
    gamma = network_sinr(links, assoc, links.at_links(np.ones((2, 2), bool)), 7.0)[0]
    assert_allclose(gamma, expected, rtol=1e-9)
    assert abs(10.0 * math.log10(gamma) - 29.44) < 0.01


def test_sinr_without_interferers_is_snr():
    links = make_table([[0.0, 0.0]], [[0.1, 0.0]])
    assoc = Association(np.array([0]), np.array([5e8]), np.array([1]))
    gamma = network_sinr(links, assoc, links.at_links(np.ones((1, 1), bool)), 7.0)[0]
    sig = 10.0 ** (float(rx_dbm(links)[0, 0]) / 10.0)
    assert_allclose(gamma, sig / 10.0 ** (noise_power_dbm(5e8, 7.0) / 10.0), rtol=1e-12)


def test_same_site_transmitter_adds_no_interference():
    # a loaded co-channel array on the serving tower is scheduled
    # orthogonally: each victim's SINR is exactly its SINR with no
    # co-channel transmitter at all, S/N
    links = make_table([[0.2, 0.2], [0.2, 0.2]], [[0.25, 0.2], [0.21, 0.2]])
    assoc = Association(np.array([0, 1]), np.array([5e8, 5e8]),
                        np.array([1, 1]))
    coch = links.at_links(np.ones((2, 2), bool))
    gamma = network_sinr(links, assoc, coch, 7.0)
    assert gamma.tobytes() == network_sinr(links, assoc, np.zeros_like(coch), 7.0).tobytes()
    sig = 10.0 ** (float(rx_dbm(links)[0, 0]) / 10.0)
    assert_allclose(gamma[0], sig / 10.0 ** (noise_power_dbm(5e8, 7.0) / 10.0), rtol=1e-12)
    # a barely off-site transmitter does interfere
    shifted = make_table([[0.2, 0.2], [0.2 + 1e-6, 0.2]],
                         [[0.25, 0.2], [0.21, 0.2]])
    assert network_sinr(shifted, assoc, shifted.at_links(np.ones((2, 2), bool)),
                        7.0)[0] < gamma[0]


def test_interference_ignores_access_rights():
    # a co-channel BS the victim may not attach to still degrades it
    links = make_table([[0.2, 0.5], [0.4, 0.5]],
                       [[0.25, 0.5], [0.41, 0.5]])
    access = np.array([[True, False], [False, True]])
    assoc = split_bandwidth(associate_blind(links, links.at_links(access)), 2, 5e8)
    both = network_sinr(links, assoc, links.at_links(np.ones((2, 2), bool)), 7.0)
    masked = network_sinr(links, assoc,
                          links.at_links(np.array([[True, True], [False, True]])), 7.0)
    assert both[0] < masked[0]


def test_network_sinr_matches_scalar():
    rng = np.random.default_rng(17)
    region = Region(0.3, 0.3)
    for trial in range(6):
        n_bs = int(rng.integers(2, 7))
        n_ue = int(rng.integers(3, 12))
        bs = rng.random((n_bs, 2)) * 0.3
        ue = rng.random((n_ue, 2)) * 0.3
        if trial == 0:
            bs[1] = bs[0]   # exercise the co-sited branch
        links = LinkTable.realize_block([(bs, ue, int(rng.integers(1 << 30)))], region, 30.0,
                                        ChannelParams(), AntennaModel())
        everywhere = np.ones(len(links.link_bs), bool)
        assoc = split_bandwidth(associate_blind(links, everywhere), n_bs, 1e9)
        coch = rng.random((n_bs, n_ue)) < 0.8
        vec = network_sinr(links, assoc, links.at_links(coch), 7.0)
        want, _ = _oracle_gamma(links, assoc.serving_bs, coch, 1e9, 7.0)
        for u in range(n_ue):
            s = assoc.serving_bs[u]
            if s == NONE:
                assert vec[u] == 0.0
                continue
            assert_allclose(vec[u], want[u], rtol=1e-12)
            # interference can only hurt: capped by SNR over the UE's own slice
            noise = 10.0 ** (noise_power_dbm(float(assoc.ue_bandwidth_hz[u]), 7.0) / 10.0)
            snr = 10.0 ** (float(rx_dbm(links)[s, u]) / 10.0) / noise
            assert vec[u] <= snr * (1.0 + 1e-12)


def _dense_network_sinr(links, assoc, cochannel_bu, noise_figure_db):
    """Reference: the dense (B, U) formulation, every entry evaluated and
    non-interfering ones zeroed before one axis-0 sum over BSs; the serving
    site is found by comparing coordinates."""
    n_bs, n_ue = links.n_bs, links.n_ue
    gamma = np.zeros(n_ue)
    served = assoc.serving_bs != NONE
    if n_bs == 0 or not served.any():
        return gamma
    ant = links.antenna
    s = assoc.serving_bs
    targets = interferer_targets(s, n_bs)
    active = assoc.load > 0
    delta = wrapped_delta(links.bs_xy[:, None, :], links.ue_xy[None, :, :], links.region)
    path_loss = links.dense(links.path_loss_db, np.inf)
    shadowing = links.dense(links.shadowing_db, 0.0)
    norm = np.hypot(delta[..., 0], delta[..., 1])
    bore = delta[np.arange(n_bs), np.clip(targets, 0, None)]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_bs = (np.einsum("bk,buk->bu", bore, delta)
                  / (np.hypot(bore[:, 0], bore[:, 1])[:, None] * norm))
    # arccos angles lie in [0, 180], so the angle rule needs no fold
    ang_bs = np.degrees(np.arccos(np.clip(np.nan_to_num(cos_bs, nan=1.0), -1.0, 1.0)))
    gt = np.where(ang_bs <= ant.bs_beamwidth_deg / 2.0, ant.bs_mainlobe_gain_db,
                  ant.bs_sidelobe_gain_db)
    s_safe = np.where(served, s, 0)
    bore_ue = delta[s_safe, np.arange(n_ue)]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_ue = (np.einsum("uk,buk->bu", bore_ue, delta)
                  / (np.hypot(bore_ue[:, 0], bore_ue[:, 1])[None, :] * norm))
    ang_ue = np.degrees(np.arccos(np.clip(np.nan_to_num(cos_ue, nan=1.0), -1.0, 1.0)))
    gr = np.where(ang_ue <= ant.ue_beamwidth_deg / 2.0, ant.ue_mainlobe_gain_db,
                  ant.ue_sidelobe_gain_db)
    rx = links.tx_power_dbm + gt + gr - path_loss - shadowing
    same_site = ((links.bs_xy[:, 0][:, None] == links.bs_xy[s_safe, 0][None, :])
                 & (links.bs_xy[:, 1][:, None] == links.bs_xy[s_safe, 1][None, :]))
    interferes = cochannel_bu & active[:, None] & served[None, :] & ~same_site
    i_mw = np.where(interferes, 10.0 ** (rx / 10.0), 0.0).sum(axis=0)
    w = assoc.ue_bandwidth_hz[served]
    noise_mw = 10.0 ** ((THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(w)
                         + noise_figure_db) / 10.0)
    sig_mw = 10.0 ** (rx_dbm(links)[s[served], np.flatnonzero(served)] / 10.0)
    gamma[served] = sig_mw / (noise_mw + i_mw[served])
    return gamma


def test_network_sinr_equals_dense_reference():
    # live-link evaluation adds the same terms in the same order as the
    # dense sum, so whole drops agree bit for bit
    base = default_config()
    checked = {"cosited": 0, "interfered": 0, "quiet": 0}
    for model in ("hard_radius", "exponential"):
        for interference in (True, False):
            cfg = replace(base, channel=replace(base.channel, outage_model=model),
                          interference_enabled=interference)
            for seed in (3, 4):
                for kind in SCENARIO_KINDS:
                    scn = replace(cfg.scenario, kind=kind)
                    [realized] = build_scenario([scn], cfg.region, cfg.bs_density_per_km2,
                                                cfg.ue_density_per_km2, seed)
                    links = _links(cfg, [realized], [seed])
                    lb, lu = links.link_bs, links.link_ue
                    coch = realized.cochannel_bu & interference
                    # the engine's per-link flags are the dense masks at the links
                    access = realized.access_at(lb, lu)
                    cochannel = realized.cochannel_at(lb, lu) & interference
                    assert_array_equal(access, links.at_links(realized.access_bu))
                    assert_array_equal(cochannel, links.at_links(coch))
                    assoc = split_bandwidth(associate_blind(links, access),
                                            links.n_bs, scn.pool_hz)
                    got = network_sinr(links, assoc, cochannel, cfg.noise_figure_db)
                    want = _dense_network_sinr(links, assoc, coch, cfg.noise_figure_db)
                    assert got.tobytes() == want.tobytes()
                    checked["cosited"] += len(np.unique(links.bs_xy, axis=0)) < links.n_bs
                    snr = _dense_network_sinr(links, assoc, np.zeros_like(coch),
                                              cfg.noise_figure_db)
                    checked["interfered" if (got < snr).any() else "quiet"] += 1
    assert min(checked.values()) > 0

    # edge cases: no BS, no UE, no served UE, no live interferer; none of
    # them returns early, so each runs the general path on empty arrays
    sole = make_table([[0.5, 0.5]], [[0.52, 0.5], [0.5, 0.53]])
    blocked = make_table([[0.5, 0.5], [0.6, 0.5]], [[0.52, 0.5]],
                         state=[[LinkState.OUT], [LinkState.OUT]])
    apart = make_table([[0.2, 0.5], [0.6, 0.5]], [[0.22, 0.5], [0.62, 0.5]])
    cases = [
        (make_table(np.zeros((0, 2)), [[0.5, 0.5]]), np.zeros((0, 1), bool), True),
        (make_table([[0.5, 0.5]], np.zeros((0, 2))), np.ones((1, 0), bool), True),
        (blocked, np.ones((2, 1), bool), True),          # every link blocked
        (apart, np.ones((2, 2), bool), False),           # live links, no access
        (sole, np.ones((1, 2), bool), True),             # only the serving BS
        (apart, np.eye(2, dtype=bool), True),            # interferers off-channel
    ]
    for links, coch, access in cases:
        assoc = split_bandwidth(associate_blind(links, np.full(len(links.link_bs), access)),
                                links.n_bs, 1e9)
        got = network_sinr(links, assoc, links.at_links(coch), 7.0)
        assert got.shape == (links.n_ue,)
        assert got.tobytes() == _dense_network_sinr(links, assoc, coch, 7.0).tobytes()
    assert (network_sinr(apart, split_bandwidth(
        associate_blind(apart, np.ones(len(apart.link_bs), bool)), 2, 1e9),
        apart.at_links(np.eye(2, dtype=bool)), 7.0) > 0).all()


def test_network_sinr_refuses_a_served_ue_without_a_listed_link():
    # blind association serves only over listed links; an association that
    # serves UE 0 over its blocked link to BS 0 has no signal to read
    state = np.zeros((2, 3), dtype=np.int8)
    state[0, 0] = LinkState.OUT
    links = make_table([[0.2, 0.5], [0.3, 0.5]], [[0.25, 0.55], [0.28, 0.5], [0.32, 0.52]],
                       state=state)
    cochannel = np.ones(len(links.link_bs), bool)
    for serving in ([0, 1, 0], [0, NONE, NONE]):
        with pytest.raises(ValueError, match="no listed serving link"):
            network_sinr(links, split_bandwidth(np.array(serving), 2, 1e9), cochannel, 7.0)
    got = network_sinr(links, split_bandwidth(np.array([1, 0, 1]), 2, 1e9), cochannel, 7.0)
    assert (got > 0.0).all()


def test_user_rate_examples():
    p = RateParams()
    assert user_rate(1.0, 1e9, p) == 2e8
    assert user_rate(15.0, 1e9, p) == 8e8
    assert user_rate(0.0, 1e9, p) == 0.0
    # linear in bandwidth, bit for bit
    assert user_rate(3.7, 2e8, p) == 2.0 * user_rate(3.7, 1e8, p)
    with pytest.raises(ValueError):
        user_rate(-0.1, 1e9, p)
    r = user_rate(np.array([1.0, 15.0]), 1e9, p)
    assert_array_equal(r, [2e8, 8e8])


def test_rate_params_validation():
    with pytest.raises(ValueError):
        RateParams(eta=0.0)
    with pytest.raises(ValueError):
        RateParams(duty_factor=1.5)
    with pytest.raises(ValueError):
        RateParams(overhead_beta=1.0)
    for name in ("eta", "duty_factor", "overhead_beta", "target_rate_bps"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                RateParams(**{name: bad})


def _one_row(links, serving_bs, coch, pool_hz, params, full_bandwidth=False):
    """Sum rate of one complete assignment: a one-row block of the kernel."""
    tables = allocation._objective_tables(links, coch, pool_hz, params, 7.0,
                                          full_bandwidth)
    row = np.asarray(serving_bs, dtype=np.int64)[None, :]
    return float(allocation._score_block(tables, row)[0])


def test_assignment_objective_matches_manual_sum():
    links = make_table([[0.1, 0.1], [0.25, 0.1]],
                       [[0.12, 0.1], [0.24, 0.1], [0.26, 0.1]])
    serving = np.array([0, 1, 1])
    coch = np.ones((2, 3), bool)
    params = RateParams()
    got = _one_row(links, serving, coch, 1e9, params)
    gamma, width = _oracle_gamma(links, serving, coch, 1e9, 7.0)
    manual = 0.0
    for u in range(3):
        manual += user_rate(gamma[u], width[u], params)
    assert got == manual == _oracle_value(links, serving, coch, 1e9, params, 7.0)
    # the search's tables take the pool check of the one bandwidth-share rule
    with pytest.raises(ValueError):
        allocation._objective_tables(links, coch, 0.0, params, 7.0, False)


def _oracle_search(links, access, coch, pool_hz, params, nf):
    """Depth-first enumeration, candidates ascending, strict improvement."""
    order, cand = [], []
    for u in range(links.n_ue):
        acc = [b for b in range(links.n_bs) if access[b, u]]
        if not acc or all(links.state[b, u] == LinkState.OUT for b in acc):
            continue
        order.append(u)
        cand.append(acc)
    serving = [NONE] * links.n_ue
    best = {"v": None, "a": list(serving)}

    def rec(i):
        if i == len(order):
            v = _oracle_value(links, serving, coch, pool_hz, params, nf)
            if best["v"] is None or v > best["v"]:
                best["v"], best["a"] = v, list(serving)
            return
        for b in cand[i]:
            serving[order[i]] = b
            rec(i + 1)
        serving[order[i]] = NONE

    rec(0)
    return np.array(best["a"], dtype=np.int64), best["v"]


def test_upper_bound_matches_independent_enumeration():
    rng = np.random.default_rng(91)
    region = Region(0.25, 0.25)
    params = RateParams()
    checked_none = 0
    for trial in range(30):
        n_bs = int(rng.integers(2, 5))
        n_ue = int(rng.integers(1, 6))
        bs = rng.random((n_bs, 2)) * 0.25
        ue = rng.random((n_ue, 2)) * 0.25
        links = LinkTable.realize_block([(bs, ue, trial)], region, 30.0, ChannelParams(),
                                        AntennaModel())
        access = rng.random((n_bs, n_ue)) < 0.85
        coch = np.ones((n_bs, n_ue), bool)
        serving, value, _ = coordinated_upper_bound(links, access, coch, 1e9, params, 7.0)
        want_a, want_v = _oracle_search(links, access, coch, 1e9, params, 7.0)
        assert value == want_v
        assert_array_equal(serving, want_a)
        checked_none += int((serving == NONE).any())
    assert checked_none > 0   # blocked/forced-unassociated cases did occur


def test_upper_bound_dominates_blind():
    rng = np.random.default_rng(31)
    region = Region(0.25, 0.25)
    params = RateParams()
    for trial in range(12):
        n_bs = int(rng.integers(2, 5))
        n_ue = int(rng.integers(2, 6))
        links = LinkTable.realize_block(
            [(rng.random((n_bs, 2)) * 0.25, rng.random((n_ue, 2)) * 0.25, 100 + trial)],
            region, 30.0, ChannelParams(), AntennaModel())
        access = np.ones((n_bs, n_ue), bool)
        coch = np.ones((n_bs, n_ue), bool)
        blind = associate_blind(links, links.at_links(access))
        _, ub_v, blind_v = coordinated_upper_bound(links, access, coch, 1e9,
                                                   params, 7.0)
        assert blind_v == _one_row(links, blind, coch, 1e9, params)
        assert ub_v >= blind_v


def test_upper_bound_enumerates_every_combination(monkeypatch):
    links = make_table([[0.1, 0.1], [0.2, 0.1]],
                       [[0.11, 0.1], [0.15, 0.1], [0.19, 0.1]])
    rows = []
    real = allocation._score_block

    def recording(tables, serving):
        rows.extend(map(tuple, serving.tolist()))
        return real(tables, serving)

    monkeypatch.setattr(allocation, "_score_block", recording)
    access = np.ones((2, 3), bool)
    coordinated_upper_bound(links, access, access, 1e9, RateParams(), 7.0)
    # the blind row first, then every assignment in product order
    assert rows[0] == tuple(associate_blind(links, links.at_links(access)).tolist())
    assert rows[1:] == list(itertools.product([0, 1], repeat=3))


def test_upper_bound_tie_breaks_lexicographically():
    # co-sited arrays give identical objectives; the search must keep BS 0
    links = make_table([[0.1, 0.1], [0.1, 0.1]], [[0.12, 0.1]])
    serving, _, _ = coordinated_upper_bound(links, np.ones((2, 1), bool),
                                            np.ones((2, 1), bool), 1e9,
                                            RateParams(), 7.0)
    assert serving[0] == 0


def test_upper_bound_forces_unassociated_when_blocked():
    links = make_table([[0.1, 0.1]], [[0.12, 0.1]], state=[[LinkState.OUT]])
    serving, value, blind_value = coordinated_upper_bound(
        links, np.ones((1, 1), bool), np.ones((1, 1), bool), 1e9, RateParams(), 7.0)
    assert serving[0] == NONE
    assert value == blind_value == 0.0


def test_upper_bound_size_refusals(monkeypatch):
    tabulated = []
    real = allocation._objective_tables

    def recording(links, *args):
        tabulated.append(links.n_ue)
        return real(links, *args)

    monkeypatch.setattr(allocation, "_objective_tables", recording)
    big_ue = make_table([[0.1, 0.1]], [[0.1 + 0.01 * u, 0.1] for u in range(9)])
    with pytest.raises(InstanceSizeError):
        coordinated_upper_bound(big_ue, np.ones((1, 9), bool),
                                np.ones((1, 9), bool), 1e9, RateParams(), 7.0)
    # 7 UEs x 5 unblocked BSs: 5**7 = 78,125 assignments, above 4**8
    many = make_table([[0.1, 0.01 * b] for b in range(5)],
                      [[0.1 + 0.01 * u, 0.02] for u in range(7)])
    assert 5 ** 7 > allocation._MAX_ASSIGNMENTS == 4 ** 8
    with pytest.raises(InstanceSizeError):
        coordinated_upper_bound(many, np.ones((5, 7), bool),
                                np.ones((5, 7), bool), 1e9, RateParams(), 7.0)
    assert tabulated == []   # both refused before any table was built
    # 9 accessible BSs, every link blocked: forced unassociated, one assignment
    blocked = make_table([[0.1, 0.01 * b] for b in range(9)], [[0.1, 0.02]],
                         state=[[LinkState.OUT]] * 9)
    serving, value, blind_value = coordinated_upper_bound(
        blocked, np.ones((9, 1), bool), np.ones((9, 1), bool), 1e9, RateParams(), 7.0)
    assert serving[0] == NONE
    assert value == blind_value == 0.0
    assert tabulated == [1]


# --- the batched objective kernel against the mirror


def test_kernel_equals_scalar_reference_on_every_assignment():
    rng = np.random.default_rng(2024)
    region = Region(0.25, 0.25)
    params = RateParams()
    seen = {"cosited": 0, "out": 0, "all_false": 0, "partial": 0}
    for trial in range(24):
        n_bs = int(rng.integers(2, 5))
        n_ue = int(rng.integers(1, 5))
        bs = rng.random((n_bs, 2)) * 0.25
        if trial % 4 == 0:
            bs[1] = bs[0]
            seen["cosited"] += 1
        # a small coverage area blocks some links
        links = LinkTable.realize_block([(bs, rng.random((n_ue, 2)) * 0.25, 500 + trial)], region,
                                        30.0, ChannelParams(hard_coverage_area_km2=0.01),
                                        AntennaModel())
        seen["out"] += int((links.state == LinkState.OUT).any())
        coch = rng.random((n_bs, n_ue)) < (0.0 if trial % 3 == 0 else 0.6)
        seen["all_false" if not coch.any() else "partial"] += 1
        full = bool(trial // 2 % 2)
        pool = float(rng.choice([1e9, 7.3e8]))
        # every assignment, unassociated included, one kernel block
        block = np.array(list(itertools.product(range(NONE, n_bs), repeat=n_ue)),
                         dtype=np.int64)
        tables = allocation._objective_tables(links, coch, pool, params, 7.0, full)
        got = allocation._score_block(tables, block)
        for row, value in zip(block, got):
            assert value == _oracle_value(links, row, coch, pool, params, 7.0, full)
        row = block[int(rng.integers(len(block)))]
        assert _one_row(links, row, coch, pool, params, full) == _oracle_value(
            links, row, coch, pool, params, 7.0, full)
    assert min(seen.values()) > 0


def test_kernel_aims_over_a_blocked_serving_link_across_the_seam():
    # A search assignment may serve UE 0 by BS 0 over a blocked link, which
    # the table does not list; UE 0 is BS 0's lowest-index UE, so BS 0's
    # mainlobe tracks it while interfering with UE 1, served by BS 1. That
    # boresight comes from the dense wrapped geometry. West across the torus
    # seam it points away from UE 1 (BS 0 adds a sidelobe only); just past
    # UE 1 it points at UE 1 (BS 0 dominates).
    torus = Region(1.0, 1.0, wraparound=True)
    state = np.zeros((2, 2), dtype=np.int8)
    state[0, 0] = LinkState.OUT
    coch = np.ones((2, 2), bool)
    params = RateParams()
    assoc = split_bandwidth(np.array([0, 1]), 2, 1e9)
    assert_array_equal(interferer_targets(assoc.serving_bs, 2), [0, 1])
    block = np.array(list(itertools.product(range(NONE, 2), repeat=2)), dtype=np.int64)
    for bs_xy, ue_xy, interference_limited in (
            ([[0.02, 0.5], [0.15, 0.5]], [[0.98, 0.5], [0.1, 0.5]], False),
            ([[0.5, 0.5], [0.6, 0.5]], [[0.58, 0.5], [0.55, 0.5]], True)):
        links = make_table(bs_xy, ue_xy, region=torus, state=state)
        tables = allocation._objective_tables(links, coch, 1e9, params, 7.0, False)
        for row, value in zip(block, allocation._score_block(tables, block)):
            assert value == _oracle_value(links, row, coch, 1e9, params, 7.0)
        gamma, _ = _oracle_gamma(links, assoc.serving_bs, coch, 1e9, 7.0)
        snr, _ = _oracle_gamma(links, assoc.serving_bs, np.zeros_like(coch), 1e9, 7.0)
        assert gamma[0] == 0.0
        assert (gamma[1] < snr[1] / 10.0) == interference_limited


def test_coincident_points_count_as_boresight_aligned():
    # UE 0 stands on its server BS 0, which tracks it; UE 1 stands on BS 1
    # but is served by BS 0; UE 2 is served by BS 1, which tracks it, west
    # towards UE 0. Every zero displacement is boresight-aligned: UE 0 hears
    # BS 1 on its receive mainlobe, BS 1 reaches UE 1 mainlobe to mainlobe,
    # and BS 0 reaches UE 2 on its transmit mainlobe (UE 2's receive beam
    # faces away). Path loss clamps the zero distance to 1 m. On the torus
    # the scene straddles the seam.
    serving = np.array([0, 0, 1])
    coch = np.ones((2, 3), bool)
    params = RateParams()
    block = np.array(list(itertools.product(range(NONE, 2), repeat=3)), dtype=np.int64)
    for region, shift in ((FLAT, 0.0), (Region(1.0, 1.0, wraparound=True), 0.45)):
        bs_xy = [[(0.3 + shift) % 1.0, 0.5], [(0.6 + shift) % 1.0, 0.5]]
        ue_xy = [bs_xy[0], bs_xy[1], [(0.5 + shift) % 1.0, 0.5]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            links = make_table(bs_xy, ue_xy, region=region)
            tables = allocation._objective_tables(links, coch, 1e9, params, 7.0, False)
            for row, value in zip(block, allocation._score_block(tables, block)):
                assert value == _oracle_value(links, row, coch, 1e9, params, 7.0)
            got = network_sinr(links, split_bandwidth(serving, 2, 1e9),
                               links.at_links(coch), 7.0)
            want, width = _oracle_gamma(links, serving, coch, 1e9, 7.0)
        assert_allclose(got, want, rtol=1e-12)
        assert width == [5e8, 5e8, 1e9]
        # both ends mainlobe, as every listed link's serving power assumes
        rx = rx_dbm(links)
        ant = links.antenna
        side_rx = rx[0, 2] - ant.ue_mainlobe_gain_db + ant.ue_sidelobe_gain_db
        mw = [10.0 ** (x / 10.0) for x in (rx[0, 0], rx[1, 0], rx[0, 1], rx[1, 1],
                                            rx[1, 2], side_rx)]
        noise = [10.0 ** (noise_power_dbm(w, 7.0) / 10.0) for w in width]
        assert_allclose(want, [mw[0] / (noise[0] + mw[1]), mw[2] / (noise[1] + mw[3]),
                               mw[4] / (noise[2] + mw[5])], rtol=1e-12)


def test_upper_bound_tie_across_blocks_keeps_earlier_assignment():
    # four arrays on one tower: no interference, so relabelling BSs leaves
    # every value bit-identical. With 4**7 assignments, block k of 4**6
    # rows is UE 0 on BS k, and each maximizer has a mirror in block 1.
    links = make_table([[0.5, 0.5]] * 4,
                       [[0.5 + 0.01 * (u + 1), 0.5 + 0.003 * u] for u in range(7)])
    assert 4 ** 7 > allocation._BLOCK_ROWS == 4 ** 6
    access = coch = np.ones((4, 7), bool)
    params = RateParams()
    serving, value, _ = coordinated_upper_bound(links, access, coch, 1e9, params, 7.0)
    want_a, want_v = _oracle_search(links, access, coch, 1e9, params, 7.0)
    assert value == want_v
    assert_array_equal(serving, want_a)
    assert serving[0] == 0
    mirror = np.where(serving == 0, 1, np.where(serving == 1, 0, serving))
    assert _one_row(links, mirror, coch, 1e9, params) == value


def test_upper_bound_eight_ues_two_plus_two_bss_matches_oracle():
    rng = np.random.default_rng(8)
    region = Region(0.2, 0.2)
    links = LinkTable.realize_block([(rng.random((4, 2)) * 0.2, rng.random((8, 2)) * 0.2, 88)],
                                    region, 30.0, ChannelParams(hard_coverage_area_km2=0.02),
                                    AntennaModel())
    # operator 0 owns BSs 0-1 and UEs 0-3, operator 1 the rest; one pool
    access = np.zeros((4, 8), bool)
    access[:2, :4] = access[2:, 4:] = True
    coch = np.ones((4, 8), bool)
    params = RateParams()
    # every UE on either home BS, blocked links included: 8 summed rates per row
    block = np.array(list(itertools.product(*([(0, 1)] * 4 + [(2, 3)] * 4))))
    tables = allocation._objective_tables(links, coch, 1e9, params, 7.0, False)
    for row, value in zip(block, allocation._score_block(tables, block)):
        assert value == _oracle_value(links, row, coch, 1e9, params, 7.0)
    serving, value, _ = coordinated_upper_bound(links, access, coch, 1e9, params, 7.0)
    want_a, want_v = _oracle_search(links, access, coch, 1e9, params, 7.0)
    assert value == want_v
    assert_array_equal(serving, want_a)


def test_upper_bound_full_default_size_completes(monkeypatch):
    # max_ues=8 UEs x 4 BSs, all accessible and unblocked: 4**8 assignments
    rng = np.random.default_rng(65536)
    links = LinkTable.realize_block([(rng.random((4, 2)) * 0.1, rng.random((8, 2)) * 0.1, 1)],
                                    Region(0.1, 0.1), 30.0,
                                    ChannelParams(hard_coverage_area_km2=1.0), AntennaModel())
    assert (links.state != LinkState.OUT).all()
    blocks = []
    real = allocation._score_block

    def recording(tables, serving):
        blocks.append(len(serving))
        return real(tables, serving)

    monkeypatch.setattr(allocation, "_score_block", recording)
    access = coch = np.ones((4, 8), bool)
    serving, value, _ = coordinated_upper_bound(links, access, coch, 1e9,
                                                RateParams(), 7.0)
    assert blocks[0] == 1   # the blind row
    assert sum(blocks[1:]) == 4 ** 8
    assert max(blocks) <= allocation._BLOCK_ROWS
    assert (serving != NONE).all()
    assert value == _one_row(links, serving, coch, 1e9, RateParams())
