"""Link states, path loss, shadowing, sectored gains, received power."""
import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mmwshare.channel import (AntennaModel, ChannelParams, LinkState, LinkTable,
                              _reach_m, _states_from_uniforms, beam_gain_db,
                              candidate_share, noise_power_dbm, outage_radius_m,
                              path_loss_db, state_probabilities)
from mmwshare.geometry import Region, wrapped_delta

FLAT = Region(10.0, 10.0, wraparound=False)


def draw_link_states(distance_m, params: ChannelParams, rng: np.random.Generator):
    """Draw LOS/NLOS/OUT states for an array of distances (one uniform per link).

    The uniforms are drawn full-shaped, one per link, whatever the states;
    LOS/NLOS probabilities are computed only for candidate links, those that
    can be anything but OUT: inside the hard radius, or every link under the
    exponential outage model. The rest are OUT.
    """
    d = np.asarray(distance_m, dtype=float)
    candidate = d <= _reach_m(params)
    states = np.full(d.shape, LinkState.OUT, dtype=np.int8)
    states[candidate] = _states_from_uniforms(d[candidate], rng.random(d.shape)[candidate],
                                              params)
    return states


def test_friis_intercept_28ghz():
    # free-space path loss at 1 m: 20*log10(4*pi*f/c)
    oracle = 20.0 * math.log10(4.0 * math.pi * 28e9 / 299_792_458.0)
    assert abs(oracle - 61.4) < 0.05
    # the default intercept is free space at 1 m at the default carrier
    params = ChannelParams()
    assert params.carrier_ghz == 28.0
    assert abs(params.pl_intercept_db - oracle) < 0.05


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(outage_model="fuzzy")
    with pytest.raises(ValueError):
        ChannelParams(shadow_sigma_los_db=-1.0)
    with pytest.raises(ValueError):
        ChannelParams(hard_coverage_area_km2=0.0)
    with pytest.raises(ValueError):
        AntennaModel(bs_mainlobe_gain_db=-10.0, bs_sidelobe_gain_db=-10.0)
    with pytest.raises(ValueError):
        AntennaModel(ue_beamwidth_deg=0.0)
    # every float field must be finite
    for cls in (ChannelParams, AntennaModel):
        names = [f.name for f in dataclasses.fields(cls) if f.type == "float"]
        assert len(names) >= 6
        for name in names:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    cls(**{name: bad})


def test_outage_radius_hand_value():
    oracle_m = 1000.0 * math.sqrt(0.03 / math.pi)
    r = outage_radius_m(ChannelParams())
    assert_allclose(r, oracle_m, rtol=1e-12)
    assert abs(r - 97.7) < 0.1


def test_path_loss_examples():
    p = ChannelParams()
    assert_allclose(path_loss_db(1.0, LinkState.LOS, p), 61.4, rtol=1e-12)
    assert_allclose(path_loss_db(100.0, LinkState.NLOS, p), 61.4 + 27.0 * 2.0,
                    rtol=1e-12)
    assert_allclose(path_loss_db(100.0, LinkState.LOS, p), 61.4 + 40.0, rtol=1e-12)


def test_path_loss_clamped_below_1m():
    p = ChannelParams()
    assert path_loss_db(0.2, LinkState.LOS, p) == path_loss_db(1.0, LinkState.LOS, p)


def test_path_loss_monotone_and_state_order():
    p = ChannelParams()
    d = np.linspace(1.0, 500.0, 200)
    los = path_loss_db(d, np.full(d.shape, LinkState.LOS), p)
    nlos = path_loss_db(d, np.full(d.shape, LinkState.NLOS), p)
    assert np.all(np.diff(los) > 0)
    assert np.all(np.diff(nlos) > 0)
    assert np.all(nlos >= los)


def test_path_loss_out_is_error():
    with pytest.raises(ValueError):
        path_loss_db(50.0, LinkState.OUT, ChannelParams())


def test_state_probabilities_sum_exactly_one():
    # exact under the documented grouping p_los + (p_nlos + p_out)
    rng = np.random.default_rng(0)
    d = np.concatenate([[0.0, 97.7, 97.72, 1e6], rng.random(500) * 400.0])
    for model in ("hard_radius", "exponential"):
        p = ChannelParams(outage_model=model)
        p_los, p_nlos, p_out = state_probabilities(d, p)
        assert np.all((p_los >= 0) & (p_nlos >= 0) & (p_out >= 0))
        assert np.all(p_los + (p_nlos + p_out) == 1.0)


def test_state_probabilities_values():
    p = ChannelParams()
    pl, pn, po = state_probabilities(0.0, p)
    assert (pl, pn, po) == (1.0, 0.0, 0.0)
    pl, pn, po = state_probabilities(67.1, p)
    assert_allclose(pl, math.exp(-1.0), rtol=1e-12)
    assert po == 0.0
    # beyond the hard radius everything is blocked
    assert state_probabilities(120.0, p) == (0.0, 0.0, 1.0)


def test_state_probabilities_negative_distance():
    with pytest.raises(ValueError):
        state_probabilities(-1.0, ChannelParams())


def test_link_state_frequencies_hard_radius():
    # empirical frequencies vs analytic probabilities, +-0.01 over 1e5 draws
    p = ChannelParams()
    d = np.full(100_000, 67.1)
    states = draw_link_states(d, p, np.random.default_rng(123))
    f_los = np.mean(states == LinkState.LOS)
    assert abs(f_los - math.exp(-1.0)) < 0.01
    assert np.all(states != LinkState.OUT)


def test_link_state_frequencies_exponential():
    p = ChannelParams(outage_model="exponential")
    d = np.full(100_000, 150.0)
    p_los, p_nlos, p_out = state_probabilities(150.0, p)
    states = draw_link_states(d, p, np.random.default_rng(9))
    assert abs(np.mean(states == LinkState.LOS) - p_los) < 0.01
    assert abs(np.mean(states == LinkState.NLOS) - p_nlos) < 0.01
    assert abs(np.mean(states == LinkState.OUT) - p_out) < 0.01


def test_single_link_state_draw():
    # a scalar distance draws one state
    p = ChannelParams()
    assert draw_link_states(0.0, p, np.random.default_rng(0)) == LinkState.LOS
    assert draw_link_states(500.0, p, np.random.default_rng(0)) == LinkState.OUT
    with pytest.raises(ValueError):
        draw_link_states(-2.0, p, np.random.default_rng(0))


def test_beam_gain_reads_the_cosine():
    def cos_deg(a):
        return math.cos(math.radians(a))

    # the edge is inclusive: an angle of exactly beamwidth/2 is still mainlobe
    assert beam_gain_db(1.0, 20.0, -10.0, 10.0) == 20.0
    assert beam_gain_db(cos_deg(5.0), 20.0, -10.0, 10.0) == 20.0
    assert beam_gain_db(cos_deg(5.0001), 20.0, -10.0, 10.0) == -10.0
    assert beam_gain_db(0.0, 20.0, -10.0, 10.0) == -10.0
    assert beam_gain_db(-1.0, 20.0, -10.0, 10.0) == -10.0
    # a 0/0 cosine (coincident points) is boresight-aligned
    assert beam_gain_db(math.nan, 20.0, -10.0, 10.0) == 20.0
    # a 360-deg beam is omnidirectional, below a cosine of -1 too
    assert beam_gain_db(-1.0000000000000002, 20.0, -10.0, 360.0) == 20.0
    assert beam_gain_db(-1.0000000000000002, 20.0, -10.0, 359.9) == -10.0
    # a scalar gives a float, an array an array of its shape
    assert type(beam_gain_db(cos_deg(3.0), 20.0, -10.0, 10.0)) is float
    g = beam_gain_db(np.array([[cos_deg(a) for a in (0.0, 14.9, 15.0, 15.1)]
                               + [math.nan]]), 10.0, -10.0, 30.0)
    assert_array_equal(g, [[10.0, 10.0, 10.0, -10.0, 10.0]])


def test_noise_power_examples():
    assert abs(noise_power_dbm(1e9, 7.0) - (-77.0)) < 0.02
    assert abs(noise_power_dbm(5e8, 7.0) - (-80.0)) < 0.02
    assert_allclose(noise_power_dbm(1.0, 0.0), -174.0, rtol=1e-12)
    with pytest.raises(ValueError):
        noise_power_dbm(0.0, 7.0)


def _one_link(bs, ue, params, region=FLAT, seed=0):
    return LinkTable.realize_block([(np.array([bs]), np.array([ue]), seed)], region, 30.0,
                                   params, AntennaModel())


def path_loss_at_delta(links, params):
    """The model's path loss at each listed link's state and distance
    1000 * |delta_km|: a table prices exactly its own displacements."""
    dist_m = 1000.0 * np.hypot(links.delta_km[:, 0], links.delta_km[:, 1])
    return path_loss_db(dist_m, links.link_state, params)


def test_realize_link_serving_budget():
    # 100 m LOS, zero shadowing: rx = 30 + 20 + 10 - 101.4 = -41.4 dBm
    p = ChannelParams(los_decay_per_m=0.0, hard_coverage_area_km2=0.05,
                      shadow_sigma_los_db=0.0, shadow_sigma_nlos_db=0.0)
    links = _one_link((0.0, 0.0), (0.1, 0.0), p)
    assert links.state[0, 0] == LinkState.LOS
    assert (links.link_bs.tolist(), links.link_ue.tolist()) == ([0], [0])
    assert_allclose(links.serving_rx_dbm[0], -41.4, rtol=1e-12)
    # composition identity is exact, not approximate
    assert links.serving_rx_dbm[0] == (30.0 + 20.0 + 10.0 - links.path_loss_db[0]
                                       - links.shadowing_db[0])


def test_realize_link_out_is_minus_inf():
    links = _one_link((0.0, 0.0), (0.1, 0.0), ChannelParams(hard_coverage_area_km2=1e-6))
    assert links.state[0, 0] == LinkState.OUT
    for name in ("link_bs", "link_ue", "path_loss_db", "shadowing_db", "serving_rx_dbm"):
        assert getattr(links, name).shape == (0,)
    assert links.delta_km.shape == (0, 2)
    # scattered to dense, a blocked link reads +inf path loss and -inf power
    assert links.dense(links.path_loss_db, math.inf)[0, 0] == math.inf
    assert links.dense(links.serving_rx_dbm, -math.inf)[0, 0] == -math.inf


def test_realize_link_torus_region():
    p = ChannelParams(los_decay_per_m=0.0, hard_coverage_area_km2=0.05,
                      shadow_sigma_los_db=0.0)
    links = _one_link((0.05, 0.5), (0.95, 0.5), p, region=Region(1.0, 1.0), seed=1)
    # wrapped distance is 100 m, not 900 m, reached across the x = 0 edge
    assert_allclose(links.delta_km[0], [-0.1, 0.0], atol=1e-15)
    assert links.path_loss_db.tobytes() == path_loss_at_delta(links, p).tobytes()
    assert_allclose(links.path_loss_db[0], 101.4, rtol=1e-12)


def test_link_table_matches_field_composition():
    rng = np.random.default_rng(5)
    bs = rng.random((6, 2)) * 0.4
    ue = rng.random((15, 2)) * 0.4
    params = ChannelParams()
    links = LinkTable.realize_block([(bs, ue, 11)], Region(0.4, 0.4), 30.0, params,
                                    AntennaModel())
    # the listed links are exactly the non-OUT ones, in row-major order
    served = links.state != LinkState.OUT
    assert_array_equal(links.link_bs * links.n_ue + links.link_ue, np.flatnonzero(served))
    recomposed = (30.0 + 20.0 + 10.0 - links.path_loss_db - links.shadowing_db)
    assert_array_equal(links.serving_rx_dbm, recomposed)
    # path loss is the model's at every link's distance and realized state,
    # and agrees with the scalar op
    assert links.path_loss_db.tobytes() == path_loss_at_delta(links, params).tobytes()
    dist_m = 1000.0 * np.hypot(links.delta_km[:, 0], links.delta_km[:, 1])
    for i, (b, u) in enumerate(zip(links.link_bs, links.link_ue)):
        assert_allclose(links.path_loss_db[i],
                        path_loss_db(dist_m[i], LinkState(links.state[b, u]), params),
                        rtol=1e-12)


def test_link_table_deterministic():
    rng = np.random.default_rng(8)
    bs, ue = rng.random((5, 2)), rng.random((9, 2))
    a = LinkTable.realize_block([(bs, ue, 4)], Region(1, 1), 30.0, ChannelParams(), AntennaModel())
    b = LinkTable.realize_block([(bs, ue, 4)], Region(1, 1), 30.0, ChannelParams(), AntennaModel())
    for name in ("state", "link_bs", "link_ue", "shadowing_db", "serving_rx_dbm"):
        assert_array_equal(getattr(a, name), getattr(b, name))


def test_link_table_colocated_share_propagation():
    # transmitters at identical coordinates see identical states and
    # shadowing towards every UE (one tower, one propagation path)
    rng = np.random.default_rng(2)
    site = rng.random((4, 2))
    bs = np.vstack([site, site])       # two arrays per tower
    ue = rng.random((40, 2))
    links = LinkTable.realize_block([(bs, ue, 21)], Region(1, 1), 30.0, ChannelParams(),
                                    AntennaModel())
    assert_array_equal(links.state[:4], links.state[4:])
    shadowing = links.dense(links.shadowing_db, 0.0)
    rx = links.dense(links.serving_rx_dbm, -np.inf)
    assert_array_equal(shadowing[:4], shadowing[4:])
    assert_array_equal(rx[:4], rx[4:])
    assert_array_equal(links.site_of_bs[:4], links.site_of_bs[4:])
    assert len(np.unique(links.site_of_bs)) == 4


def _dense_realize(bs_xy, ue_xy, region, tx_power_dbm, params, antenna, seed):
    """Reference: every link's probabilities, path loss and received power
    computed densely, then OUT entries overwritten. Returns
    (state, shadowing_db, path_loss_db, serving_rx_dbm)."""
    rng = np.random.default_rng(seed)
    delta = wrapped_delta(bs_xy[:, None, :], ue_xy[None, :, :], region)
    dist_m = 1000.0 * np.hypot(delta[..., 0], delta[..., 1])
    _, first_bs, site_of_bs = np.unique(bs_xy, axis=0, return_index=True,
                                        return_inverse=True)
    site_of_bs = site_of_bs.reshape(-1)
    p_los, p_nlos, _ = state_probabilities(dist_m[first_bs], params)
    u = rng.random(dist_m[first_bs].shape)
    site_states = np.full(u.shape, LinkState.OUT, dtype=np.int8)
    site_states[u < p_los + p_nlos] = LinkState.NLOS
    site_states[u < p_los] = LinkState.LOS
    site_sigma = np.where(site_states == LinkState.LOS,
                          params.shadow_sigma_los_db, params.shadow_sigma_nlos_db)
    site_shadow = rng.normal(0.0, 1.0, (len(first_bs), len(ue_xy))) * site_sigma
    states = site_states[site_of_bs]
    shadow = site_shadow[site_of_bs]
    blocked = states == LinkState.OUT
    exponent = np.where(states == LinkState.LOS,
                        params.pl_exponent_los, params.pl_exponent_nlos)
    pl = params.pl_intercept_db + 10.0 * exponent * np.log10(np.maximum(dist_m, 1.0))
    pl[blocked] = np.inf
    shadow[blocked] = 0.0
    rx = (tx_power_dbm + antenna.bs_mainlobe_gain_db + antenna.ue_mainlobe_gain_db
          - pl - shadow)
    return states, shadow, pl, rx


def _assert_equals_dense_reference(bs, ue, region, params, seed):
    """The flat table, scattered to dense, equals `_dense_realize` byte for
    byte; its listed links are the non-OUT ones, in row-major order, with
    the dense geometry's displacements, priced at their distances."""
    antenna = AntennaModel()
    links = LinkTable.realize_block([(bs, ue, seed)], region, 30.0, params, antenna)
    states, shadow, pl, rx = _dense_realize(bs, ue, region, 30.0, params, antenna, seed)
    got = (links.state, links.dense(links.shadowing_db, 0.0),
           links.dense(links.path_loss_db, np.inf), links.dense(links.serving_rx_dbm, -np.inf))
    for g, w in zip(got, (states, shadow, pl, rx)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert_array_equal(links.link_bs * len(ue) + links.link_ue,
                       np.flatnonzero(states != LinkState.OUT))
    delta = wrapped_delta(bs[:, None, :], ue[None, :, :], region)
    live = delta[links.link_bs, links.link_ue]
    assert links.delta_km.tobytes() == live.tobytes()
    assert links.path_loss_db.tobytes() == path_loss_at_delta(links, params).tobytes()
    return links


def test_link_table_equals_dense_reference():
    # candidate-only geometry and probabilities and live-only path loss leave
    # every entry bit-identical, which also pins the full-shaped uniform and
    # normal draws
    rng = np.random.default_rng(31)
    region = Region(1.0, 1.0)
    for model in ("hard_radius", "exponential"):
        params = ChannelParams(outage_model=model)
        for trial in range(3):
            site = rng.random((40, 2))
            bs = np.vstack([site, site[:25]])   # 25 towers carry two arrays
            ue = rng.random((400, 2))
            links = _assert_equals_dense_reference(bs, ue, region, params, 100 + trial)
            states = links.state
            assert (states == LinkState.LOS).any() and (states == LinkState.NLOS).any()
            assert (states == LinkState.OUT).any()


def test_link_table_grid_edge_cases_equal_dense_reference():
    params = ChannelParams()
    reach_km = outage_radius_m(params) / 1000.0   # about 97.7 m: cells are >= this
    rng = np.random.default_rng(47)
    seed = iter(range(1000, 2000))

    def check(bs, ue, region, p=params):
        return _assert_equals_dense_reference(np.asarray(bs, dtype=float).reshape(-1, 2),
                                              np.asarray(ue, dtype=float).reshape(-1, 2),
                                              region, p, next(seed))

    # 1, 2, 3 and 4 cells per axis, torus and flat, square and not
    for w, h in ((0.15, 0.15), (0.2, 0.2), (0.3, 0.3), (0.4, 0.4), (0.3, 0.15), (0.45, 0.2)):
        for wrap in (True, False):
            size = np.array([w, h])
            for model in ("hard_radius", "exponential"):
                check(rng.random((12, 2)) * size, rng.random((60, 2)) * size,
                      Region(w, h, wraparound=wrap),
                      ChannelParams(outage_model=model))
    # a flat region with the default drop's sizes
    check(rng.random((60, 2)), rng.random((400, 2)), Region(1.0, 1.0, wraparound=False))

    # UEs at the reach, a few ulps inside and outside it, along both axes
    for wrap in (True, False):
        region = Region(1.0, 1.0, wraparound=wrap)
        bs = np.array([[0.5, 0.5], [0.02, 0.97]])
        offsets = [reach_km]
        for _ in range(4):
            offsets = [np.nextafter(offsets[0], 0.0), *offsets, np.nextafter(offsets[-1], 1.0)]
        ue = np.array([[x + dx, y] for x, y in bs for dx in offsets]
                      + [[x, y - dy] for x, y in bs for dy in offsets])
        links = check(bs, ue, region)
        dist = 1000.0 * np.hypot(*np.moveaxis(
            wrapped_delta(bs[:, None, :], ue[None, :, :], region), -1, 0))
        reach_m = outage_radius_m(params)
        assert (dist == reach_m).any() and (dist > reach_m).any()
        assert links.path_loss_db.size > 0

    # points on cell borders: 0, multiples of the cell side, just below the side
    for n in (1, 2, 3, 4, 10):
        side = n * reach_km * 1.01
        cell = side / n
        edges = [0.0, *(k * cell for k in range(1, n)), np.nextafter(side, 0.0)]
        grid = np.array([[x, y] for x in edges for y in edges])
        for wrap in (True, False):
            check(grid, grid + [0.0, 1e-9], Region(side, side, wraparound=wrap))
            check(grid[::2], grid, Region(side, side, wraparound=wrap))

    # pairs just inside the reach that would span three cells of a grid of
    # n reach-wide cells on a side just under n reaches: the grid must not
    # take cells narrower than the reach
    for n in (4, 10):
        side = n * reach_km * (1.0 - 5e-4)
        cell = side / n
        bs = np.array([[k * cell - 1e-6, 0.5 * side] for k in range(1, n)])
        ue = bs + [reach_km * (1.0 - 1e-4), 0.0]
        for wrap in (True, False):
            links = check(bs, ue, Region(side, side, wraparound=wrap))
            assert (links.state.diagonal() != LinkState.OUT).all()

    # coordinates outside [0, w): below zero, beyond the side, several sides out
    for wrap in (True, False):
        region = Region(0.5, 0.5, wraparound=wrap)
        bs = rng.random((15, 2)) * 2.0 - 0.75
        ue = np.vstack([rng.random((80, 2)) * 2.0 - 0.75, bs + 0.03, [[-1e-18, 0.5]]])
        check(bs, ue, region)

    # co-sited arrays on a flat region, and empty populations
    site = rng.random((10, 2))
    check(np.vstack([site, site, site[:3]]), rng.random((200, 2)),
          Region(1.0, 1.0, wraparound=False))
    for bs, ue in ((np.zeros((0, 2)), rng.random((5, 2))),
                   (rng.random((5, 2)), np.zeros((0, 2))),
                   (np.zeros((0, 2)), np.zeros((0, 2)))):
        links = check(bs, ue, Region(1.0, 1.0))
        assert links.state.shape == (len(bs), len(ue))
        assert links.link_bs.size == 0 and links.delta_km.shape == (0, 2)


def test_block_table_is_its_drops_side_by_side():
    # a block of drops realizes to its drops' own tables laid side by side:
    # every per-link array is their concatenation, with BS, UE and site
    # indices offset by the drops before, and no link crosses a drop
    rng = np.random.default_rng(5)
    antenna = AntennaModel()
    for region in (Region(1.0, 1.0), Region(1.0, 1.0, wraparound=False),
                   Region(0.2, 0.2), Region(0.45, 0.2)):
        for model in ("hard_radius", "exponential"):
            params = ChannelParams(outage_model=model)
            drops = []
            for n_bs, n_ue in ((12, 60), (0, 30), (9, 0), (1, 1), (15, 80)):
                bs = rng.random((n_bs, 2)) * [region.width_km, region.height_km]
                if n_bs > 4:
                    bs[-3:] = bs[:3]   # co-sited arrays
                drops.append((bs, rng.random((n_ue, 2)) * [region.width_km,
                                                           region.height_km],
                              int(rng.integers(1 << 40))))
            block = LinkTable.realize_block(drops, region, 30.0, params, antenna)
            alone = [LinkTable.realize_block([(bs, ue, seed)], region, 30.0, params, antenna)
                     for bs, ue, seed in drops]
            n_bs = np.cumsum([0] + [t.n_bs for t in alone])
            n_ue = np.cumsum([0] + [t.n_ue for t in alone])
            n_site = np.cumsum([0] + [len(np.unique(t.site_of_bs)) for t in alone])
            want = {
                "link_bs": [t.link_bs + o for t, o in zip(alone, n_bs)],
                "link_ue": [t.link_ue + o for t, o in zip(alone, n_ue)],
                "site_of_bs": [t.site_of_bs + o for t, o in zip(alone, n_site)],
            }
            for name in ("link_state", "delta_km", "path_loss_db", "shadowing_db",
                         "serving_rx_dbm", "bs_xy", "ue_xy"):
                want[name] = [getattr(t, name) for t in alone]
            for name, parts in want.items():
                got = getattr(block, name)
                assert got.tobytes() == np.concatenate(parts).tobytes(), (region, model, name)
            assert block.state.shape == (n_bs[-1], n_ue[-1])
            for t, b0, u0 in zip(alone, n_bs, n_ue):
                assert_array_equal(block.state[b0:b0 + t.n_bs, u0:u0 + t.n_ue], t.state)
            assert (block.state != LinkState.OUT).sum() == len(block.link_bs)


def test_candidate_share():
    # the share of a drop's pairs the cell grid lists: a 3 x 3 neighbourhood
    # of the grid's cells, and every pair where the grid is not built
    reach_km = outage_radius_m(ChannelParams()) / 1000.0
    n = int(1.0 // (reach_km * (1.0 + 1e-6)))
    assert candidate_share(Region(1.0, 1.0), ChannelParams()) == (3 / n) ** 2
    assert candidate_share(Region(1.0, 1.0), ChannelParams(outage_model="exponential")) == 1.0
    assert candidate_share(Region(0.25, 0.25), ChannelParams()) == 1.0
    assert candidate_share(Region(1.0, 0.25), ChannelParams()) == 3 / n


def test_shadowing_moments_los():
    # all-LOS table: shadowing is N(0, 4 dB); moments within 2% at 1e5 draws
    p = ChannelParams(los_decay_per_m=0.0, hard_coverage_area_km2=1e6)
    rng = np.random.default_rng(3)
    ue = rng.random((100_000, 2))
    links = LinkTable.realize_block([(np.array([[0.5, 0.5]]), ue, 6)], Region(1, 1), 30.0, p,
                                    AntennaModel())
    assert np.all(links.state == LinkState.LOS)
    sh = links.shadowing_db   # one BS: every listed link is one of its links
    assert sh.shape == (100_000,)
    assert abs(sh.mean()) <= 0.02 * 4.0
    assert abs(sh.std() / 4.0 - 1.0) <= 0.02


def test_shadowing_moments_nlos():
    p = ChannelParams(los_decay_per_m=1e9, hard_coverage_area_km2=1e6)
    rng = np.random.default_rng(13)
    ue = rng.random((100_000, 2)) + 0.001   # keep distances well above zero
    links = LinkTable.realize_block([(np.array([[0.0, 0.0]]), ue, 14)], Region(2, 2), 30.0, p,
                                    AntennaModel())
    assert np.all(links.state == LinkState.NLOS)
    sh = links.shadowing_db
    assert sh.shape == (100_000,)
    assert abs(sh.mean()) <= 0.02 * 7.0
    assert abs(sh.std() / 7.0 - 1.0) <= 0.02
