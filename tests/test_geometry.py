"""Poisson deployments, torus metric, and seed derivation."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from mmwshare.channel import AntennaModel, ChannelParams, LinkTable, path_loss_db
from mmwshare.geometry import (Region, avg_cell_radius_m, deploy_operator,
                               deploy_ppp, mix_seed, wrapped_delta)

UNIT = Region(1.0, 1.0, wraparound=True)


def distance(p, q, region):
    """Distance in km (broadcasting) under the region metric."""
    d = wrapped_delta(np.asarray(p, dtype=float), np.asarray(q, dtype=float), region)
    return np.hypot(d[..., 0], d[..., 1])


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0.0, 1.0)
    with pytest.raises(ValueError):
        Region(1.0, -2.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Region(bad, 1.0)
        with pytest.raises(ValueError):
            Region(1.0, bad)
    assert Region(2.0, 0.5).area_km2 == 1.0


def test_mix_seed_splitmix64_reference():
    # mix_seed(master, k) is the (k+1)-th output of a SplitMix64 stream
    # seeded with master; values cross-checked against an independent
    # implementation of the reference algorithm.
    assert mix_seed(0, 0) == 16294208416658607535
    assert mix_seed(0, 1) == 7960286522194355700
    assert mix_seed(0, 2) == 487617019471545679
    assert mix_seed(12345, 7) == 7959005890829367068


def test_mix_seed_distinct_children():
    children = [mix_seed(42, k) for k in range(2000)]
    assert len(set(children)) == len(children)
    assert all(0 <= c < 2 ** 64 for c in children)


def test_deploy_zero_density_empty():
    assert len(deploy_ppp(0.0, UNIT, seed=5)) == 0


def test_deploy_negative_density_error():
    with pytest.raises(ValueError):
        deploy_ppp(-1.0, UNIT, seed=0)


def test_deploy_deterministic():
    a = deploy_ppp(25.0, UNIT, seed=99)
    b = deploy_ppp(25.0, UNIT, seed=99)
    assert_array_equal(a, b)
    c = deploy_ppp(25.0, UNIT, seed=100)
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_points_inside_region():
    region = Region(2.0, 0.5)
    xy = deploy_ppp(100.0, region, seed=3)
    assert xy.shape[1] == 2
    assert np.all((xy[:, 0] >= 0) & (xy[:, 0] < 2.0))
    assert np.all((xy[:, 1] >= 0) & (xy[:, 1] < 0.5))


def test_poisson_count_moments():
    # |mean - lambda*A| <= 4*sqrt(lambda*A/n) and var/mean within 10%
    lam = 30.0
    n = 10_000
    counts = np.array([len(deploy_ppp(lam, UNIT, mix_seed(7, i))) for i in range(n)])
    assert abs(counts.mean() - lam) <= 4.0 * math.sqrt(lam / n)
    assert abs(counts.var() / counts.mean() - 1.0) <= 0.1


def test_uniformity_chi_square():
    pooled = np.concatenate(
        [deploy_ppp(50.0, UNIT, mix_seed(11, i)) for i in range(200)])
    grid, _, _ = np.histogram2d(pooled[:, 0], pooled[:, 1],
                                bins=[4, 4], range=[[0, 1], [0, 1]])
    expected = len(pooled) / 16.0
    chi2 = ((grid - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.ppf(1 - 0.001, df=15)


def test_nearest_neighbor_mean_distance():
    # closed-form PPP nearest-neighbor mean, Monte Carlo cross-check
    rho = 30.0
    oracle_km = 1.0 / (2.0 * math.sqrt(rho))
    samples = []
    for i in range(100):
        bs = deploy_ppp(rho, UNIT, mix_seed(3, 2 * i))
        if len(bs) == 0:
            continue
        ue = deploy_ppp(200.0, UNIT, mix_seed(3, 2 * i + 1))
        samples.append(distance(bs[:, None, :], ue[None, :, :], UNIT).min(axis=0))
    nearest = np.concatenate(samples)
    assert abs(nearest.mean() - oracle_km) < 0.004


def test_distance_examples():
    assert distance((0.3, 0.7), (0.3, 0.7), UNIT) == 0.0
    assert_allclose(distance((0.1, 0.5), (0.9, 0.5), UNIT), 0.2, rtol=1e-12)
    flat = Region(1.0, 1.0, wraparound=False)
    assert_allclose(distance((0.1, 0.5), (0.9, 0.5), flat), 0.8, rtol=1e-12)


def test_distance_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, q = rng.random(2), rng.random(2)
        assert distance(p, q, UNIT) == distance(q, p, UNIT)


def test_torus_never_exceeds_plain():
    flat = Region(1.0, 1.0, wraparound=False)
    rng = np.random.default_rng(1)
    for _ in range(200):
        p, q = rng.random(2), rng.random(2)
        assert distance(p, q, UNIT) <= distance(p, q, flat) + 1e-15


def test_wrapped_delta_broadcast():
    bs = np.array([[0.1, 0.1], [0.9, 0.9]])
    ue = np.array([[0.2, 0.1], [0.1, 0.9], [0.5, 0.5]])
    d = wrapped_delta(bs[:, None, :], ue[None, :, :], UNIT)
    assert d.shape == (2, 3, 2)
    assert_allclose(d[0, 0], [0.1, 0.0], atol=1e-15)
    assert_allclose(d[1, 0], [0.3, 0.2], atol=1e-15)  # wraps across both edges


def test_pairwise_distance_shape():
    # the link table holds the drop's pairwise geometry
    bs = np.array([[0.0, 0.0], [0.5, 0.5]])
    ue = np.array([[0.1, 0.0]])
    # at its live links: only the BS 100 m away is inside the 126 m outage
    # radius, and it is LOS for sure
    params = ChannelParams(los_decay_per_m=0.0, hard_coverage_area_km2=0.05)
    links = LinkTable.realize_block([(bs, ue, 0)], UNIT, 30.0, params, AntennaModel())
    assert links.state.shape == (2, 1)
    assert (links.link_bs.tolist(), links.link_ue.tolist()) == ([0], [0])
    assert links.delta_km.shape == (1, 2)
    assert links.path_loss_db.shape == (1,)
    # the table prices the distance 1000 * |delta_km|, bit for bit
    dist_m = 1000.0 * np.hypot(links.delta_km[:, 0], links.delta_km[:, 1])
    assert_allclose(dist_m[0], 100.0, rtol=1e-12)
    assert (links.path_loss_db.tobytes()
            == path_loss_db(dist_m, links.link_state, params).tobytes())


def test_avg_cell_radius_reference_values():
    assert abs(avg_cell_radius_m(30.0) - 103.0) <= 1.0
    assert abs(avg_cell_radius_m(80.0) - 63.0) <= 1.0
    assert_allclose(avg_cell_radius_m(1.0 / math.pi), 1000.0, rtol=1e-12)
    with pytest.raises(ValueError):
        avg_cell_radius_m(0.0)


def test_avg_cell_radius_formula():
    for rho in (0.5, 7.0, 30.0, 80.0, 1000.0):
        assert_allclose(avg_cell_radius_m(rho),
                        1000.0 / math.sqrt(math.pi * rho), rtol=1e-14)


def test_deploy_operator_streams():
    bs, ue = deploy_operator(30.0, 200.0, UNIT, seed=77)
    # bs and ue use distinct child streams of the same seed
    assert_array_equal(bs, deploy_ppp(30.0, UNIT, mix_seed(77, 0)))
    assert_array_equal(ue, deploy_ppp(200.0, UNIT, mix_seed(77, 1)))
    again_bs, again_ue = deploy_operator(30.0, 200.0, UNIT, seed=77)
    assert_array_equal(bs, again_bs)
    assert_array_equal(ue, again_ue)
    same_bs, same_ue = deploy_operator(200.0, 200.0, UNIT, seed=77)
    assert not np.array_equal(same_bs, same_ue)
