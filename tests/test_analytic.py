"""Closed-form scaling laws."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mmwshare.analytic import (REGIMES, ScalingInputs, bandwidth_per_ue,
                               nearest_distance_scaling, outage_fraction,
                               rate_scaling_exponent, summary)


def test_bandwidth_per_ue_reference_point():
    # W = 1 GHz, 30 BSs, 200 UEs, 2 operators: 150 MHz pooled, 75 MHz per license
    assert bandwidth_per_ue(1e9, 30, 200, 2, sharing=True) == 1.5e8
    assert bandwidth_per_ue(1e9, 30, 200, 2, sharing=False) == 7.5e7


def test_bandwidth_sharing_ratio_is_exactly_m():
    # oracle: unshared = shared / M as the final operation, so the ratio
    # shared/unshared reproduces M bit for bit
    rng = np.random.default_rng(44)
    for _ in range(100):
        w = float(rng.uniform(1e8, 2e9))
        n_bs = int(rng.integers(1, 200))
        n_ue = int(rng.integers(1, 2000))
        m = int(rng.integers(1, 7))
        shared = bandwidth_per_ue(w, n_bs, n_ue, m, True)
        unshared = bandwidth_per_ue(w, n_bs, n_ue, m, False)
        assert shared / unshared == m


def test_bandwidth_validation():
    with pytest.raises(ValueError):
        bandwidth_per_ue(0.0, 30, 200, 2, True)
    with pytest.raises(ValueError):
        bandwidth_per_ue(1e9, 30, 0, 2, True)
    with pytest.raises(ValueError):
        bandwidth_per_ue(1e9, 30, 200, 0, True)


def test_rate_scaling_exponents():
    assert rate_scaling_exponent("InterferenceLimited", 2.7) == 1.0
    assert rate_scaling_exponent("PowerLimited", 2.7) == 1.35
    assert rate_scaling_exponent("PowerLimited", 2.0) == 1.0
    with pytest.raises(ValueError):
        rate_scaling_exponent("Hybrid", 2.7)
    with pytest.raises(ValueError):
        rate_scaling_exponent("PowerLimited", 0.0)
    assert REGIMES == ("InterferenceLimited", "PowerLimited")


def test_outage_fraction_values():
    assert outage_fraction(0.02, 30.0) == pytest.approx(0.4, rel=1e-12)
    assert outage_fraction(0.03, 0.0) == 1.0
    # hinge at rho = 1/A_c, flat zero beyond
    kink = 1.0 / 0.03
    assert outage_fraction(0.03, kink) == pytest.approx(0.0, abs=1e-12)
    assert outage_fraction(0.03, kink * 2) == 0.0
    rho = np.array([0.0, 10.0, 40.0])
    assert_allclose(outage_fraction(0.03, rho), [1.0, 0.7, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        outage_fraction(0.0, 10.0)
    with pytest.raises(ValueError):
        outage_fraction(0.03, -1.0)


def test_nearest_distance_scaling():
    assert_allclose(nearest_distance_scaling(30.0), 1.0 / (2.0 * math.sqrt(30.0)),
                    rtol=1e-15)
    assert nearest_distance_scaling(1.0) == 0.5
    # quadrupling the density halves the distance
    assert_allclose(nearest_distance_scaling(120.0),
                    nearest_distance_scaling(30.0) / 2.0, rtol=1e-15)
    with pytest.raises(ValueError):
        nearest_distance_scaling(0.0)


def test_summary_keys_and_values():
    s = summary(ScalingInputs(rho=30.0))
    assert s["effective_density_per_km2"] == 60.0
    assert s["bandwidth_per_ue_shared_hz"] == 1.5e8
    assert s["bandwidth_per_ue_unshared_hz"] == 7.5e7
    assert s["rate_exponent_interference_limited"] == 1.0
    assert s["rate_exponent_power_limited"] == 1.35
    assert s["outage_fraction"] == pytest.approx(0.1, rel=1e-12)
    assert s["nearest_bs_distance_km"] == nearest_distance_scaling(30.0)


def test_scaling_inputs_validation():
    with pytest.raises(ValueError):
        ScalingInputs(rho=-1.0)
    with pytest.raises(ValueError):
        ScalingInputs(rho=30.0, M=0)
    with pytest.raises(ValueError):
        ScalingInputs(rho=30.0, A_c_km2=0.0)
    for name in ("rho", "W_hz", "alpha_pl", "A_c_km2"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                ScalingInputs(**{"rho": 30.0, name: bad})
