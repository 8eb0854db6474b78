"""Empirical CDFs, percentiles, outage, log-log fits, density sweeps."""
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import mmwshare
from mmwshare.config import ConfigError, default_config
from mmwshare.experiment import _SWEEP_SEED_BASE, run_scenarios, run_sweep
from mmwshare.geometry import mix_seed
from mmwshare.metrics import cdf, fit_scaling_exponent, outage_rate, percentile


def test_cdf_is_the_stable_sort_of_its_samples():
    # byte for byte, so the CDF files print each signed zero where it was pooled
    rng = np.random.default_rng(77)
    ties = np.round(rng.normal(size=200), 1)   # rounding forces ties
    for samples in (ties, [0.0, -0.0, 2.0, -np.inf, -0.0, 0.0, -np.inf, 1.0],
                    [-0.0, 0.0, -np.inf, 0.0, -0.0, 1.0, 1.0]):
        want = np.sort(np.asarray(samples, dtype=float), kind="stable")
        got = cdf(samples)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_cdf_rejects_empty_and_non_1d():
    with pytest.raises(ValueError, match="empty population"):
        cdf([])
    with pytest.raises(ValueError, match="1-d"):
        cdf([[2.0, 1.0], [0.0, 3.0]])
    # -inf atoms (outage-heavy SINR samples) are legal
    assert percentile(cdf([2.0, -np.inf, 1.0]), 0.2) == -np.inf


def test_percentile_reference_cases():
    assert percentile(cdf([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0
    grid = cdf(np.arange(1.0, 101.0))
    assert percentile(grid, 0.05) == 5.0
    assert percentile(grid, 0.07) == 7.0
    assert percentile(grid, 0.95) == 95.0
    assert percentile(cdf([3.0, 3.0, 3.0]), 0.5) == 3.0
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            percentile(grid, bad)


def test_percentile_nearest_rank_random():
    rng = np.random.default_rng(3)
    values = np.sort(rng.normal(size=83))
    for p in rng.uniform(0.01, 0.99, size=50):
        exact = p * len(values)
        if abs(exact - round(exact)) < 1e-6:
            continue   # rank is ambiguous under float rounding; skip
        assert percentile(values, p) == values[math.ceil(exact) - 1]


def test_outage_rate_strictness():
    assert outage_rate([0.0, 5.0, 20.0], 10.0) == pytest.approx(2.0 / 3.0)
    assert outage_rate([10.0], 10.0) == 0.0    # at-target counts as served
    assert outage_rate([1.0, 2.0], 0.0) == 0.0
    assert outage_rate([1.0, 2.0], np.inf) == 1.0
    with pytest.raises(ValueError):
        outage_rate([1.0], -1.0)
    with pytest.raises(ValueError):
        outage_rate([], 1.0)


def test_fit_recovers_exact_power_law(capfd):
    d = np.array([5.0, 10.0, 20.0, 40.0, 80.0])
    assert_allclose(fit_scaling_exponent(d, 3.0 * d ** 1.35), 1.35, atol=1e-9)
    assert_allclose(fit_scaling_exponent(d, 7.0 / d), -1.0, atol=1e-9)
    with pytest.raises(ValueError):
        fit_scaling_exponent([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_scaling_exponent([1.0, 2.0, 3.0], [1.0, 0.0, 2.0])
    # no slope to fit: one distinct density, NaNs counting as one value
    for same in ([5.0, 5.0, 5.0], [0.0, -0.0, 0.0], [math.inf] * 3, [math.nan] * 3):
        with pytest.raises(ValueError, match="distinct"):
            fit_scaling_exponent(same, [1.0, 2.0, 3.0])
    for two in ([math.nan, -5.0, -5.0], [-5.0, -5.0, math.nan], [-5.0, math.nan, math.nan]):
        with pytest.raises(ValueError, match="positive"):   # past the distinct check
            fit_scaling_exponent(two, [1.0, 2.0, 3.0])
    # a non-finite density or value is refused before the fit reaches LAPACK,
    # which would print to stderr and raise LinAlgError, or return NaN
    capfd.readouterr()
    for dens, vals in (([math.nan, 5.0, 5.0], [1.0, 2.0, 3.0]),
                       ([5.0, 5.0, math.inf], [1.0, 2.0, 3.0]),
                       ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0]),
                       ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0])):
        with pytest.raises(ValueError, match="finite"):
            fit_scaling_exponent(dens, vals)
    assert capfd.readouterr() == ("", "")


def test_run_sweep_shapes_and_determinism():
    cfg = replace(default_config(), drops=3, ue_density_per_km2=80.0)
    dens = [10.0, 20.0, 40.0]
    a = run_sweep(cfg, dens)
    assert_array_equal(a.densities, dens)
    for arr in (a.median_rate_bps, a.p05_rate_bps, a.mean_rate_bps,
                a.outage_fraction):
        assert arr.shape == (3,)
    assert np.all((a.outage_fraction >= 0) & (a.outage_fraction <= 1))
    assert math.isfinite(a.fitted_exponent)
    b = run_sweep(cfg, dens)
    assert_array_equal(a.median_rate_bps, b.median_rate_bps)
    assert_array_equal(a.mean_rate_bps, b.mean_rate_bps)
    assert a.fitted_exponent == b.fitted_exponent


def test_run_sweep_argument_errors():
    cfg = replace(default_config(), drops=1)
    with pytest.raises(ConfigError, match="need at least one density"):
        run_sweep(cfg, [])
    # the range rule is the config's
    for bad in (0.0, -5.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="finite"):
            run_sweep(cfg, [10.0, bad])


def test_run_sweep_empty_population_is_nan():
    # a region with no UEs pools no sample: the run completes and every
    # statistic is undefined, while aggregating nothing directly still fails
    cfg = replace(default_config(), drops=1, ue_density_per_km2=1e-12)
    sweep = run_sweep(cfg, [30.0, 60.0, 90.0])
    for name in ("median_rate_bps", "p05_rate_bps", "mean_rate_bps", "outage_fraction"):
        assert np.isnan(getattr(sweep, name)).all()
    assert math.isnan(sweep.fitted_exponent)
    with pytest.raises(ValueError, match="empty population"):
        cdf([])


def test_doubling_drops_stays_within_bootstrap_ci():
    # estimator stability: the 2n-drop median lands inside the 99%
    # bootstrap interval of the n-drop median
    cfg = replace(default_config(), drops=10)
    one = run_sweep(cfg, [30.0])
    two = run_sweep(replace(cfg, drops=20), [30.0])
    # the sweep's ten drops at its first density, in drop order
    kind = cfg.scenario.kind
    rates = run_scenarios(replace(cfg, master_seed=mix_seed(cfg.master_seed, _SWEEP_SEED_BASE)),
                          (kind,))[kind].rate_bps
    assert percentile(cdf(rates), 0.5) == one.median_rate_bps[0]
    rng = np.random.default_rng(8)
    boots = np.array([
        percentile(cdf(rng.choice(rates, size=rates.size)), 0.5)
        for _ in range(400)])
    lo, hi = np.percentile(boots, [0.5, 99.5])
    assert lo <= two.median_rate_bps[0] <= hi


def test_metrics_loads_no_other_package_module():
    # metrics is pure aggregation. The package __init__ imports every
    # module, so the child process registers a bare `mmwshare` package and
    # imports only `mmwshare.metrics`: the run layer must stay unloaded.
    code = (
        "import importlib, sys, types\n"
        "pkg = types.ModuleType('mmwshare')\n"
        f"pkg.__path__ = {list(mmwshare.__path__)!r}\n"
        "sys.modules['mmwshare'] = pkg\n"
        "importlib.import_module('mmwshare.metrics')\n"
        "print(sorted(m for m in sys.modules if m.startswith('mmwshare.')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert "mmwshare.experiment" not in out
    assert out.strip() == "['mmwshare.metrics']"


def test_sweep_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 15 ms); a sweep that fits its
    # exponent, and the scenarios and gap commands, must not pay for it
    src = str(Path(mmwshare.__path__[0]).parent)
    code = (
        "import math, sys\n"
        "from dataclasses import replace\n"
        "from mmwshare.cli import main\n"
        "from mmwshare.config import default_config\n"
        "from mmwshare.experiment import run_sweep\n"
        "sweep = run_sweep(replace(default_config(), drops=1), [10.0, 20.0, 40.0])\n"
        "assert math.isfinite(sweep.fitted_exponent)\n"
        "for command in ('scenarios', 'gap'):\n"
        "    assert main([command, '--drops', '2', '--out', sys.argv[1] + command]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    out = subprocess.run([sys.executable, "-c", code, f"{tmp_path}/"], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-1] == "[]"
