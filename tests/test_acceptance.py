"""Acceptance gate: ten end-to-end criteria.

Each test prints one `criterion N PASS/FAIL: ...` line (visible under
pytest -s) and then asserts the same condition, so the suite both reports
and enforces the gate. The drop-based criteria 5, 6 and 7 are defined
once, in `acceptance_spread.py`, with their configs, densities, drop
counts and thresholds; the tests run them at its pinned seed, and its
script runs the same functions over other seeds.
"""
import math

import numpy as np

from mmwshare.allocation import (RateParams, associate_blind,
                                 coordinated_upper_bound, user_rate)
from mmwshare.analytic import bandwidth_per_ue, outage_fraction
from mmwshare.channel import AntennaModel, ChannelParams, LinkState, LinkTable
from mmwshare.cli import main as cli_main
from mmwshare.geometry import Region, avg_cell_radius_m, deploy_ppp, mix_seed
from mmwshare.metrics import cdf, percentile

from acceptance_spread import DROPS, PINNED_SEED, criterion_05, criterion_06, criterion_07
from test_allocation import _oracle_search, _oracle_value
from test_channel import draw_link_states


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_cell_radius():
    r30, r80 = avg_cell_radius_m(30.0), avg_cell_radius_m(80.0)
    # oracle: 1000 / sqrt(pi * rho) meters
    ok = (abs(r30 - 1000.0 / math.sqrt(math.pi * 30.0)) < 1e-9
          and abs(r80 - 1000.0 / math.sqrt(math.pi * 80.0)) < 1e-9
          and abs(r30 - 103.0) <= 1.0 and abs(r80 - 63.0) <= 1.0)
    _report(1, ok, f"avg cell radius {r30:.2f} m at 30/km^2, {r80:.2f} m at 80/km^2")
    assert ok


def test_criterion_02_rate_formula_exact():
    p = RateParams()
    r1 = user_rate(1.0, 1e9, p)
    r15 = user_rate(15.0, 1e9, p)
    ok = r1 == 2e8 and r15 == 8e8
    _report(2, ok, f"rate(SINR=1, 1 GHz) = {r1:.0f} bit/s, rate(SINR=15) = {r15:.0f}")
    assert ok


def test_criterion_03_sharing_bandwidth_ratio():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(100):
        w = float(rng.uniform(1e8, 2e9))
        n_bs = int(rng.integers(1, 150))
        n_ue = int(rng.integers(1, 1500))
        m = int(rng.integers(1, 7))
        ratio = (bandwidth_per_ue(w, n_bs, n_ue, m, True)
                 / bandwidth_per_ue(w, n_bs, n_ue, m, False))
        ok = ok and ratio == m
    _report(3, ok, "pooled/per-license bandwidth ratio equals M exactly on "
                   "100 random draws, M in 1..6")
    assert ok


def test_criterion_04_outage_closed_form():
    a_c = ChannelParams().hard_coverage_area_km2
    kink = 1.0 / a_c
    grid = np.array([0.0, 5.0, 10.0, 20.0, kink, 40.0, 80.0])
    got = outage_fraction(a_c, grid)
    want = np.maximum(1.0 - a_c * grid, 0.0)   # oracle
    ok = (np.allclose(got, want, atol=1e-12)
          and got[0] == 1.0 and abs(got[4]) < 1e-12 and got[5] == 0.0 == got[6])
    _report(4, ok, f"linear outage decay with kink at {kink:.2f} BS/km^2 "
                   "matches max(1 - A_c*rho, 0) on the density grid")
    assert ok


def test_criterion_05_rate_density_scaling():
    stats, checks = criterion_05(PINNED_SEED, DROPS[5])
    ok = all(checks.values())
    _report(5, ok, f"mean-rate exponents: {stats['exponent_power_limited']:.3f} "
                   "power-limited (want 1.1..1.6), "
                   f"{stats['exponent_interference']:.3f} interference-dominant "
                   "(want 0.75..1.25)")
    assert ok


def test_criterion_06_outage_falls_with_density():
    stats, checks = criterion_06(PINNED_SEED, DROPS[6])
    out = list(stats.values())   # outage at each density, in sweep order
    ok = all(checks.values())
    _report(6, ok, "outage vs density "
            + " -> ".join(f"{o:.3f}" for o in out)
            + f"; non-increasing={checks['non_increasing']}, final {out[-1]:.4f} < 0.05")
    assert ok


def test_criterion_07_scenario_ordering():
    stats, checks = criterion_07(PINNED_SEED, DROPS[7])
    ok = all(checks.values())
    _report(7, ok,
            f"median rates Mb/s: NoSharing {stats['median_rate_mbps.NoSharing']:.1f} < "
            f"Spectrum {stats['median_rate_mbps.Spectrum']:.1f} "
            f"({checks['nosharing_median_below_spectrum']}); "
            f"infra gap {stats['infra_gap_percent']:.1f}% <= 10% "
            f"({checks['infra_gap_at_most_10_percent']}); "
            f"access p05 {stats['p05_rate_mbps.SpectrumAccess']:.2f} >= "
            f"spectrum p05 {stats['p05_rate_mbps.Spectrum']:.2f} "
            f"({checks['access_p05_at_least_spectrum']}); "
            f"median SINR {stats['median_sinr_db.Spectrum']:.1f} dB <= "
            f"{stats['median_sinr_db.NoSharing']:.1f} dB "
            f"({checks['spectrum_median_sinr_at_most_nosharing']})")
    assert ok


def test_criterion_08_coordination_gap():
    region = Region(0.2, 0.2)
    params = RateParams()
    channel, antenna = ChannelParams(), AntennaModel()
    pool = 1e9   # two pooled 500 MHz licenses
    rng = np.random.default_rng(2024)
    gaps = []
    violations = 0
    oracle_ok = True
    for i in range(200):
        n_ue = int(rng.integers(1, 7))
        per_op = rng.integers(1, 4, size=2)
        bs_xy = rng.random((int(per_op.sum()), 2)) * 0.2
        ue_xy = rng.random((n_ue, 2)) * 0.2
        bs_op = np.repeat(np.arange(2), per_op)
        ue_op = rng.integers(0, 2, size=n_ue)
        access = bs_op[:, None] == ue_op[None, :]
        coch = np.ones(access.shape, bool)
        links = LinkTable.realize_block([(bs_xy, ue_xy, i)], region, 30.0, channel, antenna)
        serving, ub_v, blind_v = coordinated_upper_bound(links, access, coch,
                                                         pool, params, 7.0)
        want_a, want_v = _oracle_search(links, access, coch, pool, params, 7.0)
        blind = associate_blind(links, links.at_links(access))
        oracle_ok = (oracle_ok and ub_v == want_v
                     and np.array_equal(serving, want_a)
                     and blind_v == _oracle_value(links, blind, coch, pool, params, 7.0))
        violations += ub_v < blind_v
        gaps.append(100.0 * (ub_v - blind_v) / ub_v if ub_v > 0 else 0.0)
    median_gap = percentile(cdf(gaps), 0.5)
    ok = violations == 0 and oracle_ok
    _report(8, ok, f"200 instances: median gap {median_gap:.2f}%, max "
                   f"{max(gaps):.2f}%, {sum(g > 0 for g in gaps)} instances "
                   f"with positive gap, {violations} dominance violations, "
                   f"search and blind value bit-identical to the independent "
                   f"oracle: {oracle_ok}")
    assert ok


def test_criterion_09_artifacts_reproducible(tmp_path, capsys):
    specs = [
        ("scenarios", ["scenarios", "--drops", "1", "--scenario", "NoSharing"]),
        ("sweep", ["sweep", "--densities", "5,10", "--drops", "1"]),
        ("gap", ["gap", "--drops", "2"]),
    ]
    ok = True
    for name, argv in specs:
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            ok = ok and cli_main(argv + ["--out", str(out)]) == 0
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        ok = ok and names == sorted(p.name for p in dirs[1].iterdir())
        for fname in names:
            ok = ok and ((dirs[0] / fname).read_bytes()
                         == (dirs[1] / fname).read_bytes())
    capsys.readouterr()   # drop progress output from the runs above
    ok = ok and cli_main(["analytic"]) == 0
    first = capsys.readouterr().out
    ok = ok and cli_main(["analytic"]) == 0
    ok = ok and capsys.readouterr().out == first
    with capsys.disabled():
        _report(9, ok, "scenarios/sweep/gap artifacts byte-identical across "
                       "reruns; analytic output stable")
    assert ok


def test_criterion_10_statistical_sanity():
    # PPP counts: 1e4 draws at intensity 30 on 1 km^2
    counts = np.array([len(deploy_ppp(30.0, Region(1.0, 1.0), mix_seed(99, k)))
                       for k in range(10_000)])
    mean, var = counts.mean(), counts.var()
    ok_ppp = (abs(mean - 30.0) <= 4.0 * math.sqrt(30.0 / 10_000)
              and abs(var / mean - 1.0) <= 0.1)
    # link states: 1e5 draws at the LOS e-folding distance
    states = draw_link_states(np.full(100_000, 67.1), ChannelParams(),
                              np.random.default_rng(55))
    f_los = float(np.mean(states == LinkState.LOS))
    ok_state = abs(f_los - math.exp(-1.0)) < 0.01
    # shadowing: one BS against 1e5 all-LOS UEs
    p = ChannelParams(los_decay_per_m=0.0, hard_coverage_area_km2=1e6)
    ue = np.random.default_rng(56).random((100_000, 2))
    table = LinkTable.realize_block([(np.array([[0.5, 0.5]]), ue, 57)], Region(1.0, 1.0), 30.0, p,
                                    AntennaModel())
    sh = table.shadowing_db   # one BS, every link LOS: one entry per UE
    assert sh.shape == (100_000,)
    ok_shadow = (abs(float(sh.mean())) <= 0.02 * 4.0
                 and abs(float(sh.std()) / 4.0 - 1.0) <= 0.02)
    ok = ok_ppp and ok_state and ok_shadow
    _report(10, ok, f"PPP mean {mean:.3f} var/mean {var / mean:.3f}; "
                    f"LOS frequency {f_los:.4f} vs {math.exp(-1.0):.4f}; "
                    f"shadowing mean {float(sh.mean()):+.4f} dB, "
                    f"std {float(sh.std()):.3f} dB")
    assert ok
