"""Sampling spread of the drop-based acceptance statistics (criteria 5-7).

    PYTHONPATH=src python tests/acceptance_spread.py [-k K] [--drops N] [--pinned]

Reruns the statistics of `tests/test_acceptance.py` criteria 5, 6 and 7,
with their configs, densities and drop counts, over K independent master
seeds 7919 * (s + 1), s = 0 .. K - 1; the rule never gives the pinned seed
0 that the tests use. It prints one JSON object: per statistic the mean,
sd (ddof 1, null for one seed), min and max over the seeds, and per check
the share of seeds on which it would fail. Next to criterion 7 it reports
each kind's p05 rate over served UEs and its outage share that is not
unassociation (served UEs below the target rate, as a share of all UEs).

`--drops N` runs every criterion at N drops (a smoke run); `--pinned` runs
the pinned seed alone, so its numbers are those the tests print. pytest
does not collect this file, and it gates nothing: a failing check is data.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
from dataclasses import replace

import numpy as np

from mmwshare.config import default_config
from mmwshare.experiment import _blocks, _run_block, run_sweep
from mmwshare.metrics import cdf, outage_rate, percentile
from mmwshare.scenario import SCENARIO_KINDS, Scenario

PINNED_SEED = 0
DROPS = {5: 200, 6: 50, 7: 300}   # as in the tests


def seed_of(s: int) -> int:
    return 7919 * (s + 1)


def criterion_05(seed: int, drops: int) -> tuple[dict, dict]:
    """Mean-rate exponents, power-limited and interference-dominant."""
    base = replace(default_config(), master_seed=seed, drops=drops)
    densities = [5.0, 10.0, 15.0, 20.0, 30.0]
    noise_cfg = replace(
        base,
        scenario=Scenario("NoSharing", num_operators=1),
        channel=replace(base.channel, los_decay_per_m=1e6, hard_coverage_area_km2=1e6),
        tx_power_dbm=-40.0,
        interference_enabled=False)
    intf_cfg = replace(base, scenario=Scenario("NoSharing", num_operators=1,
                                               license_bandwidth_hz=5e5))
    s_noise = run_sweep(noise_cfg, densities).fitted_exponent
    s_intf = run_sweep(intf_cfg, densities).fitted_exponent
    return ({"exponent_power_limited": s_noise, "exponent_interference": s_intf},
            {"power_limited_in_1.1..1.6": 1.1 <= s_noise <= 1.6,
             "interference_in_0.75..1.25": 0.75 <= s_intf <= 1.25})


def criterion_06(seed: int, drops: int) -> tuple[dict, dict]:
    """SpectrumAccess outage along the density sequence."""
    cfg = replace(default_config(), master_seed=seed, drops=drops,
                  scenario=Scenario("SpectrumAccess", access_share_fraction=1.0))
    densities = [5.0, 10.0, 20.0, 30.0, 50.0, 80.0]
    out = run_sweep(cfg, densities).outage_fraction
    n = drops * 400
    se = np.sqrt(np.maximum(out * (1.0 - out), 1e-12) / n)
    mono = all(out[i + 1] <= out[i] + 2.58 * (se[i] + se[i + 1])
               for i in range(len(out) - 1))
    stats = {f"outage_at_{d:g}_per_km2": float(o) for d, o in zip(densities, out)}
    return stats, {"non_increasing": mono, "final_below_0.05": bool(out[-1] < 0.05)}


def criterion_07(seed: int, drops: int) -> tuple[dict, dict]:
    """The four kinds' ordering, plus the served-UE view of their tails.

    Pools the drops through the engine's blocks, as `run_scenarios` does,
    and keeps each UE's serving BS as well as its rate and SINR."""
    cfg = replace(default_config(), master_seed=seed, drops=drops)
    parts = {kind: [] for kind in SCENARIO_KINDS}
    for block, seeds in _blocks(cfg, SCENARIO_KINDS, cfg.master_seed, 0, drops):
        for kind, out in _run_block(cfg, block, seeds).items():
            parts[kind].append((out.sinr_db, out.rate_bps, out.serving_bs))
    target = cfg.rate.target_rate_bps
    stats, median, p05, sinr = {}, {}, {}, {}
    for kind, outs in parts.items():
        sinr_db, rate, serving = (np.concatenate(column) for column in zip(*outs))
        served = serving >= 0
        rates = cdf(rate)
        median[kind] = percentile(rates, 0.5)
        p05[kind] = percentile(rates, 0.05)
        sinr[kind] = percentile(cdf(sinr_db), 0.5)
        stats[f"median_rate_mbps.{kind}"] = median[kind] / 1e6
        stats[f"p05_rate_mbps.{kind}"] = p05[kind] / 1e6
        stats[f"median_sinr_db.{kind}"] = sinr[kind]
        stats[f"served_p05_rate_mbps.{kind}"] = (
            percentile(cdf(rate[served]), 0.05) / 1e6 if served.any() else math.nan)
        stats[f"outage.{kind}"] = outage_rate(rate, target)
        stats[f"outage_not_unassociated.{kind}"] = float(
            np.count_nonzero(served & (rate < target)) / rate.size)
    infra_gap = abs(median["SpectrumInfra"] - median["Spectrum"]) / median["Spectrum"]
    stats["infra_gap_percent"] = 100 * infra_gap
    return stats, {
        "nosharing_median_below_spectrum": median["NoSharing"] < median["Spectrum"],
        "infra_gap_at_most_10_percent": infra_gap <= 0.10,
        "access_p05_at_least_spectrum": p05["SpectrumAccess"] >= p05["Spectrum"],
        "spectrum_median_sinr_at_most_nosharing": sinr["Spectrum"] <= sinr["NoSharing"],
    }


CRITERIA = {5: criterion_05, 6: criterion_06, 7: criterion_07}


def _finite(x):
    return x if math.isfinite(x) else None


def spread(seeds: list[int], drops: dict[int, int]) -> dict:
    report = {"seeds": seeds, "criteria": {}}
    for n, run in CRITERIA.items():
        values, failed = {}, {}
        for seed in seeds:
            stats, checks = run(seed, drops[n])
            for name, value in stats.items():
                values.setdefault(name, []).append(float(value))
            checks["criterion"] = all(checks.values())
            for name, ok in checks.items():
                failed[name] = failed.get(name, 0) + (not ok)
        report["criteria"][str(n)] = {
            "drops": drops[n],
            "statistics": {
                name: {"mean": _finite(statistics.fmean(v)),
                       "sd": _finite(statistics.stdev(v)) if len(v) > 1 else None,
                       "min": _finite(min(v)), "max": _finite(max(v))}
                for name, v in values.items()},
            "fail_share": {name: count / len(seeds) for name, count in failed.items()},
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", type=int, default=20, help="number of seeds (default 20)")
    parser.add_argument("--drops", type=int, help="drops for every criterion (default: the tests')")
    parser.add_argument("--pinned", action="store_true", help="run the tests' pinned seed alone")
    args = parser.parse_args(argv)
    if args.k < 1 or (args.drops is not None and args.drops < 1):
        parser.error("-k and --drops must be >= 1")
    seeds = [PINNED_SEED] if args.pinned else [seed_of(s) for s in range(args.k)]
    drops = {n: args.drops or d for n, d in DROPS.items()}
    rule = "pinned" if args.pinned else "7919 * (s + 1)"
    print(json.dumps({"seed_rule": rule, **spread(seeds, drops)}, indent=1, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
