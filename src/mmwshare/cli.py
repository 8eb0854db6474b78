"""Command-line front end: run experiments, write deterministic artifacts.

Subcommands:

- ``scenarios``: run the four sharing kinds over common drops, emit one
  SINR CDF and one rate CDF CSV per kind plus a summary JSON.
- ``sweep``: density sweep of the configured scenario, emit the sweep CSV
  (and a JSON with the fitted scaling exponent).
- ``gap``: blind vs brute-force coordinated association on small random
  instances, emit per-instance results.
- ``analytic``: print the closed-form scaling table for the config (it
  takes ``--config`` only).

Exit codes: 0 ok, 2 config error, 3 runtime error, 4 instance-size error
(only ``gap`` runs the exhaustive search, so only ``gap`` exits with 4).
Every artifact embeds spec_revision, config_hash and master_seed; given
the same config and seed, artifacts are byte-identical run to run.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from json import dumps
from pathlib import Path

import numpy as np

from .allocation import InstanceSizeError
from .analytic import summary as analytic_summary
from .config import (SPEC_REVISION, ConfigError, ExperimentConfig, config_hash,
                     default_config, load_config)
from .experiment import map_shares, run_gap, run_scenarios, run_sweep
from .metrics import cdf, percentile
from .scenario import SCENARIO_KINDS


def _provenance(cfg: ExperimentConfig) -> dict:
    """The fields every artifact of a command opens with; a command computes
    them, and so `config_hash`, once."""
    return {"spec_revision": SPEC_REVISION, "config_hash": config_hash(cfg),
            "master_seed": cfg.master_seed}


def _csv_header(provenance: dict, columns: str) -> str:
    """A CSV's `# key=value` provenance lines, then its column names."""
    return "".join(f"# {k}={v}\n" for k, v in provenance.items()) + columns + "\n"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


_ROWS_PER_WRITE = 4096   # CDF rows formatted and written at a time


def write_cdf_csv(path: Path, provenance: dict, sorted_values, cum_prob) -> None:
    """CSV of an empirical CDF: columns value,cum_prob, one row per sample
    of `sorted_values` (a `metrics.cdf`), written in the order given. It
    touches no state but its file, so a forked child may write it.

    `cum_prob` is the formatted (i + 1) / n column, one entry per sample.
    Rows are streamed `_ROWS_PER_WRITE` at a time, each value formatted
    once as the repr of a Python float (`write_table_csv`'s `str`)."""
    v = np.asarray(sorted_values, dtype=float)
    if len(v) != len(cum_prob):
        raise ValueError(f"{len(v)} values but {len(cum_prob)} cum_prob entries")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_header(provenance, "value,cum_prob"))
        for i in range(0, len(v), _ROWS_PER_WRITE):
            rows = zip(v[i:i + _ROWS_PER_WRITE].tolist(), cum_prob[i:i + _ROWS_PER_WRITE])
            fh.write("".join([f"{x!r},{p}\n" for x, p in rows]))


def write_table_csv(path: Path, provenance: dict, columns: str, rows) -> None:
    """A small CSV: provenance, column names, then one line per row of Python
    numbers, each written as its `str` (a float's repr, an int's digits)."""
    _write_text(path, _csv_header(provenance, columns)
                + "".join(",".join(map(str, row)) + "\n" for row in rows))


def _finite_or_null(obj):
    """`obj` with every non-finite float (nested in dicts and lists) as None."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_summary_json(path: Path, provenance: dict, payload: dict) -> None:
    """Strict JSON: a non-finite statistic (NaN, +-inf) is written as null."""
    doc = {**provenance, **payload}
    _write_text(path, dumps(_finite_or_null(doc), sort_keys=True, indent=2,
                            allow_nan=False) + "\n")


def _parse_densities(text: str) -> list[float]:
    """The numbers of a comma-separated list; `run_sweep` refuses an empty
    list and applies the config's range rule to each density."""
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"--densities: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwshare",
        description="Monte Carlo simulator for spectrum, infrastructure and "
                    "access sharing in multi-operator mmWave networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_option(p):
        p.add_argument("--config", metavar="PATH", help="JSON experiment config")

    def common(p):
        config_option(p)
        p.add_argument("--seed", type=int, metavar="U64", help="override master_seed")
        p.add_argument("--drops", type=int, metavar="N", help="override drop count")
        p.add_argument("--out", metavar="DIR", default="results",
                       help="output directory (default: results)")

    p = sub.add_parser("scenarios", help="compare the four sharing scenarios")
    common(p)
    p.add_argument("--scenario", choices=SCENARIO_KINDS,
                   help="run a single kind instead of all four")

    p = sub.add_parser("sweep", help="density sweep of the configured scenario")
    common(p)
    p.add_argument("--scenario", choices=SCENARIO_KINDS,
                   help="override the configured scenario kind")
    p.add_argument("--densities", default="5,10,20,30,50,80",
                   help="comma-separated BS densities per km^2")

    p = sub.add_parser("gap", help="blind vs coordinated upper bound on small instances")
    common(p)

    p = sub.add_parser("analytic", help="print the closed-form scaling table")
    config_option(p)
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.drops is not None:
        cfg = replace(cfg, drops=args.drops)
    return cfg


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_scenarios(args) -> int:
    """Every SINR CDF file, then every rate one, is written by the processes
    that shared the drops (`map_shares`); the summary and stdout by this one."""
    cfg = _load(args)
    out = _outdir(args)
    kinds = (args.scenario,) if args.scenario else SCENARIO_KINDS
    results = run_scenarios(cfg, kinds)
    provenance = _provenance(cfg)
    # every kind pools the same UEs, so one cum_prob column serves every file
    n = len(next(iter(results.values())).rate_bps)
    cum_prob = [repr((i + 1) / n) for i in range(n)]
    files = [(f"cdf_sinr_{kind}.csv", res.sinr_cdf) for kind, res in results.items()]
    files += [(f"cdf_rate_{kind}.csv", res.rate_cdf) for kind, res in results.items()]
    map_shares(lambda part: [write_cdf_csv(out / name, provenance, values, cum_prob)
                             for name, values in files[part[0]:part[-1] + 1]], len(files))
    summary = {}
    for kind, res in results.items():
        summary[kind] = {
            "median_rate_bps": res.median_rate_bps,
            "p05_rate_bps": res.p05_rate_bps,
            "median_sinr_db": res.median_sinr_db,
            "outage_fraction": res.outage_fraction,
            "n_ue_samples": int(len(res.rate_bps)),
            "drops": cfg.drops,
        }
        print(f"{kind}: median rate {res.median_rate_bps / 1e6:.1f} Mb/s, "
              f"outage {res.outage_fraction:.3f}")
    write_summary_json(out / "summary.json", provenance, {"scenarios": summary})
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if args.scenario:
        cfg = replace(cfg, scenario=replace(cfg.scenario, kind=args.scenario))
    densities = _parse_densities(args.densities)
    sweep = run_sweep(cfg, densities)   # raises on a refused density, before any output
    out = _outdir(args)
    provenance = _provenance(cfg)
    write_table_csv(out / "sweep.csv", provenance,
                    "density_bs_km2,median_rate_bps,p05_rate_bps,outage_fraction",
                    np.array([sweep.densities, sweep.median_rate_bps, sweep.p05_rate_bps,
                              sweep.outage_fraction], dtype=float).T.tolist())
    write_summary_json(out / "sweep.json", provenance, {
        "densities_bs_km2": list(sweep.densities),
        "mean_rate_bps": list(sweep.mean_rate_bps),
        "fitted_exponent": sweep.fitted_exponent,
    })
    print(f"sweep over {len(densities)} densities, "
          f"fitted exponent {sweep.fitted_exponent:.3f}")
    return 0


def cmd_gap(args) -> int:
    cfg = _load(args)
    out = _outdir(args)
    rows = run_gap(cfg, n_instances=cfg.drops)
    provenance = _provenance(cfg)
    write_table_csv(out / "gap.csv", provenance,
                    "instance_id,blind_sum_rate_bps,ub_sum_rate_bps,gap_percent",
                    [(r.instance_id, r.blind_sum_rate_bps, r.ub_sum_rate_bps, r.gap_percent)
                     for r in rows])
    gaps = [r.gap_percent for r in rows]
    median_gap = percentile(cdf(gaps), 0.5)
    write_summary_json(out / "gap.json", provenance, {
        "instances": len(rows),
        "median_gap_percent": median_gap,
        "max_gap_percent": max(gaps),
        "dominance_violations": sum(
            1 for r in rows if r.ub_sum_rate_bps < r.blind_sum_rate_bps),
    })
    print(f"{len(rows)} instances, median gap {median_gap:.2f}%")
    return 0


def cmd_analytic(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    for key, value in analytic_summary(cfg).items():
        print(f"{key:<40} {value}")
    return 0


_COMMANDS = {"scenarios": cmd_scenarios, "sweep": cmd_sweep,
             "gap": cmd_gap, "analytic": cmd_analytic}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InstanceSizeError as exc:
        print(f"instance size error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:   # runtime failures map to a distinct code
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
