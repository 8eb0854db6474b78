#!/usr/bin/env python3
"""Plot the artifacts found in a directory (requires matplotlib).

    python demos/plot_results.py [DIR]     # DIR defaults to results

Writes cdf_sinr.png, cdf_rate.png, sweep.png and gap.png next to the
artifacts they plot, for whichever artifacts are present.
"""
import argparse
import glob
import os.path

import matplotlib.pyplot as plt
import numpy as np

parser = argparse.ArgumentParser(description="Plot mmwshare artifacts.")
parser.add_argument("directory", nargs="?", default="results",
                    help="artifact directory (default: results)")
artifacts = parser.parse_args().directory


def load(path):
    # genfromtxt would take the first "# spec_revision=..." line for the
    # column names, so the provenance header is dropped first
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return np.genfromtxt(rows, delimiter=",", names=True)

for metric in ("sinr", "rate"):
    files = sorted(glob.glob(os.path.join(artifacts, f"cdf_{metric}_*.csv")))
    if files:
        plt.figure()
        for f in files:
            d = load(f)
            kind = os.path.basename(f)[len(f"cdf_{metric}_"):-len(".csv")]
            plt.step(d["value"], d["cum_prob"], where="post", label=kind)
        plt.xlabel("SINR (dB)" if metric == "sinr" else "rate (bit/s)")
        if metric == "rate":
            plt.xscale("log")
        plt.ylabel("empirical CDF")
        plt.legend()
        plt.savefig(os.path.join(artifacts, f"cdf_{metric}.png"), dpi=150)

sweep = os.path.join(artifacts, "sweep.csv")
if os.path.exists(sweep):
    d = load(sweep)
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    ax1.loglog(d["density_bs_km2"], d["median_rate_bps"], "o-", label="median")
    ax1.loglog(d["density_bs_km2"], d["p05_rate_bps"], "s-", label="5%")
    ax1.set_xlabel("BS density (km$^{-2}$)")
    ax1.set_ylabel("rate (bit/s)")
    ax1.legend()
    ax2.plot(d["density_bs_km2"], d["outage_fraction"], "o-")
    ax2.set_xlabel("BS density (km$^{-2}$)")
    ax2.set_ylabel("outage fraction")
    fig.savefig(os.path.join(artifacts, "sweep.png"), dpi=150)

gap = os.path.join(artifacts, "gap.csv")
if os.path.exists(gap):
    d = load(gap)
    plt.figure()
    plt.hist(d["gap_percent"], bins=30)
    plt.xlabel("coordination gap (%)")
    plt.ylabel("instances")
    plt.savefig(os.path.join(artifacts, "gap.png"), dpi=150)
