"""Anatomy of a single 28 GHz link: path loss, blockage, noise floors."""
import math

import numpy as np

from mmwshare.channel import (ChannelParams, LinkState, noise_power_dbm,
                              outage_radius_m, path_loss_db, state_probabilities)

p = ChannelParams()

# free-space path loss at 1 m: 20*log10(4*pi*f/c)
friis_db = 20.0 * math.log10(4.0 * math.pi * p.carrier_ghz * 1e9 / 299_792_458.0)
print(f"1 m free-space intercept at {p.carrier_ghz} GHz: "
      f"{friis_db:.2f} dB (model uses {p.pl_intercept_db})")
print(f"hard blockage radius: {outage_radius_m(p):.1f} m "
      f"(coverage area {p.hard_coverage_area_km2} km^2)")
print(f"noise floor, NF {7.0:.0f} dB: "
      f"{noise_power_dbm(1e9, 7.0):.1f} dBm over 1 GHz, "
      f"{noise_power_dbm(5e8, 7.0):.1f} dBm over 500 MHz")
print()

print(f"{'d (m)':>6} {'P(LOS)':>8} {'P(NLOS)':>8} {'P(out)':>8} "
      f"{'PL LOS':>8} {'PL NLOS':>8}")
for d in (1.0, 10.0, 30.0, 67.1, 90.0, 97.0, 100.0, 150.0):
    pl_los, pl_nlos, pl_out = state_probabilities(d, p)
    row = f"{d:>6.1f} {pl_los:>8.3f} {pl_nlos:>8.3f} {pl_out:>8.3f}"
    if pl_out < 1.0:
        row += (f" {path_loss_db(d, LinkState.LOS, p):>8.1f}"
                f" {path_loss_db(d, LinkState.NLOS, p):>8.1f}")
    print(row)

# dual-slope crossover: NLOS costs (2.7 - 2.0) * 10 dB per distance decade
d = np.array([10.0, 100.0])
gap = path_loss_db(d, np.full(2, LinkState.NLOS), p) - path_loss_db(
    d, np.full(2, LinkState.LOS), p)
print(f"\nNLOS penalty: {gap[0]:.1f} dB at 10 m, {gap[1]:.1f} dB at 100 m")
