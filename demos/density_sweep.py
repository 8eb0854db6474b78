"""Median rate and outage against BS density, next to the closed forms."""
from dataclasses import replace

from mmwshare.analytic import outage_fraction, rate_scaling_exponent
from mmwshare.config import default_config
from mmwshare.experiment import run_sweep

densities = [5.0, 10.0, 20.0, 30.0, 50.0, 80.0]
cfg = replace(default_config(), drops=30)
sweep = run_sweep(cfg, densities)

a_c = cfg.channel.hard_coverage_area_km2
print(f"{'rho':>5} {'median rate':>12} {'outage':>8} {'1-A_c*rho':>10}")
for i, rho in enumerate(densities):
    print(f"{rho:>5.0f} {sweep.median_rate_bps[i] / 1e6:>9.1f} Mb/s "
          f"{sweep.outage_fraction[i]:>8.3f} "
          f"{outage_fraction(a_c, rho):>10.3f}")

# the fitted exponent sits between the interference-limited slope (1.0)
# and the power-limited one (alpha/2); blockage pushes it above both at
# low density, where densification mostly converts outage into coverage
print(f"\nfitted mean-rate exponent: {sweep.fitted_exponent:.3f}")
print(f"interference-limited reference: "
      f"{rate_scaling_exponent('InterferenceLimited', cfg.channel.pl_exponent_nlos)}")
print(f"power-limited reference: "
      f"{rate_scaling_exponent('PowerLimited', cfg.channel.pl_exponent_nlos)}")
