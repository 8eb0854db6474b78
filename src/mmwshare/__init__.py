"""Monte Carlo simulator for spectrum, infrastructure and access sharing
in multi-operator millimeter-wave cellular networks.

The library layers cleanly: `geometry` draws Poisson deployments on a
torus, `channel` realizes link states and received powers, `scenario`
turns positions into who may serve and who interferes with whom under each
sharing kind, `allocation` associates users and computes SINR/rates,
`analytic` holds the closed-form scaling laws, `metrics` aggregates Monte
Carlo samples, `experiment` runs and pools drops and gap instances, and
`cli` writes the artifacts.
"""

from .allocation import (NONE, Association, InstanceSizeError, RateParams,
                         associate_blind, compute_sinr, coordinated_upper_bound,
                         network_sinr, split_bandwidth, user_rate)
from .analytic import (REGIMES, ScalingInputs, bandwidth_per_ue,
                       nearest_distance_scaling, outage_fraction,
                       rate_scaling_exponent)
from .channel import (AntennaModel, ChannelParams, LinkState, LinkTable,
                      beam_gain_db, draw_link_states, friis_intercept_db,
                      noise_power_dbm, outage_radius_m, path_loss_db,
                      state_probabilities)
from .config import (SPEC_REVISION, ConfigError, ExperimentConfig, config_hash,
                     default_config, load_config, save_config)
from .experiment import (DropOutcome, GapRow, ScenarioRunResult, SweepResult,
                         run_drop, run_gap, run_scenarios, run_sweep)
from .geometry import (Region, avg_cell_radius_m, deploy_operator, deploy_ppp,
                       mix_seed, wrapped_delta)
from .metrics import (EmpiricalCdf, cdf, fit_scaling_exponent, outage_rate,
                      percentile)
from .scenario import (SCENARIO_KINDS, RealizedScenario, Scenario,
                       build_scenario, realize_scenario, shared_bs_selection)

__version__ = "0.1.0"
