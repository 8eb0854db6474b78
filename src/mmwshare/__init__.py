"""Monte Carlo simulator for spectrum, infrastructure and access sharing
in multi-operator millimeter-wave cellular networks.

The library layers cleanly: `geometry` draws Poisson deployments on a
torus, `channel` realizes link states and received powers, `scenario`
turns positions into where the radios stand, who may serve and who
interferes with whom under each sharing kind, `allocation` associates
users and computes SINR/rates, `analytic` holds the closed-form scaling
laws, `metrics` aggregates Monte Carlo samples, `experiment` runs and
pools drops and gap instances, and `cli` writes the artifacts. The package
root re-exports only what the README's quick start imports; everything
else is imported from its module.
"""

from .config import default_config
from .experiment import run_scenarios

__version__ = "0.1.0"
