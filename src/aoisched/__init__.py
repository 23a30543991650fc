"""Slotted-time downlink scheduler simulator and policy library."""

from .metrics import PerUeStats, RunReport, aoi_decomposition_audit, assemble_cost
from .model import (FeasibilityReport, Scenario, ScenarioError, UeClass,
                    UeConfig, Variant, load_scenario, save_scenario, theta_sum,
                    validate)
from .sim import (LowerBound, PolicySpec, RunConfig, SweepPoint, derive_seed,
                  lower_bound, run, sweep)
from .solver import (SolverError, TStarSolution, compute_t_star, geo_geo1_latency,
                     hier_threshold)

__version__ = "0.1.0"
