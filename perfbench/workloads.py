"""The benchmark's workloads: which systems each runs, at which size.

Every workload runs all four policy families on its own system (``hier``
on the latency-weighted variant, ``vw`` and ``rd`` on the latency-
constrained twin, ``cmu`` on the latency UEs alone, the sub-scenario that
``solver.lower_bound`` builds), so each end-to-end ``mslot_per_s.<policy>``
figure exists on every workload.  ``fig5_sweep`` additionally times one
``reproduce fig5_cost`` call through the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from aoisched import presets
from aoisched.model import Scenario, UeClass, UeConfig, Variant, validate
from aoisched.sim import PolicySpec, RunConfig

POLICIES = ("hier", "vw", "rd", "cmu")

# Seeds whose check-size outputs have recorded digests: the CLI default
# and one seed held out from tuning.
DIGEST_SEEDS = (1, 7)


def latency_only(scenario: Scenario) -> Scenario:
    """The latency UEs alone, weighted: what ``lower_bound`` simulates."""
    return Scenario(ues=scenario.latency_ues, variant=Variant.LATENCY_WEIGHTED)


def reference_systems() -> dict[str, Scenario]:
    weighted = presets.reference_weighted()
    constrained = presets.reference_constrained()
    return {"hier": weighted, "vw": constrained, "rd": constrained,
            "cmu": latency_only(weighted)}


def wide48(variant: Variant) -> Scenario:
    """48 UEs, 16 per class: AoI total q=0.3, latency total q=0.16,
    throughput total alpha=0.15, so load 0.37 and zeta 0.63.  The
    constrained twin's ceiling (beta=30) keeps theta_sum at 0.86, so
    ``rd`` runs inside its feasible region."""
    lat = {"rho": 1.0} if variant is Variant.LATENCY_WEIGHTED else {"beta": 30.0}
    ues = [UeConfig(id=i, cls=UeClass.AOI, q=0.3 / 16, p=0.7, rho=1.0)
           for i in range(1, 17)]
    ues += [UeConfig(id=i, cls=UeClass.LATENCY, q=0.01, p=0.8, **lat)
            for i in range(17, 33)]
    ues += [UeConfig(id=i, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.15 / 16)
            for i in range(33, 49)]
    return Scenario(ues=tuple(ues), variant=variant)


def wide48_systems() -> dict[str, Scenario]:
    weighted = wide48(Variant.LATENCY_WEIGHTED)
    constrained = wide48(Variant.LATENCY_CONSTRAINED)
    return {"hier": weighted, "vw": constrained, "rd": constrained,
            "cmu": latency_only(weighted)}


@dataclass(frozen=True)
class Size:
    horizon: int             # slots of each family run
    replicates: int          # family runs per policy, seeds seed .. seed+replicates-1
    sweep_horizon: int = 0   # reproduce fig5_cost --horizon (0: no reproduce call)
    sweep_seeds: int = 0     # reproduce fig5_cost --seeds


@dataclass(frozen=True)
class Workload:
    name: str
    systems: Callable[[], dict[str, Scenario]]
    timed: Size    # one round of the timed work
    check: Size    # the digest check, and the --tiny run


SWEEP_JOBS = 2

WORKLOADS = {
    "ref_long": Workload("ref_long", reference_systems,
                         timed=Size(horizon=500_000, replicates=1),
                         check=Size(horizon=20_000, replicates=1)),
    "wide48_hier": Workload("wide48_hier", wide48_systems,
                            timed=Size(horizon=100_000, replicates=1),
                            check=Size(horizon=5_000, replicates=1)),
    "fig5_sweep": Workload("fig5_sweep", reference_systems,
                           timed=Size(horizon=50_000, replicates=2,
                                      sweep_horizon=50_000, sweep_seeds=4),
                           check=Size(horizon=5_000, replicates=1,
                                      sweep_horizon=5_000, sweep_seeds=2)),
}


def family_configs(systems: dict[str, Scenario], size: Size,
                   seed: int) -> list[tuple[str, RunConfig]]:
    """(label, config) for every family run of one round, in run order."""
    return [(f"{policy}.r{r}", RunConfig(scenario=systems[policy],
                                         policy=PolicySpec(policy),
                                         horizon=size.horizon, seed=seed + r))
            for policy in POLICIES for r in range(size.replicates)]


def reproduce_argv(size: Size, seed: int, jobs: int, out: str) -> list[str]:
    return ["reproduce", "fig5_cost", "--jobs", str(jobs), "--seed", str(seed),
            "--horizon", str(size.sweep_horizon), "--seeds", str(size.sweep_seeds),
            "--out", out]


def set_up(workload: Workload, size: Size, seed: int) -> list[tuple[str, RunConfig]]:
    """Build the workload's scenarios and configs and validate each scenario."""
    systems = workload.systems()
    for scenario in {id(s): s for s in systems.values()}.values():
        validate(scenario)
    if size.sweep_horizon:
        validate(presets.PRESETS["fig5_cost"].scenario)
    return family_configs(systems, size, seed)
