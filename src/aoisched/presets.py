"""Pinned experiment presets over the three-UE reference system.

The reference system: one AoI UE (q=0.9, p=0.7, rho=1), one latency UE
(q=0.2, p=0.8), one throughput UE (p=0.9).  Presets differ in which
constraint is swept and which policy runs.  Each preset names the
``reproduce`` runner for its shape, its CSV header, its default horizon and
its check, which turns the runner's results into ``(name, ok, detail)``
verdicts.  Every ``reproduce`` threshold is declared in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from .model import Scenario, UeClass, UeConfig, Variant, replace_param
from .solver import geo_geo1_latency

ALPHA_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
BETA_GRID = [1.2, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
WEIGHT_BETAS = [1.0, 2.0, 5.0]

AOI_UE, LATENCY_UE, THROUGHPUT_UE = 1, 2, 3
LATENCY_Q = 0.2  # the latency UE's arrival rate, hence its delivery rate
LATENCY_P = 0.8  # its service success rate

# Tolerance on a per-UE delivery rate: one UE against a target, or one
# UE's rates across a grid or across policies.  ``report`` uses it too.
RATE_TOL = 0.01
MONOTONE_SLACK = 0.005      # allowed rise of the AoI UE's rate between alphas
THROUGHPUT_FLOOR = 0.19     # fig8: throughput UE rate at every beta
LATENCY_FLOOR = geo_geo1_latency(LATENCY_P, LATENCY_Q)  # fig6: latency UE's floor
FLOOR_TOL = 0.03            # fig6: relative, below the floor
BETA_TOL = 0.05             # fig6: relative, at or above the floor
WEIGHT_CEILING = 50         # fig5_weights beta=1: the weight must pass this ...
WEIGHT_UPDATES = 200        # ... within this many updates

Verdict = tuple[str, bool, str]


def reference_weighted(alpha: float = 0.2) -> Scenario:
    return Scenario(ues=(
        UeConfig(id=AOI_UE, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
        UeConfig(id=LATENCY_UE, cls=UeClass.LATENCY, q=LATENCY_Q, p=LATENCY_P, rho=1.0),
        UeConfig(id=THROUGHPUT_UE, cls=UeClass.THROUGHPUT, p=0.9, alpha=alpha),
    ), variant=Variant.LATENCY_WEIGHTED)


def reference_constrained(beta: float = 2.0, alpha: float = 0.2) -> Scenario:
    """The same system with a latency ceiling ``beta`` in place of the weight."""
    return replace(replace_param(reference_weighted(alpha), LATENCY_UE, rho=None, beta=beta),
                   variant=Variant.LATENCY_CONSTRAINED)


# Sweep checks get ``means[policy][value]`` from ``cli.sweep_means``; the
# alpha shape adds the cost bound ``lb`` to each value.

def check_fig4(means: dict) -> Iterator[Verdict]:
    by_alpha = means["hier"]
    for v, m in by_alpha.items():
        r2 = m["ues"][LATENCY_UE]["throughput"]
        yield (f"fig4 alpha={v}: latency-ue rate {LATENCY_Q} +- {RATE_TOL}",
               abs(r2 - LATENCY_Q) <= RATE_TOL, f"measured {r2:.4f}")
        r3 = m["ues"][THROUGHPUT_UE]["throughput"]
        yield (f"fig4 alpha={v}: throughput-ue rate >= alpha - {RATE_TOL}",
               r3 >= v - RATE_TOL, f"measured {r3:.4f}")
    r1s = [m["ues"][AOI_UE]["throughput"] for m in by_alpha.values()]
    yield ("fig4: aoi-ue rate non-increasing in alpha",
           all(a >= b - MONOTONE_SLACK for a, b in zip(r1s, r1s[1:])),
           " ".join(f"{x:.4f}" for x in r1s))


def check_fig5_cost(means: dict) -> Iterator[Verdict]:
    by_alpha = means["hier"]
    for v, m in by_alpha.items():
        yield (f"fig5 alpha={v}: cost >= lb", m["cost"] >= m["lb"],
               f"cost {m['cost']:.4f} lb {m['lb']:.4f}")
    first, *_, last = by_alpha
    gap = {v: (by_alpha[v]["cost"] - by_alpha[v]["lb"]) / by_alpha[v]["lb"]
           for v in (first, last)}
    yield ("fig5: relative gap shrinks from first to last alpha", gap[last] < gap[first],
           f"gap@{first}={gap[first]:.3f} gap@{last}={gap[last]:.3f}")


def check_fig5_weights(trajectories: dict[float, Sequence[float]]) -> Iterator[Verdict]:
    """``trajectories[beta]``: the latency UE's virtual weight after each update."""
    rising = trajectories[1.0]
    over = next((i for i, r in enumerate(rising, 1) if r > WEIGHT_CEILING), None)
    yield (f"fig5_weights beta=1: weight exceeds {WEIGHT_CEILING} within "
           f"{WEIGHT_UPDATES} updates", over is not None and over <= WEIGHT_UPDATES,
           f"max over {len(rising)} updates = {max(rising, default=0.0):.2f}")
    yield ("fig5_weights beta=1: weight nondecreasing once latency sits above beta",
           all(b >= a for a, b in zip(rising, rising[1:])), "")
    falling = trajectories[5.0]
    first0 = next((i for i, r in enumerate(falling) if r == 0.0), None)
    yield ("fig5_weights beta=5: weight reaches 0 and stays 0",
           first0 is not None and all(r == 0.0 for r in falling[first0:]),
           f"first zero at update {None if first0 is None else first0 + 1}")


def check_fig6(means: dict) -> Iterator[Verdict]:
    for v, m in means["rd"].items():
        lbar = m["ues"][LATENCY_UE]["avg_latency"]
        if v < LATENCY_FLOOR:
            yield (f"fig6 rd beta={v}: latency pinned at queueing floor +- {FLOOR_TOL:.0%}",
                   abs(lbar - LATENCY_FLOOR) <= FLOOR_TOL * LATENCY_FLOOR,
                   f"measured {lbar:.4f}")
        else:
            yield (f"fig6 rd beta={v}: latency within {BETA_TOL:.0%} of beta",
                   abs(lbar - v) <= BETA_TOL * v, f"measured {lbar:.4f}")


def check_fig8(means: dict) -> Iterator[Verdict]:
    ues = (AOI_UE, LATENCY_UE, THROUGHPUT_UE)
    for policy, by_beta in means.items():
        for ue_id in ues:
            vals = [m["ues"][ue_id]["throughput"] for m in by_beta.values()]
            spread = max(vals) - min(vals)
            yield (f"fig8 {policy} ue {ue_id}: throughput spread over beta < {RATE_TOL}",
                   spread < RATE_TOL, f"spread {spread:.4f}")
        r3 = min(m["ues"][THROUGHPUT_UE]["throughput"] for m in by_beta.values())
        yield (f"fig8 {policy}: throughput-ue rate >= {THROUGHPUT_FLOOR} at all beta",
               r3 >= THROUGHPUT_FLOOR, f"min {r3:.4f}")
    agree = True
    for v, m in means["vw"].items():
        for ue_id in ues:
            a = m["ues"][ue_id]["throughput"]
            b = means["rd"][v]["ues"][ue_id]["throughput"]
            if abs(a - b) > RATE_TOL:
                agree = False
                yield (f"fig8 beta={v} ue {ue_id}: vw and rd rates agree +- {RATE_TOL}",
                       False, f"{a:.4f} vs {b:.4f}")
    yield f"fig8: vw and rd per-ue rates agree +- {RATE_TOL} on the grid", agree, ""


ALPHA_HEADER = ("alpha", "ue_id", "throughput", "avg_aoi", "avg_latency", "t_star",
                "lb", "cost")
BETA_HEADER = ("beta", "policy", "ue_id", "avg_aoi", "avg_latency", "throughput")


@dataclass(frozen=True)
class ExperimentPreset:
    scenario: Scenario
    param: str
    grid: tuple[float, ...]
    policies: tuple[str, ...]
    shape: str                  # "alpha", "beta" or "weights": which runner
    header: tuple[str, ...]
    check: Callable[[dict], Iterator[Verdict]]
    horizon: int = 10 ** 6      # used when --horizon is not given


PRESETS = {
    "fig4": ExperimentPreset(reference_weighted(), "alpha", tuple(ALPHA_GRID), ("hier",),
                             "alpha", ALPHA_HEADER, check_fig4),
    "fig5_cost": ExperimentPreset(reference_weighted(), "alpha", tuple(ALPHA_GRID), ("hier",),
                                  "alpha", ALPHA_HEADER, check_fig5_cost),
    # 2M slots: WEIGHT_UPDATES weight updates at the default period f = 10^4
    "fig5_weights": ExperimentPreset(reference_constrained(), "beta", tuple(WEIGHT_BETAS),
                                     ("vw",), "weights", ("beta", "update_index", "rho"),
                                     check_fig5_weights, horizon=2 * 10 ** 6),
    "fig6": ExperimentPreset(reference_constrained(), "beta", tuple(BETA_GRID), ("vw", "rd"),
                             "beta", BETA_HEADER, check_fig6),
    "fig8": ExperimentPreset(reference_constrained(), "beta", tuple(BETA_GRID), ("vw", "rd"),
                             "beta", BETA_HEADER, check_fig8),
}
