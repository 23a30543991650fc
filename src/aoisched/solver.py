"""Numerical subroutines: target-spacing program, queueing formulas, and the
spacing part of the cost bound.

The target spacing per AoI UE minimises

    sum_l  rho_l/2 * ( T_l + c_l / T_l ),     c_l = (1 - q_l) / q_l**2

subject to  sum_l 1/(p_l T_l) <= zeta  and  T_l >= 1.  The stationarity
condition gives, for multiplier mu >= 0,

    T_l(mu) = max(1, sqrt(c_l + 2 mu / (rho_l p_l)))

and the budget function sum_l 1/(p_l T_l(mu)) is nonincreasing in mu, so a
monotone bisection on mu solves the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Scenario, ScenarioError, UeConfig, Variant, validate

# Constraint residual tolerance and mu-interval width for the bisection.
RESIDUAL_TOL = 1e-9
MU_TOL = 1e-12
MAX_ITER = 200


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class TStarSolution:
    t_star: dict[int, float]
    mu: float
    binding: bool


def _spacing_at(mu: float, cs: list[float], rhos: list[float], ps: list[float]) -> list[float]:
    return [max(1.0, math.sqrt(c + 2.0 * mu / (rho * p)))
            for c, rho, p in zip(cs, rhos, ps)]


def _budget(ts: list[float], ps: list[float]) -> float:
    return sum(1.0 / (p * t) for p, t in zip(ps, ts))


def _spacing_constant(u: UeConfig) -> float:
    """``(1 - q) / q**2`` of AoI UE ``u``; a q so small that it is not
    finite is a ScenarioError that names it."""
    c = (1.0 - u.q) / (u.q * u.q) if u.q * u.q > 0.0 else math.inf
    if not math.isfinite(c):
        raise ScenarioError(f"ue {u.id}: q={u.q!r} is too small: the spacing constant "
                            "(1 - q)/q^2 is not finite")
    return c


def _finite(ids: list[int], rhos: list[float], ts: list[float]) -> list[float]:
    """The spacings ``ts``; a rho so small that a UE's is not finite (or
    rho * p is 0, so none is) is a ScenarioError that names it."""
    for i, rho, t in zip(ids, rhos, ts):
        if not math.isfinite(t):
            raise ScenarioError(f"ue {i}: rho={rho!r} is too small: its target spacing "
                                "is not finite")
    return ts


def _solve_kkt(ids: list[int], cs: list[float], rhos: list[float],
               ps: list[float], zeta: float) -> TStarSolution:
    if zeta <= 0.0:
        raise SolverError(f"attempt budget zeta={zeta} <= 0: no spacing can fit")
    _finite(ids, rhos, [1.0 if rho * p > 0.0 else math.inf for rho, p in zip(rhos, ps)])
    ts0 = _spacing_at(0.0, cs, rhos, ps)
    if _budget(ts0, ps) <= zeta + RESIDUAL_TOL:
        binding = abs(_budget(ts0, ps) - zeta) <= RESIDUAL_TOL
        return TStarSolution(dict(zip(ids, ts0)), mu=0.0, binding=binding)

    hi = 1.0
    for _ in range(MAX_ITER):
        if _budget(_spacing_at(hi, cs, rhos, ps), ps) <= zeta:
            break
        hi *= 2.0
    else:
        raise SolverError("could not bracket the multiplier")

    lo = 0.0
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        g = _budget(_spacing_at(mid, cs, rhos, ps), ps)
        if abs(g - zeta) <= RESIDUAL_TOL or (hi - lo) <= MU_TOL:
            break
        if g > zeta:
            lo = mid
        else:
            hi = mid
    else:
        raise SolverError("bisection did not converge")

    mu = mid
    ts = _spacing_at(mu, cs, rhos, ps)
    if _budget(ts, ps) > zeta + RESIDUAL_TOL:
        # keep the feasible side of the bracket
        mu = hi
        ts = _spacing_at(mu, cs, rhos, ps)
    return TStarSolution(dict(zip(ids, _finite(ids, rhos, ts))), mu=mu, binding=True)


def compute_t_star(aoi_ues: list[UeConfig] | tuple[UeConfig, ...], zeta: float) -> TStarSolution:
    """Optimal per-UE target spacing under the shared attempt budget."""
    if not aoi_ues:
        raise SolverError("no aoi ues to solve for")
    ids = [u.id for u in aoi_ues]
    cs = [_spacing_constant(u) for u in aoi_ues]
    rhos = [u.rho for u in aoi_ues]
    ps = [u.p for u in aoi_ues]
    return _solve_kkt(ids, cs, rhos, ps, zeta)


def hier_threshold(t_star: float, q: float) -> int:
    """Slot gap required between successive eligibility counter bumps.

    Rounded before the ceiling so values sitting one ulp above an integer do
    not jump a step.
    """
    return max(0, math.ceil(round(t_star - 1.0 / q, 12)))


def geo_geo1_latency(p: float, q: float) -> float:
    """Average latency of a discrete-time single-server queue.

    Arrivals Bernoulli(q) per slot, service success Bernoulli(p) per slot,
    work-conserving.  Includes the one-slot floor (counting both the arrival
    and the delivery slot).
    """
    if p <= q:
        raise SolverError(f"unstable queue: service rate {p} <= arrival rate {q}")
    return (1.0 - p) / (p - q) + 1.0


def spacing_bound(scenario: Scenario) -> float:
    """Spacing part of the cost floor of a latency-weighted scenario.

    Re-solves the spacing program with the variance constant halved (the
    tightest constant valid for every admissible policy); 0.0 without AoI
    UEs.  ``sim.lower_bound`` adds the latency UEs' simulated floor.
    """
    if scenario.variant is not Variant.LATENCY_WEIGHTED:
        raise ScenarioError("lower_bound applies to latency-weighted scenarios")
    report = validate(scenario)
    if not report.feasible:
        raise ScenarioError(f"infeasible scenario (load={report.load})")
    aoi = scenario.aoi_ues
    if not aoi:
        return 0.0
    cs = [0.5 * _spacing_constant(u) for u in aoi]
    sol = _solve_kkt([u.id for u in aoi], cs, [u.rho for u in aoi], [u.p for u in aoi],
                     report.zeta)
    total = 0.0
    for u, c in zip(aoi, cs):
        t = sol.t_star[u.id]
        total += 0.5 * u.rho * (t + c / t + 1.0)
    return total
