import math

import numpy as np
import pytest

from aoisched.model import Scenario, ScenarioError, UeClass, UeConfig, Variant, theta_j
from aoisched.presets import ALPHA_GRID, reference_weighted
from aoisched.sim import lower_bound
from aoisched.solver import SolverError, compute_t_star, geo_geo1_latency, hier_threshold


def aoi(id, q, p, rho=1.0):
    return UeConfig(id=id, cls=UeClass.AOI, q=q, p=p, rho=rho)


# -- target spacing program ---------------------------------------------------

def test_single_ue_binding_closed_form():
    # one AoI ue, budget tight enough that the constraint binds:
    # T = 1 / (p * zeta)
    zeta = 1 - 0.25 - 0.2 / 0.9
    sol = compute_t_star([aoi(1, q=0.9, p=0.7)], zeta)
    assert sol.t_star[1] == pytest.approx(1 / (0.7 * zeta), abs=1e-8)
    assert sol.t_star[1] == pytest.approx(2.7068, abs=1e-4)
    assert sol.binding
    assert sol.mu > 0


def test_single_ue_slack_constraint():
    # q small makes the unconstrained spacing sqrt((1-q)/q^2) large; with a
    # generous budget the multiplier stays zero
    u = aoi(1, q=0.1, p=1.0)
    unconstrained = math.sqrt((1 - 0.1) / 0.01)
    sol = compute_t_star([u], zeta=1.0)
    assert sol.mu == 0.0
    assert sol.t_star[1] == pytest.approx(unconstrained, abs=1e-12)
    assert not sol.binding


def test_unconstrained_floor_at_one():
    # q close to 1 pushes the unconstrained minimiser below 1
    sol = compute_t_star([aoi(1, q=0.95, p=1.0)], zeta=2.0)
    assert sol.mu == 0.0
    assert sol.t_star[1] == 1.0


def test_symmetric_ues_share_budget_equally():
    sol = compute_t_star([aoi(1, 0.9, 0.7), aoi(2, 0.9, 0.7)], zeta=0.4)
    assert sol.t_star[1] == pytest.approx(sol.t_star[2], rel=1e-9)


def test_budget_respected_and_floors():
    ues = [aoi(1, 0.9, 0.7, rho=2.0), aoi(2, 0.5, 0.6, rho=0.5), aoi(3, 0.3, 0.9)]
    zeta = 0.3
    sol = compute_t_star(ues, zeta)
    budget = sum(1 / (u.p * sol.t_star[u.id]) for u in ues)
    assert budget <= zeta + 1e-9
    assert all(t >= 1.0 for t in sol.t_star.values())


def test_zeta_nonpositive_rejected():
    with pytest.raises(SolverError):
        compute_t_star([aoi(1, 0.9, 0.7)], zeta=0.0)


def test_monotone_in_budget():
    ues = [aoi(1, 0.9, 0.7), aoi(2, 0.4, 0.8, rho=3.0)]
    previous = None
    for zeta in (0.8, 0.6, 0.4, 0.2, 0.1):
        sol = compute_t_star(ues, zeta)
        if previous is not None:
            for i in sol.t_star:
                assert sol.t_star[i] >= previous[i] - 1e-9
        previous = sol.t_star


def _grid_oracle_1ue(u, zeta, step=1e-3):
    # brute force over T in [1, 200], plus the feasibility boundary itself
    # (the grid alone can sit up to one step away from a boundary optimum)
    c = (1 - u.q) / u.q ** 2
    candidates = [1.0 + i * step for i in range(int(199.0 / step) + 1)]
    candidates.append(max(1.0, 1 / (u.p * zeta)))
    best = math.inf
    best_t = None
    for t in candidates:
        if 1 / (u.p * t) <= zeta + 1e-12:
            val = 0.5 * u.rho * (t + c / t)
            if val < best:
                best, best_t = val, t
    return best, best_t


@pytest.mark.parametrize("case", range(8))
def test_single_ue_matches_grid_oracle(case, spacing_objective):
    rng = np.random.default_rng(1000 + case)
    u = aoi(1, q=float(rng.uniform(0.05, 1.0)), p=float(rng.uniform(0.3, 1.0)),
            rho=float(rng.uniform(0.2, 3.0)))
    zeta = float(rng.uniform(1 / (u.p * 150.0), 0.9))
    sol = compute_t_star([u], zeta)
    ours = spacing_objective([u], sol.t_star)
    oracle, _ = _grid_oracle_1ue(u, zeta)
    assert ours <= oracle + 1e-4
    assert abs(ours - oracle) <= 1e-4


@pytest.mark.parametrize("case", range(12))
def test_multi_ue_matches_convex_oracle(case, spacing_objective, spacing_oracle):
    rng = np.random.default_rng(2000 + case)
    n = int(rng.integers(2, 4))
    ues = [aoi(i + 1, q=float(rng.uniform(0.05, 1.0)), p=float(rng.uniform(0.3, 1.0)),
               rho=float(rng.uniform(0.2, 3.0))) for i in range(n)]
    zeta = float(rng.uniform(0.15, 0.9))
    sol = compute_t_star(ues, zeta)
    ours = spacing_objective(ues, sol.t_star)
    oracle = spacing_oracle(ues, zeta)
    assert ours <= oracle + 1e-4
    assert abs(ours - oracle) <= 1e-4


# -- threshold ----------------------------------------------------------------

def test_threshold_examples():
    assert hier_threshold(2.7068, 0.9) == 2
    assert hier_threshold(1.0, 1.0) == 0
    assert hier_threshold(2.0, 0.5) == 0  # t_star equals 1/q exactly
    assert hier_threshold(1.0, 0.2) == 0  # negative gap floors at zero


def test_threshold_tolerates_ulp_noise():
    # a value one ulp above an integer must not jump a step
    assert hier_threshold(3.0000000000000004 + 1 / 0.9, 0.9) == 3


# -- single-server queue formulas ----------------------------------------------

def test_queue_latency_values():
    assert geo_geo1_latency(0.8, 0.2) == pytest.approx(4 / 3, abs=1e-12)
    assert geo_geo1_latency(1.0, 0.7) == pytest.approx(1.0, abs=1e-12)
    assert geo_geo1_latency(0.9, 0.2) == pytest.approx(0.1 / 0.7 + 1, abs=1e-12)


def test_queue_latency_unstable_rejected():
    with pytest.raises(SolverError):
        geo_geo1_latency(0.2, 0.2)


def _simulate_fifo_queue(q, p, horizon, seed):
    # independent reference: Bernoulli arrivals, Bernoulli service, FIFO,
    # latency counts both the arrival slot and the delivery slot
    rng = np.random.default_rng(seed)
    arr = rng.random(horizon + 1) < q
    srv = rng.random(horizon + 1) < p
    queue = []
    total = 0
    delivered = 0
    for t in range(1, horizon + 1):
        if arr[t]:
            queue.append(t)
        if queue and srv[t]:
            g = queue.pop(0)
            total += t - g + 1
            delivered += 1
    for g in queue:
        total += horizon - g + 1
        delivered += 1
    return total / delivered


@pytest.mark.parametrize("q,p", [(0.2, 0.8), (0.2, 0.9), (0.5, 0.75)])
def test_queue_latency_matches_simulation(q, p):
    sim = _simulate_fifo_queue(q, p, 10 ** 6, seed=7)
    assert sim == pytest.approx(geo_geo1_latency(p, q), rel=0.02)


# theta_j with p = 1 is the service rate at which the queue's average
# latency is beta.

def test_effective_rate_round_trip():
    rate = theta_j(0.2, 1.0, 2.0)
    assert rate == pytest.approx(0.6, abs=1e-12)
    assert geo_geo1_latency(rate, 0.2) == pytest.approx(2.0, abs=1e-12)
    assert theta_j(0.2, 1.0, 1e15) == pytest.approx(0.2, rel=1e-9)
    assert theta_j(0.2, 1.0, 4 / 3) == pytest.approx(0.8, abs=1e-12)


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0, 7.5])
def test_effective_rate_inverts_latency(beta):
    rate = theta_j(0.35, 1.0, beta)
    assert geo_geo1_latency(rate, 0.35) == pytest.approx(beta, rel=1e-12)


# -- lower bound ----------------------------------------------------------------

def _weighted_reference(alpha=0.2):
    return Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),
        UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=alpha),
    ), variant=Variant.LATENCY_WEIGHTED)


def test_lower_bound_no_latency_ues():
    scn = Scenario(ues=(aoi(1, 0.9, 0.7),), variant=Variant.LATENCY_WEIGHTED)
    bound = lower_bound(scn, horizon=1000, seed=1)
    assert bound.lb_f2 == 0.0
    assert bound.lb_f1 > 0.0


def test_lower_bound_no_aoi_ues():
    scn = Scenario(ues=(UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),),
                   variant=Variant.LATENCY_WEIGHTED)
    bound = lower_bound(scn, horizon=2 * 10 ** 5, seed=1)
    assert bound.lb_f1 == 0.0
    # single-queue floor: (rho/q) * sum L / t = latency * arrival share = 4/3
    assert bound.lb_f2 == pytest.approx(4 / 3, rel=0.05)


def test_lower_bound_f1_closed_form():
    scn = _weighted_reference(alpha=0.2)
    bound = lower_bound(scn, horizon=10 ** 5, seed=1)
    zeta = 1 - 0.25 - 0.2 / 0.9
    t = 1 / (0.7 * zeta)
    c = 0.5 * (1 - 0.9) / 0.81
    assert bound.lb_f1 == pytest.approx(0.5 * (t + c / t + 1), abs=1e-9)
    assert bound.lb >= bound.lb_f1
    assert bound.lb_f2 >= 0.0


def test_lower_bound_scales_with_weights():
    scn = _weighted_reference()
    doubled = Scenario(ues=tuple(
        UeConfig(id=u.id, cls=u.cls, p=u.p, q=u.q,
                 rho=None if u.rho is None else 2 * u.rho, alpha=u.alpha)
        for u in scn.ues), variant=scn.variant)
    b1 = lower_bound(scn, horizon=10 ** 5, seed=3)
    b2 = lower_bound(doubled, horizon=10 ** 5, seed=3)
    assert b2.lb_f1 == pytest.approx(2 * b1.lb_f1, rel=1e-9)
    assert b2.lb_f2 == pytest.approx(2 * b1.lb_f2, rel=1e-9)


def test_lower_bound_latency_floor_ignores_alpha():
    # alpha moves only the throughput UE, which the simulated floor leaves
    # out: every alpha gets the same lb_f2, bit for bit
    floors = {lower_bound(reference_weighted(alpha=a), horizon=20000, seed=4, seeds=2).lb_f2
              for a in ALPHA_GRID}
    assert len(floors) == 1 and floors.pop() > 0.0


def test_lower_bound_requires_weighted_variant():
    scn = Scenario(ues=(UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, beta=2.0),),
                   variant=Variant.LATENCY_CONSTRAINED)
    with pytest.raises(ScenarioError):
        lower_bound(scn, horizon=1000, seed=1)
