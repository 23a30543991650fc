"""Shared fixtures."""

import pytest
from scipy.optimize import minimize

try:
    import cvxpy
except ImportError:  # optional: scipy's SLSQP stands in
    cvxpy = None


def _spacing_optimum(ues, zeta: float) -> float:
    """Optimal value of the spacing program, solved independently of
    ``aoisched.solver``: minimise sum rho/2 (T + c/T), c = (1-q)/q^2,
    subject to sum 1/(p T) <= zeta and T >= 1."""
    n = len(ues)
    cs = [(1 - u.q) / u.q ** 2 for u in ues]
    if cvxpy is not None:
        T = cvxpy.Variable(n)
        objective = cvxpy.Minimize(sum(
            0.5 * u.rho * (T[i] + c * cvxpy.inv_pos(T[i]))
            for i, (u, c) in enumerate(zip(ues, cs))))
        constraints = [T >= 1,
                       sum((1 / u.p) * cvxpy.inv_pos(T[i]) for i, u in enumerate(ues)) <= zeta]
        return cvxpy.Problem(objective, constraints).solve()

    def objective(T):
        return sum(0.5 * u.rho * (t + c / t) for u, c, t in zip(ues, cs, T))

    def gradient(T):
        return [0.5 * u.rho * (1 - c / t ** 2) for u, c, t in zip(ues, cs, T)]

    budget = {"type": "ineq",
              "fun": lambda T: zeta - sum(1 / (u.p * t) for u, t in zip(ues, T)),
              "jac": lambda T: [1 / (u.p * t ** 2) for u, t in zip(ues, T)]}
    start = [max(1.0, n / (u.p * zeta)) for u in ues]  # each UE takes zeta/n: feasible
    result = minimize(objective, start, jac=gradient, method="SLSQP",
                      bounds=[(1.0, None)] * n, constraints=[budget],
                      options={"ftol": 1e-12, "maxiter": 1000})
    assert result.success, result.message
    return float(result.fun)


def _spacing_objective(aoi_ues, ts: dict[int, float]) -> float:
    """Objective value of the spacing program at the spacings ``ts``, by UE id."""
    total = 0.0
    for u in aoi_ues:
        c = (1.0 - u.q) / (u.q * u.q)
        t = ts[u.id]
        total += 0.5 * u.rho * (t + c / t)
    return total


@pytest.fixture
def spacing_objective():
    """``spacing_objective(aoi_ues, ts)``: the spacing program's objective at ``ts``."""
    return _spacing_objective


@pytest.fixture
def spacing_oracle():
    """``spacing_oracle(ues, zeta)``: the spacing program's optimal value
    from cvxpy when it is installed, else from scipy's SLSQP."""
    return _spacing_optimum
