"""Forward simulation of the solved OLG economy.

Given a converged policy, the economy is simulated by drawing a path of
discrete shocks from the Markov chain and applying the interpolated savings
functions period by period.  The simulation is used by the examples (policy
analysis of the stochastic tax regimes) and by tests that check the
economy stays inside the approximation box and aggregates add up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policy import PolicySet
from repro.olg.model import OLGModel
from repro.utils.rng import default_rng

__all__ = ["SimulationResult", "simulate_economy"]


@dataclass
class SimulationResult:
    """Time paths produced by :func:`simulate_economy`."""

    shocks: np.ndarray          # (T,) discrete state indices
    states: np.ndarray          # (T, d) continuous states
    capital: np.ndarray         # (T,) aggregate capital
    output: np.ndarray          # (T,)
    wages: np.ndarray           # (T,)
    returns: np.ndarray         # (T,) net returns
    consumption: np.ndarray     # (T, A) consumption by age
    savings: np.ndarray         # (T, A-1) savings by age
    pension: np.ndarray         # (T,) pension benefit

    @property
    def length(self) -> int:
        return self.shocks.shape[0]

    def aggregate_consumption(self) -> np.ndarray:
        return self.consumption.sum(axis=1)

    def summary(self) -> dict:
        """Headline moments of the simulated economy."""
        return {
            "mean_capital": float(self.capital.mean()),
            "std_capital": float(self.capital.std()),
            "mean_output": float(self.output.mean()),
            "mean_consumption": float(self.aggregate_consumption().mean()),
            "mean_return": float(self.returns.mean()),
            "mean_wage": float(self.wages.mean()),
        }


def simulate_economy(
    model: OLGModel,
    policy: PolicySet,
    periods: int,
    initial_state: np.ndarray | None = None,
    initial_shock: int = 0,
    rng=None,
    burn_in: int = 0,
) -> SimulationResult:
    """Simulate the economy for ``periods`` periods under a given policy.

    Parameters
    ----------
    model
        The OLG model (provides prices, incomes and the shock chain).
    policy
        Converged policy set from time iteration.
    periods
        Number of periods to keep (after ``burn_in`` periods are dropped).
    initial_state
        Starting continuous state; defaults to the centre of the box.
    initial_shock
        Starting discrete state.
    burn_in
        Number of leading periods simulated and dropped; ``>= 0``.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    gen = default_rng(rng)
    cal = model.calibration
    total = periods + burn_in
    shock_path = cal.shocks.simulate(total, initial_state=initial_shock, rng=gen)

    d = model.state_dim
    A = cal.num_generations
    x = (
        np.asarray(initial_state, dtype=float).reshape(d)
        if initial_state is not None
        else 0.5 * (model.domain.lower + model.domain.upper)
    )

    states = np.empty((total, d))
    capital = np.empty(total)
    output = np.empty(total)
    wages = np.empty(total)
    returns = np.empty(total)
    consumption = np.empty((total, A))
    savings_path = np.empty((total, A - 1))
    pension = np.empty(total)

    system = model.system
    for t in range(total):
        z = int(shock_path[t])
        K = float(x.sum())
        env = system.environment(z, 0, K)
        values = np.asarray(policy.evaluate(z, x), dtype=float).reshape(-1)
        savings = np.maximum(values[: model.num_savers], 0.0)
        cons = system.consumption(env, system.holdings(x), savings)

        states[t] = x
        capital[t] = K
        output[t] = env.prices.output
        wages[t] = env.prices.wage
        returns[t] = env.prices.return_net
        consumption[t] = cons
        savings_path[t] = savings
        pension[t] = env.budget.pension_benefit

        x = system.next_states(0, savings)[1]

    keep = slice(burn_in, total)
    return SimulationResult(
        shocks=shock_path[keep],
        states=states[keep],
        capital=capital[keep],
        output=output[keep],
        wages=wages[keep],
        returns=returns[keep],
        consumption=consumption[keep],
        savings=savings_path[keep],
        pension=pension[keep],
    )
