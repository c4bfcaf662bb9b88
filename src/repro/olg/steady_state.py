"""Deterministic steady state of the OLG economy.

The stochastic model has no steady state (the paper stresses this), but its
*deterministic* counterpart — shut down the shocks at their ergodic means —
does, and it is the natural anchor for

* the state-space box ``B`` on which policies are approximated, and
* the initial guess of the time iteration.

With CRRA utility, no binding borrowing constraints and constant prices the
lifecycle problem has a closed form: consumption grows at the constant rate
``(beta R)^(1/gamma)`` and its level follows from the lifetime budget
constraint.  The aggregate fixed point ``K = sum_a k_a(K)`` is found by a
damped iteration on aggregate capital.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.olg.calibration import OLGCalibration
from repro.olg.government import FiscalPolicy
from repro.olg.production import CobbDouglasTechnology

__all__ = ["LifecycleProfile", "SteadyState", "lifecycle_profile", "deterministic_steady_state"]

# the damped fixed-point iteration on aggregate capital: relative tolerance,
# iteration cap and weight of the implied capital in each update
_TOLERANCE, _MAX_ITERATIONS, _DAMPING = 1e-8, 500, 0.5


@dataclass(frozen=True)
class LifecycleProfile:
    """Lifecycle allocation at fixed prices."""

    consumption: np.ndarray   # (A,)
    savings: np.ndarray       # (A,) end-of-period asset holdings chosen at each age
    holdings: np.ndarray      # (A,) beginning-of-period asset holdings

    @property
    def aggregate_capital(self) -> float:
        """Cross-sectional aggregate capital when all cohorts have unit mass."""
        return float(self.holdings.sum())


@dataclass(frozen=True)
class SteadyState:
    """Deterministic steady state of the economy."""

    capital: float
    wage: float
    return_net: float
    gross_return: float
    pension: float
    profile: LifecycleProfile
    iterations: int
    converged: bool


def lifecycle_profile(
    incomes: np.ndarray,
    gross_return: float,
    beta: float,
    gamma: float,
) -> LifecycleProfile:
    """Closed-form lifecycle plan at constant prices.

    Parameters
    ----------
    incomes
        After-tax non-asset income by age (length ``A``).
    gross_return
        Gross after-tax return factor ``R`` on savings.
    beta, gamma
        Discount factor and CRRA coefficient.
    """
    incomes = np.asarray(incomes, dtype=float)
    A = incomes.shape[0]
    R = float(gross_return)
    if R <= 0:
        raise ValueError("gross return must be positive")
    growth = (beta * R) ** (1.0 / gamma)
    discounts = R ** (-np.arange(A, dtype=float))
    pv_income = float(discounts @ incomes)
    denom = float(np.sum(growth ** np.arange(A) * discounts))
    c0 = pv_income / denom
    consumption = c0 * growth ** np.arange(A)
    holdings = np.zeros(A, dtype=float)
    savings = np.zeros(A, dtype=float)
    for age in range(A):
        resources = R * holdings[age] + incomes[age]
        save = resources - consumption[age]
        savings[age] = save
        if age + 1 < A:
            holdings[age + 1] = save
    return LifecycleProfile(consumption=consumption, savings=savings, holdings=holdings)


def deterministic_steady_state(calibration: OLGCalibration) -> SteadyState:
    """Fixed point of aggregate capital in the shock-free economy.

    The shocks are replaced by their stationary-distribution means
    (productivity, depreciation and tax rates), so the result is the
    deterministic analogue of the stochastic model's ergodic centre.  The
    technology and fiscal rules are the calibration's, built as
    :class:`repro.olg.model.OLGModel` builds them.
    """
    cal = calibration
    technology = CobbDouglasTechnology(theta=cal.theta)
    fiscal = FiscalPolicy()
    dist = cal.shocks.stationary_distribution()
    zeta = float(dist @ cal.shocks.label("productivity"))
    delta = float(dist @ cal.shocks.label("depreciation"))
    tau_l = float(dist @ cal.shocks.label("tau_labor"))
    tau_c = float(dist @ cal.shocks.label("tau_capital"))
    L = cal.labor_supply
    A = cal.num_generations

    working = np.arange(A) < cal.retirement_age

    def aggregates(K: float):
        prices = technology.prices(K, L, zeta, delta)
        budget = fiscal.budget(
            tau_l, tau_c, prices.wage, L, prices.return_net, K, A, cal.num_retired
        )
        return prices, budget

    # start from the representative-agent heuristic
    K = technology.steady_state_capital(L, zeta, delta, cal.beta)
    K = max(K, 1e-3)
    profile = None
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        prices, budget = aggregates(K)
        R = fiscal.after_tax_return(prices.return_net, tau_c)
        incomes = fiscal.incomes(tau_l, prices.wage, budget, cal.efficiency, working)
        profile = lifecycle_profile(incomes, R, cal.beta, cal.gamma)
        K_implied = max(profile.aggregate_capital, 1e-6)
        if abs(K_implied - K) < _TOLERANCE * max(K, 1.0):
            K = K_implied
            converged = True
            break
        K = (1.0 - _DAMPING) * K + _DAMPING * K_implied

    prices, budget = aggregates(K)
    return SteadyState(
        capital=float(K),
        wage=float(prices.wage),
        return_net=float(prices.return_net),
        gross_return=float(fiscal.after_tax_return(prices.return_net, tau_c)),
        pension=float(budget.pension_benefit),
        profile=profile,
        iterations=iterations,
        converged=converged,
    )
