"""Deterministic steady state of the OLG economy.

The stochastic model has no steady state (the paper stresses this), but its
*deterministic* counterpart — shut down the shocks at their ergodic means —
does, and it is the natural anchor for

* the state-space box ``B`` on which policies are approximated, and
* the initial guess of the time iteration.

With CRRA utility, no binding borrowing constraints and constant prices the
lifecycle problem has a closed form: consumption grows at the constant rate
``(beta R)^(1/gamma)`` and its level follows from the lifetime budget
constraint.  The aggregate fixed point ``K = sum_a k_a(K)`` is the root of
``log K_implied(K) - log K``, which falls in ``K``; a secant on ``log K``
finds it in a handful of lifecycle evaluations, falling back to bisection
once a step leaves the bracket the evaluations so far have found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.olg.calibration import OLGCalibration
from repro.olg.government import FiscalPolicy
from repro.olg.production import CobbDouglasTechnology

__all__ = ["LifecycleProfile", "SteadyState", "lifecycle_profile", "deterministic_steady_state"]

# the root in aggregate capital: |K_implied - K| <= _TOLERANCE * max(K, 1)
# within _MAX_EVALUATIONS lifecycle evaluations, or an error
_TOLERANCE, _MAX_EVALUATIONS = 1e-8, 50


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
    evaluations: int          # lifecycle profiles the root took


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
    :class:`repro.olg.model.OLGModel` builds them.  Raises
    ``RuntimeError`` when no capital within tolerance is found.
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

    def lifecycle(K: float) -> LifecycleProfile:
        prices, budget = aggregates(K)
        R = fiscal.after_tax_return(prices.return_net, tau_c)
        incomes = fiscal.incomes(tau_l, prices.wage, budget, cal.efficiency, working)
        return lifecycle_profile(incomes, R, cal.beta, cal.gamma)

    # start from the representative-agent heuristic
    K = max(technology.steady_state_capital(L, zeta, delta, cal.beta), 1e-3)
    K, profile, evaluations = _capital_root(lifecycle, K)
    prices, budget = aggregates(K)
    return SteadyState(
        capital=float(K),
        wage=float(prices.wage),
        return_net=float(prices.return_net),
        gross_return=float(fiscal.after_tax_return(prices.return_net, tau_c)),
        pension=float(budget.pension_benefit),
        profile=profile,
        evaluations=evaluations,
    )


def _capital_root(lifecycle, K: float) -> tuple[float, LifecycleProfile, int]:
    """The capital ``K`` whose lifecycle profile holds ``K``, its profile, the evaluations.

    A secant on ``h(u) = log K_implied - u`` in ``u = log K`` from ``K``,
    its first step the fixed-point step ``u <- log K_implied``.  ``h``
    falls in ``u``, so every evaluation narrows a bracket of the root (the
    last ``u`` with ``h > 0`` below it, with ``h < 0`` above); a step that
    leaves the bracket is replaced by its midpoint.  The implied capital
    is floored at 1e-6, where no household saves.
    """
    below = above = previous = None
    u = np.log(K)
    for evaluations in range(1, _MAX_EVALUATIONS + 1):
        K = float(np.exp(u))
        profile = lifecycle(K)
        implied = max(profile.aggregate_capital, 1e-6)
        if abs(implied - K) <= _TOLERANCE * max(K, 1.0):
            return K, profile, evaluations
        h = np.log(implied) - u
        if h > 0:
            below = u
        else:
            above = u
        step = h if previous is None else -h * (u - previous[0]) / (h - previous[1])
        previous = u, h
        u = u + step
        if below is not None and above is not None and not below < u < above:
            u = 0.5 * (below + above)
    raise RuntimeError(
        f"no steady-state capital within {_TOLERANCE:g} after {_MAX_EVALUATIONS} evaluations"
    )
