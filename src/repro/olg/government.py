"""Fiscal policy: distortionary taxes and the pay-as-you-go pension system.

The paper's application is a public-finance OLG model in which labor income
taxes fund social security and capital income taxes are levied on asset
returns (Sec. II).  The tax rates are part of the discrete shock state, so
all methods here take them per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["FiscalPolicy", "GovernmentBudget"]


class GovernmentBudget(NamedTuple):
    """One period's government accounts (per capita of a unit-mass cohort)."""

    pension_benefit: float
    labor_tax_revenue: float
    capital_tax_revenue: float
    lump_sum_transfer: float


@dataclass(frozen=True)
class FiscalPolicy:
    """Balanced-budget fiscal rule.

    * Labor income is taxed at rate ``tau_labor``; the entire revenue is
      paid out as a flat pension to the retired cohorts (pay-as-you-go).
    * Capital income (the net return on savings) is taxed at ``tau_capital``;
      the revenue is rebated lump sum to all living agents, so the tax is
      distortionary but the budget stays balanced state by state.

    Rates, prices and capital may be scalars or arrays (one entry per row
    of a batch); the head counts are plain integers.
    """

    rebate_capital_tax: bool = True

    def budget(
        self,
        tau_labor,
        tau_capital,
        wage,
        labor_supply: float,
        return_net,
        aggregate_capital,
        num_agents: int,
        num_retired: int,
    ) -> GovernmentBudget:
        """Compute benefits and transfers that balance the budget."""
        labor_revenue = tau_labor * wage * labor_supply
        capital_revenue = tau_capital * return_net * np.maximum(aggregate_capital, 0.0)
        return self._balanced(labor_revenue, capital_revenue, num_agents, num_retired)

    def budget_slope(
        self,
        tau_labor,
        tau_capital,
        wage_slope,
        labor_supply: float,
        return_net,
        return_slope,
        aggregate_capital,
        num_agents: int,
        num_retired: int,
    ) -> GovernmentBudget:
        """``d/dK`` of every field of :meth:`budget`, given the slopes of the prices in ``K``.

        Benefits and transfers are linear in the revenues; the capital tax
        base ``max(K, 0)`` is differentiated from the right.
        """
        labor_revenue = tau_labor * wage_slope * labor_supply
        capital = np.asarray(aggregate_capital)
        capital_revenue = tau_capital * (
            return_slope * np.maximum(capital, 0.0) + return_net * (capital >= 0.0)
        )
        return self._balanced(labor_revenue, capital_revenue, num_agents, num_retired)

    def _balanced(self, labor_revenue, capital_revenue, num_agents: int, num_retired: int):
        """The pension and transfer that pay out the revenues."""
        if num_retired > 0:
            pension = labor_revenue / num_retired
        else:
            pension = np.zeros_like(labor_revenue)
        if self.rebate_capital_tax and num_agents:
            transfer = capital_revenue / num_agents
        else:
            transfer = np.zeros_like(capital_revenue)
        return GovernmentBudget(pension, labor_revenue, capital_revenue, transfer)

    @staticmethod
    def after_tax_return(return_net, tau_capital):
        """Gross return factor on savings after capital taxation."""
        return 1.0 + (1.0 - tau_capital) * return_net

    @staticmethod
    def incomes(tau_labor, wage, budget: GovernmentBudget, efficiency, working):
        """After-tax non-asset income by age (last axis).

        Ages where the boolean mask ``working`` holds earn after-tax wages
        on their ``efficiency`` units, the others the pension; everybody
        receives the lump-sum transfer.
        """
        incomes = np.asarray((1.0 - tau_labor) * wage)[..., None] * efficiency  # earned
        incomes[..., ~np.asarray(working)] = np.asarray(budget.pension_benefit)[..., None]
        incomes += np.asarray(budget.lump_sum_transfer)[..., None]
        return incomes
