"""Cobb-Douglas production technology and factor prices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["CobbDouglasTechnology", "Prices"]


class Prices(NamedTuple):
    """Factor prices implied by the aggregate state (scalars or one entry per row)."""

    wage: float
    return_gross: float  # marginal product of capital, before depreciation
    return_net: float    # after depreciation, before capital taxes
    output: float


@dataclass(frozen=True)
class CobbDouglasTechnology:
    """``Y = zeta * K^theta * L^(1-theta)`` with depreciation ``delta``.

    ``zeta`` and ``delta`` may be state dependent; they are passed per call
    so one technology object serves all discrete shock states.  ``K``,
    ``zeta`` and ``delta`` may be scalars or arrays (one entry per row of
    a batch); labor supply is a scalar.
    """

    theta: float = 0.33
    capital_floor: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")

    def output(self, K, L, zeta=1.0):
        return self.prices(K, L, zeta, 0.0).output

    def prices(self, K, L: float, zeta, delta) -> Prices:
        """Competitive factor prices at aggregate capital ``K`` and labor ``L``."""
        L = max(float(L), self.capital_floor)
        ratio = np.maximum(K, self.capital_floor) / L
        scale = ratio**self.theta
        wage = (1.0 - self.theta) * zeta * scale
        r_gross = self.theta * zeta * ratio ** (self.theta - 1.0)
        return Prices(wage, r_gross, r_gross - delta, zeta * scale * L)

    def price_slopes(self, K, prices: Prices) -> Prices:
        """``d/dK`` of every field of the ``prices`` at capital ``K``.

        Cobb–Douglas in closed form from the prices themselves: the wage
        moves by ``theta * w / K``, the return by ``(theta - 1) * r / K``,
        output by the marginal product ``r``.  Taken from the right: 0
        below the capital floor.  Depreciation shifts the net return only.
        """
        live = np.asarray(K) >= self.capital_floor
        per_capital = live / np.maximum(K, self.capital_floor)
        r_gross = (self.theta - 1.0) * prices.return_gross * per_capital
        return Prices(
            self.theta * prices.wage * per_capital, r_gross, r_gross, prices.return_gross * live
        )

    def steady_state_capital(
        self, L: float, zeta: float, delta: float, beta: float
    ) -> float:
        """Heuristic steady-state capital used to size the state-space box.

        Uses the representative-agent condition ``1/beta = 1 + r`` to back
        out the capital/labor ratio; it does not claim to be the OLG
        steady state, only a sensible centre for the box.
        """
        r_target = 1.0 / beta - 1.0 + delta
        ratio = (self.theta * zeta / r_target) ** (1.0 / (1.0 - self.theta))
        return float(ratio * L)
