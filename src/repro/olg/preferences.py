"""Household preferences: CRRA utility with a smooth consumption floor.

The equilibrium systems solved at every grid point involve marginal
utilities of candidate consumption levels that can temporarily dip below
zero while the Newton iteration searches.  Following common practice the
utility function is extended below a small floor ``c_min`` by a quadratic
(for ``u``) / linear (for ``u'``) continuation, which keeps ``u'`` finite,
strictly decreasing and differentiable, so the solver is pushed back into
the admissible region instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CRRAUtility"]


@dataclass(frozen=True)
class CRRAUtility:
    """Constant-relative-risk-aversion utility ``u(c) = c^(1-gamma)/(1-gamma)``.

    Parameters
    ----------
    gamma
        Relative risk aversion (``gamma = 1`` gives log utility).
    c_min
        Floor below which the smooth extension takes over.
    """

    gamma: float = 2.0
    c_min: float = 1e-6

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.c_min <= 0:
            raise ValueError("c_min must be positive")

    # ------------------------------------------------------------------ #
    # utility and derivatives
    # ------------------------------------------------------------------ #
    def utility(self, c) -> np.ndarray:
        """``u(c)``, quadratically extended below the floor."""
        c = np.asarray(c, dtype=float)
        cm = self.c_min
        safe = np.maximum(c, cm)
        if self.gamma == 1.0:
            out = np.log(safe)
        else:
            out = (safe ** (1.0 - self.gamma) - 1.0) / (1.0 - self.gamma)
        out = np.asarray(out)
        below = c < cm
        if below.any():
            # u(cm) + u'(cm)(c-cm) + 0.5 u''(cm)(c-cm)^2, only where it applies
            delta = c[below] - cm
            out[below] = out[below] + self._mu_at(cm) * delta + 0.5 * self._slope_at(cm) * delta**2
        return out

    def marginal_utility(self, c) -> np.ndarray:
        """``u'(c)``, linearly extended below the floor (stays positive-sloped)."""
        c = np.asarray(c, dtype=float)
        cm = self.c_min
        out = np.asarray(np.maximum(c, cm) ** (-self.gamma))
        below = c < cm
        if below.any():
            out[below] = self._mu_at(cm) + self._slope_at(cm) * (c[below] - cm)
        return out

    def marginal_utility_slope(self, c) -> np.ndarray:
        """``u''(c)``: the slope of :meth:`marginal_utility`, constant below the floor.

        At the floor itself it is the slope from the right, which both
        branches share.
        """
        c = np.asarray(c, dtype=float)
        return -self.gamma * np.maximum(c, self.c_min) ** (-self.gamma - 1.0)

    def inverse_marginal_utility(self, mu) -> np.ndarray:
        """``(u')^{-1}(mu)`` on the interior branch (mu must be positive)."""
        mu = np.asarray(mu, dtype=float)
        if np.any(mu <= 0):
            raise ValueError("marginal utility must be positive to invert")
        return mu ** (-1.0 / self.gamma)

    def _mu_at(self, c: float) -> float:
        return float(c) ** (-self.gamma)

    def _slope_at(self, c: float) -> float:
        return -self.gamma * float(c) ** (-self.gamma - 1.0)

    def certainty_equivalent(self, values: np.ndarray, probabilities: np.ndarray) -> float:
        """Certainty-equivalent consumption of a lottery over utility values."""
        values = np.asarray(values, dtype=float)
        probabilities = np.asarray(probabilities, dtype=float)
        expected = float(probabilities @ values)
        if self.gamma == 1.0:
            return float(np.exp(expected))
        inner = expected * (1.0 - self.gamma) + 1.0
        if inner <= 0:
            return self.c_min
        return float(inner ** (1.0 / (1.0 - self.gamma)))
