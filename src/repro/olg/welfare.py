"""Welfare analysis of the stochastic OLG economy.

The motivation of the paper's application (Sec. I) is counter-factual policy
analysis: optimal taxation and social security design require comparing
welfare across tax regimes.  This module provides the standard tools on top
of a solved policy:

* per-cohort value functions evaluated at arbitrary states,
* consumption-equivalent variation (CEV) between two discrete states (e.g.
  a low-tax and a high-tax regime) or between two solved policies,
* ergodic welfare averages from simulated paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policy import PolicySet
from repro.olg.model import OLGModel
from repro.olg.simulation import simulate_economy

__all__ = [
    "WelfareComparison",
    "newborn_value",
    "consumption_equivalent",
    "compare_states",
    "ergodic_welfare",
]


@dataclass(frozen=True)
class WelfareComparison:
    """Welfare of a reference and an alternative, plus the CEV between them."""

    value_reference: float
    value_alternative: float
    consumption_equivalent: float


def newborn_value(model: OLGModel, policy: PolicySet, z: int, x: np.ndarray) -> float:
    """Value function of a newborn agent at state ``(z, x)``.

    The policy stores the value functions of all saving ages; the newborn is
    age 0, i.e. the first value coefficient.
    """
    values = np.asarray(policy.evaluate(z, np.asarray(x, dtype=float))).reshape(-1)
    return float(values[model.num_savers])


def consumption_equivalent(model: OLGModel, value_ref: float, value_alt: float) -> float:
    """Consumption-equivalent variation between two lifetime values.

    Returns ``lambda`` such that scaling the reference consumption stream by
    ``1 + lambda`` in every period and state yields the alternative's value.
    With CRRA utility (gamma != 1), values scale as ``(1+lambda)^(1-gamma)``
    on the homogeneous part of utility; with log utility the shift is
    additive.  Positive ``lambda`` means the alternative is preferred.
    """
    gamma = model.calibration.gamma
    beta = model.calibration.beta
    A = model.calibration.num_generations
    if gamma == 1.0:
        # u = log c: value shifts by (sum of discount factors) * log(1+lambda)
        horizon = (1.0 - beta**A) / (1.0 - beta)
        return float(np.exp((value_alt - value_ref) / horizon) - 1.0)
    # u = (c^(1-gamma) - 1)/(1-gamma): separate the constant part
    horizon = (1.0 - beta**A) / (1.0 - beta)
    const = -horizon / (1.0 - gamma)
    hom_ref = value_ref - const
    hom_alt = value_alt - const
    if hom_ref == 0.0 or hom_ref * hom_alt <= 0.0:
        # degenerate homogeneous parts (e.g. consumption at the floor)
        return float("nan")
    return float((hom_alt / hom_ref) ** (1.0 / (1.0 - gamma)) - 1.0)


def compare_states(
    model: OLGModel,
    policy: PolicySet,
    z_reference: int,
    z_alternative: int,
    x: np.ndarray | None = None,
) -> WelfareComparison:
    """Newborn welfare comparison between two discrete states at the same ``x``.

    The classic public-finance question: how much lifetime consumption would
    a newborn give up to be born into the alternative regime (e.g. the
    low-tax state) instead of the reference regime?
    """
    if x is None:
        x = 0.5 * (model.domain.lower + model.domain.upper)
    v_ref = newborn_value(model, policy, z_reference, x)
    v_alt = newborn_value(model, policy, z_alternative, x)
    return WelfareComparison(
        value_reference=v_ref,
        value_alternative=v_alt,
        consumption_equivalent=consumption_equivalent(model, v_ref, v_alt),
    )


def ergodic_welfare(
    model: OLGModel,
    policy: PolicySet,
    periods: int = 1_000,
    burn_in: int = 100,
    rng=None,
) -> dict:
    """Average newborn welfare over the simulated ergodic distribution.

    Returns the overall average plus the per-discrete-state averages, which
    is the quantity typically reported when evaluating social security
    reforms under aggregate risk.
    """
    sim = simulate_economy(model, policy, periods=periods, burn_in=burn_in, rng=rng)
    values = np.empty(sim.length)
    for t in range(sim.length):
        values[t] = newborn_value(model, policy, int(sim.shocks[t]), sim.states[t])
    per_state = {}
    for z in range(model.num_states):
        mask = sim.shocks == z
        per_state[z] = float(values[mask].mean()) if mask.any() else float("nan")
    return {
        "mean": float(values.mean()),
        "std": float(values.std()),
        "per_state": per_state,
        "periods": int(sim.length),
    }
