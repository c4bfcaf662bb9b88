"""Calibrations of the stochastic OLG model.

Two ready-made calibrations are provided:

* :func:`small_calibration` — a scaled-down economy (default ``A = 6``
  generations, ``Ns = 2`` shock states) used throughout the test suite,
  the examples and the convergence experiment (Fig. 9).  Each model period
  stands for roughly a decade of life.
* :func:`paper_calibration` — the paper's annual calibration: ``A = 60``
  adult years (so a 59-dimensional continuous state), ``Ns = 16`` discrete
  states combining a 4-point productivity process with two labor-tax and
  two capital-tax regimes, retirement at age 66.  Solving it end to end is
  outside what pure Python can do in wall-clock time, but the calibration
  is fully constructible and drives the paper-scale grid/compression
  benchmarks (Tables I-II) and the strong-scaling workload model (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.olg.markov import MarkovChain, persistent_chain, rouwenhorst, tensor_chain
from repro.utils.validation import check_positive

__all__ = ["OLGCalibration", "small_calibration", "paper_calibration"]


@dataclass
class OLGCalibration:
    """All primitives of the stochastic OLG economy.

    Attributes
    ----------
    num_generations
        Number of adult life periods ``A``; the continuous state has
        dimension ``A - 1``.
    retirement_age
        First retired age (0-based): agents supply labor for ages
        ``0 .. retirement_age - 1`` and receive the pension afterwards.
    beta, gamma
        Discount factor per period and CRRA coefficient.
    theta
        Capital share of the Cobb-Douglas technology.
    efficiency
        Age-efficiency (labor productivity) profile of length ``A``;
        entries for retired ages are ignored.
    shocks
        Markov chain over the discrete states; must provide the labels
        ``productivity``, ``depreciation``, ``tau_labor`` and
        ``tau_capital``.

    The state-space box is not a primitive: :class:`repro.olg.model.OLGModel`
    derives each generation's bounds from the steady-state life-cycle profile.
    """

    num_generations: int = 6
    retirement_age: int = 4
    beta: float = 0.9
    gamma: float = 2.0
    theta: float = 0.33
    efficiency: np.ndarray = field(default=None)
    shocks: MarkovChain = field(default=None)
    consumption_floor: float = 1e-6

    def __post_init__(self) -> None:
        A = self.num_generations
        if A < 3:
            raise ValueError("num_generations must be at least 3")
        if not 0 < self.retirement_age <= A:
            raise ValueError("retirement_age must lie in (0, num_generations]")
        check_positive("beta", self.beta)
        if self.beta >= 1.5:
            raise ValueError("beta looks implausibly large")
        check_positive("gamma", self.gamma)
        if self.efficiency is None:
            self.efficiency = default_efficiency_profile(A, self.retirement_age)
        self.efficiency = np.asarray(self.efficiency, dtype=float)
        if self.efficiency.shape != (A,):
            raise ValueError(f"efficiency profile must have length {A}")
        if self.shocks is None:
            self.shocks = _default_shocks()
        for key in ("productivity", "depreciation", "tau_labor", "tau_capital"):
            if key not in self.shocks.labels:
                raise ValueError(f"shock chain must provide the label {key!r}")

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def state_dim(self) -> int:
        """Dimension of the continuous state (``d = A - 1``)."""
        return self.num_generations - 1

    @property
    def num_states(self) -> int:
        """Number of discrete shock states ``Ns``."""
        return self.shocks.num_states

    @property
    def num_workers(self) -> int:
        return self.retirement_age

    @property
    def num_retired(self) -> int:
        return self.num_generations - self.retirement_age

    @property
    def labor_supply(self) -> float:
        """Aggregate effective labor (cohorts have unit mass)."""
        return float(self.efficiency[: self.retirement_age].sum())

    def mean_productivity(self) -> float:
        dist = self.shocks.stationary_distribution()
        return float(dist @ self.shocks.label("productivity"))

    def mean_depreciation(self) -> float:
        dist = self.shocks.stationary_distribution()
        return float(dist @ self.shocks.label("depreciation"))


def default_efficiency_profile(num_generations: int, retirement_age: int) -> np.ndarray:
    """Hump-shaped age-efficiency profile, normalised to mean 1 over workers."""
    ages = np.arange(num_generations, dtype=float)
    peak = max(retirement_age - 1, 1) * 0.75
    width = max(num_generations / 2.0, 1.0)
    profile = np.exp(-((ages - peak) ** 2) / (2.0 * width**2))
    profile[retirement_age:] = 0.0
    workers = profile[:retirement_age]
    if workers.sum() > 0:
        profile[:retirement_age] = workers / workers.mean()
    return profile


def _default_shocks() -> MarkovChain:
    """Two-state boom/bust chain with fixed taxes (used by the default calibration)."""
    transition = persistent_chain(2, 0.8)
    return MarkovChain(
        transition=transition,
        labels={
            "productivity": np.array([0.97, 1.03]),
            "depreciation": np.array([0.10, 0.10]),
            "tau_labor": np.array([0.15, 0.15]),
            "tau_capital": np.array([0.0, 0.0]),
        },
    )


def small_calibration(
    num_generations: int = 6,
    num_states: int = 2,
    stochastic_taxes: bool = False,
    persistence: float = 0.8,
    beta: float = 0.9,
    gamma: float = 2.0,
    theta: float = 0.33,
    depreciation: float = 0.3,
    tau_labor: float = 0.15,
    tau_capital: float = 0.0,
) -> OLGCalibration:
    """Scaled-down calibration for tests, examples and the Fig. 9 experiment.

    Each period represents roughly a decade, hence the relatively large
    depreciation rate.  With ``stochastic_taxes=True`` the number of
    discrete states doubles: the labor tax switches between a low and a
    high regime, mimicking the paper's stochastic tax policy.
    """
    if num_states < 1:
        raise ValueError("num_states must be >= 1")
    if num_states == 1:
        prod_values = np.array([1.0])
        prod_pi = np.ones((1, 1))
    else:
        log_values, prod_pi = rouwenhorst(num_states, rho=persistence, sigma=0.03)
        prod_values = np.exp(log_values)
    productivity = MarkovChain(
        transition=prod_pi,
        labels={
            "productivity": prod_values,
            "depreciation": np.full(num_states, depreciation),
        },
    )
    if stochastic_taxes:
        tax_chain = MarkovChain(
            transition=persistent_chain(2, 0.9),
            labels={
                "tau_labor": np.array([tau_labor, tau_labor + 0.10]),
                "tau_capital": np.array([tau_capital, tau_capital]),
            },
        )
        shocks = tensor_chain(productivity, tax_chain)
    else:
        shocks = MarkovChain(
            transition=productivity.transition,
            labels={
                **{k: v for k, v in productivity.labels.items()},
                "tau_labor": np.full(num_states, tau_labor),
                "tau_capital": np.full(num_states, tau_capital),
            },
        )
    retirement = max(2, int(round(num_generations * 2 / 3)))
    return OLGCalibration(
        num_generations=num_generations,
        retirement_age=retirement,
        beta=beta,
        gamma=gamma,
        theta=theta,
        shocks=shocks,
    )


def paper_calibration() -> OLGCalibration:
    """The paper's annual calibration: ``A = 60``, ``Ns = 16``.

    16 discrete states = 4 productivity levels (Rouwenhorst AR(1),
    persistence 0.8) x 2 labor-tax regimes x 2 capital-tax regimes.
    Retirement at model age 46 (calendar age 66), matching "agents receive
    social security payments ... starting at age 66".
    """
    log_values, prod_pi = rouwenhorst(4, rho=0.8, sigma=0.02)
    productivity = MarkovChain(
        transition=prod_pi,
        labels={
            "productivity": np.exp(log_values),
            "depreciation": np.full(4, 0.08),
        },
    )
    labor_tax = MarkovChain(
        transition=persistent_chain(2, 0.95),
        labels={"tau_labor": np.array([0.12, 0.22])},
    )
    capital_tax = MarkovChain(
        transition=persistent_chain(2, 0.95),
        labels={"tau_capital": np.array([0.0, 0.15])},
    )
    shocks = tensor_chain(productivity, labor_tax, capital_tax)
    return OLGCalibration(
        num_generations=60,
        retirement_age=46,
        beta=0.97,
        gamma=2.0,
        theta=0.36,
        shocks=shocks,
    )
