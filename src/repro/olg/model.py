"""The stochastic OLG model (paper Sec. II) as a time-iteration model.

State convention
----------------
The mixed state is ``s = (z, x)`` with ``z`` a discrete Markov shock and

    ``x = (k_2, ..., k_A)  in  R^{A-1}``

the capital holdings of the asset-holding generations at the start of the
period (ages are 0-based in the code: generation ``a`` corresponds to code
age ``a - 1``).  Newborns hold nothing, so ``d = A - 1`` and aggregate
capital is ``K = sum(x)``: every point of the box is an economy, and
tomorrow's state is today's savings.  Each generation has its own bounds,
multiples of its steady-state holding (:meth:`OLGModel._default_domain`, the
one place the box is set).  :data:`repro.olg.euler.STATE_CONVENTION`
names these coordinates for the scenario store, whose solve hashes carry it.

Policy convention
-----------------
Per discrete state and per grid point the model approximates
``2 (A - 1)`` numbers: the savings (asset demand) functions of ages
``0 .. A-2`` followed by their value functions, matching the paper's
"118 coefficients per state and grid point" for ``A = 60``.

Equilibrium conditions
----------------------
At a grid point the unknowns are the savings ``k'_a`` of all non-terminal
ages.  The residuals are the Euler equations

    ``u'(c_a) - beta * E_z'[ R'(z') u'(c'_{a+1}(z')) | z ] = 0``

where next-period consumption interpolates the *next iterate's* policy
functions of all ``Ns`` shock states (the interpolation bottleneck the
paper optimises).

The formulas live in :class:`repro.olg.euler.EulerSystem`, which evaluates
them over any number of rows; the scalar (one point) and ``_batch`` (many
points) methods below are shape adapters over this model's system.  The
batch form on one row and the stacked group agree bit for bit; the scalar
form runs the same code on numpy scalars, whose ``pow`` can differ from
the array ``pow`` in the last bit (AVX-512 hosts), hence to ~1e-15.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import PolicySet
from repro.grids.domain import BoxDomain
from repro.olg.calibration import OLGCalibration
from repro.olg.euler import EulerSystem, PeriodEnvironment
from repro.olg.government import FiscalPolicy
from repro.olg.preferences import CRRAUtility
from repro.olg.production import CobbDouglasTechnology
from repro.olg.solver import NewtonSolver
from repro.utils.rng import default_rng

__all__ = ["OLGModel", "PeriodEnvironment"]

# the box of generation ``a`` around its steady-state holding ``k_a^ss``:
# ``[_BOX_LOWER, _BOX_UPPER] * max(k_a^ss, 0)``, the upper bound widened by
# ``_BOX_WIDTH * k_ss / (A - 1)`` for the ages that hold <= 0 in steady state
_BOX_LOWER, _BOX_UPPER, _BOX_WIDTH = 0.2, 2.5, 0.05


def _point(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).reshape(-1)


def _rows(a: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=float))


class OLGModel:
    """Stochastic OLG economy implementing the time-iteration protocol."""

    def __init__(
        self,
        calibration: OLGCalibration | None = None,
        utility: CRRAUtility | None = None,
        technology: CobbDouglasTechnology | None = None,
        fiscal: FiscalPolicy | None = None,
        solver: NewtonSolver | None = None,
    ) -> None:
        self.calibration = calibration if calibration is not None else OLGCalibration()
        cal = self.calibration
        self.utility = utility if utility is not None else CRRAUtility(
            gamma=cal.gamma, c_min=cal.consumption_floor
        )
        self.technology = technology if technology is not None else CobbDouglasTechnology(
            theta=cal.theta
        )
        self.fiscal = fiscal if fiscal is not None else FiscalPolicy()
        self.solver = solver if solver is not None else NewtonSolver()
        self._domain = self._default_domain()
        self.system = EulerSystem([self])

    # ------------------------------------------------------------------ #
    # protocol properties
    # ------------------------------------------------------------------ #
    @property
    def num_states(self) -> int:
        return self.calibration.num_states

    @property
    def state_dim(self) -> int:
        return self.calibration.state_dim

    @property
    def num_ages(self) -> int:
        return self.calibration.num_generations

    @property
    def num_savers(self) -> int:
        """Ages with a savings decision (all but the oldest)."""
        return self.calibration.num_generations - 1

    @property
    def num_policies(self) -> int:
        """Savings plus value function per saving age — 2(A-1) coefficients."""
        return 2 * self.num_savers

    @property
    def domain(self) -> BoxDomain:
        return self._domain

    # ------------------------------------------------------------------ #
    # aggregates, prices, incomes
    # ------------------------------------------------------------------ #
    def _default_domain(self) -> BoxDomain:
        """Per-age bounds around the deterministic steady state's life-cycle profile."""
        steady = self.steady_state
        held = np.maximum(steady.profile.holdings[1:], 0.0)
        width = _BOX_WIDTH * steady.capital / self.state_dim
        return BoxDomain(_BOX_LOWER * held, _BOX_UPPER * held + width)

    @property
    def steady_state(self):
        """Deterministic steady state used to anchor the box and guesses."""
        if not hasattr(self, "_steady_state"):
            from repro.olg.steady_state import deterministic_steady_state

            self._steady_state = deterministic_steady_state(
                self.calibration,
                technology=self.technology,
                fiscal=self.fiscal,
                utility=self.utility,
            )
        return self._steady_state

    def environment(self, z: int, K: float) -> PeriodEnvironment:
        """Prices, government budget and incomes in shock state ``z`` at capital ``K``."""
        return self.system.environment(z, None, K)

    # ------------------------------------------------------------------ #
    # state packing
    # ------------------------------------------------------------------ #
    def unpack_state(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Split a continuous state into aggregate capital and per-age holdings.

        Returns ``(K, holdings)`` where ``holdings`` has length ``A``:
        newborns hold nothing, the other ages their coordinate of ``x``,
        and ``K`` is the sum.
        """
        x = np.asarray(x, dtype=float).reshape(self.state_dim)
        return float(x.sum()), self.system.holdings(x)

    def pack_next_state(self, savings: np.ndarray) -> np.ndarray:
        """Continuous state implied by today's savings decisions.

        ``savings`` has length ``A - 1`` (ages ``0 .. A-2``); tomorrow
        these agents are ages ``1 .. A-1`` and hold what they saved, so
        the new state is the savings clipped into the approximation box.
        """
        return self.system.next_states(None, np.asarray(savings, dtype=float))[1]

    def consumption_today(
        self, env: PeriodEnvironment, holdings: np.ndarray, savings: np.ndarray
    ) -> np.ndarray:
        """Consumption by age implied by holdings, income and savings choices."""
        return self.system.consumption(env, holdings, savings)

    # ------------------------------------------------------------------ #
    # equilibrium conditions: scalar and batch adapters of the rows form
    # ------------------------------------------------------------------ #
    def euler_residuals(
        self, z: int, x: np.ndarray, savings: np.ndarray, policy_next: PolicySet
    ) -> np.ndarray:
        """Euler-equation residuals at one state for candidate savings."""
        return self.system.euler_residuals(z, None, _point(x), _point(savings), [policy_next])

    def euler_residuals_batch(
        self, z: int | np.ndarray, X: np.ndarray, savings: np.ndarray, policy_next: PolicySet
    ) -> np.ndarray:
        """Euler residuals at every row of ``X``: ``(m, A-1)``."""
        return self.system.euler_residuals(z, None, _rows(X), _rows(savings), [policy_next])

    def value_functions(
        self, z: int, x: np.ndarray, savings: np.ndarray, policy_next: PolicySet
    ) -> np.ndarray:
        """Bellman update of the value functions of all saving ages."""
        return self.system.value_functions(z, None, _point(x), _point(savings), [policy_next])

    def value_functions_batch(
        self, z: int | np.ndarray, X: np.ndarray, savings: np.ndarray, policy_next: PolicySet
    ) -> np.ndarray:
        """Bellman updates at every row of ``X``: ``(m, A-1)``."""
        return self.system.value_functions(z, None, _rows(X), _rows(savings), [policy_next])

    # ------------------------------------------------------------------ #
    # time-iteration protocol methods
    # ------------------------------------------------------------------ #
    def solve_point(
        self,
        z: int,
        x: np.ndarray,
        policy_next: PolicySet,
        guess: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve the equilibrium system at one grid point.

        Returns the ``2 (A-1)`` policy coefficients (savings then values):
        :meth:`solve_points_batch` on one row.
        """
        return self.solve_points_batch(z, x, policy_next, guess)[0]

    def solve_points_batch(
        self,
        z: int | np.ndarray,
        X: np.ndarray,
        policy_next: PolicySet,
        guesses: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve the equilibrium system at every row of ``X`` in one batch.

        ``z`` is the shock state of all rows or an int array with one state
        per row, so one call can cover every state's grid.  The Newton
        iteration is vectorized across rows, and each residual evaluation
        interpolates next period's policies at all active rows with one
        basis pass that serves every successor state; rows it cannot
        converge keep the batch's best iterate (see
        :meth:`repro.olg.euler.EulerSystem.solve`).  ``guesses`` are
        optional warm-start policy values per row.
        """
        return self.system.solve(z, _rows(X), [policy_next], guesses)

    def solver_totals(self) -> dict:
        """Running point-solve totals of this model (:attr:`EulerSystem.totals`)."""
        return dict(self.system.totals)

    @classmethod
    def stacked_group(cls, models: list["OLGModel"], counts: list[int]):
        """Cross-scenario stacked point solver for topology-sharing models.

        Returns a :class:`repro.olg.stacked.StackedOLGGroup`; raises
        :class:`repro.olg.stacked.StructuralMismatch` (a ``ValueError``)
        when the models differ structurally, in which case callers fall
        back to per-scenario solves.
        """
        from repro.olg.stacked import StackedOLGGroup

        return StackedOLGGroup(models, counts)

    def initial_policy_values(self, z: int, X: np.ndarray) -> np.ndarray:
        """Initial guess anchored on the deterministic steady-state lifecycle.

        Savings are a convex blend of the steady-state savings profile and a
        fixed rate out of current resources (so the guess still responds to
        the state); values come from consuming the implied amounts forever.
        """
        c_min = self.utility.c_min
        # cash on hand point by point: numpy's scalar and array ``pow`` differ
        # in the last bit on AVX-512 hosts, and time iteration amplifies a
        # one-ulp change of p^0 into different iteration counts, so the
        # starting point keeps the bits every stored solve began from
        resources = np.array([self.system.resources(z, None, x) for x in _rows(X)])
        steady_savings = np.maximum(self.steady_state.profile.savings[: self.num_savers], 1e-6)
        savings = 0.5 * steady_savings + 0.5 * np.maximum(0.4 * resources, 1e-6)
        savings = np.minimum(savings, np.maximum(resources - c_min, 1e-6))
        savings = np.maximum(savings, 1e-6)
        consumption = np.maximum(resources - savings, c_min)
        values = self.utility.utility(consumption) / (1.0 - self.calibration.beta)
        return np.concatenate([savings, values], axis=1)

    # ------------------------------------------------------------------ #
    # accuracy diagnostics
    # ------------------------------------------------------------------ #
    def equilibrium_errors(
        self, policy: PolicySet, sample: np.ndarray, rng=None
    ) -> dict:
        """Unit-free Euler-equation errors of a candidate policy.

        For every sample state and discrete shock, the policy's savings are
        plugged into the Euler equations with the *same* policy serving as
        next period's policy; the error of age ``a`` is

            ``| (beta E[R' u'(c'_{a+1})])^(-1/gamma) / c_a - 1 |``

        the standard consumption-equivalent accuracy measure.  Returns the
        ``linf`` and ``l2`` aggregates plus the mean ``log10`` error, which
        is what Fig. 9 tracks as the solution error.
        """
        sample = _rows(sample)
        errors = []
        for z in range(self.num_states):
            values = np.atleast_2d(policy.evaluate(z, sample))
            savings = np.maximum(values[:, : self.num_savers], 1e-10)
            cons_today = np.maximum(
                self.system.resources(z, None, sample) - savings, self.utility.c_min
            )
            residual = self.system.euler_residuals(z, None, sample, savings, [policy])
            # beta * E[R' u'(c')] = u'(c) - residual
            rhs = np.maximum(self.utility.marginal_utility(cons_today) - residual, 1e-12)
            implied = rhs ** (-1.0 / self.calibration.gamma)
            errors.append(np.abs(implied / cons_today - 1.0).ravel())
        stacked = np.concatenate(errors)
        return {
            "linf": float(np.max(stacked)),
            "l2": float(np.sqrt(np.mean(stacked**2))),
            "mean_log10": float(np.mean(np.log10(np.maximum(stacked, 1e-16)))),
            "num_evaluations": int(stacked.size),
        }

    def sample_states(self, n: int, rng=None) -> np.ndarray:
        """Random continuous states used for accuracy evaluation."""
        return self.domain.sample(n, default_rng(rng))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cal = self.calibration
        return (
            f"OLGModel(A={cal.num_generations}, Ns={cal.num_states}, "
            f"d={self.state_dim}, policies={self.num_policies})"
        )
