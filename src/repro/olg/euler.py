"""The household problem in rows form: the one implementation of the Euler system.

A *row* is one grid point of one model.  Every method of
:class:`EulerSystem` works on ``m`` rows at once and takes, next to the
shock state ``z``, the ``member`` the rows belong to: one model index for
all of them, or one per row.  The calibration scalars that may differ
between models — the discount factor, the four shock labels of every
state, the transition probabilities and the box bounds — sit in tables
with one entry per model, and a method reads them at ``member``.  So one
model is a stack of one, and the rows of one call may be (model, shock
state, grid point) triples: ``z`` too is one state for all rows or an int
array aligned with them.  With one model index the methods also take a
single point without a row axis (states ``(d,)``, savings ``(A-1,)``).
:class:`repro.olg.model.OLGModel` and
:class:`repro.olg.stacked.StackedOLGGroup` are shape adapters over this
class: the period environment, the state packing, the Euler residuals, the
Bellman update, the savings guess and the point solve live only here
(factor prices and the government budget are :mod:`repro.olg.production`
and :mod:`repro.olg.government`).

Savings are solved in log space, which keeps them strictly positive (an
interior-solution version of the paper's Ipopt bound constraints).

The residuals and the Bellman update are written once, as private
routines of today's cash on hand and a prepared
:class:`~repro.core.policy.PolicyRead` of the next-iterate policies.  A
Newton run (:meth:`EulerSystem.solve`) builds both once — neither depends
on the candidate savings — so a residual call pays only for tomorrow: the
next states and period environment, one basis pass and one GEMM per model,
the marginal utilities.  The public :meth:`EulerSystem.euler_residuals` /
:meth:`EulerSystem.value_functions` build the two per call and give the
same bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.policy import PolicyRead, PolicySet
from repro.olg.government import GovernmentBudget
from repro.olg.production import Prices
from repro.olg.solver import BatchNewtonSolver

__all__ = ["EulerSystem", "PeriodEnvironment", "STATE_CONVENTION", "StructuralMismatch"]

#: names the coordinates of :meth:`EulerSystem.holdings` / ``next_states``, which
#: stored policies live on; a solve spec's content hash carries it
STATE_CONVENTION = "holdings-1"

_LOG_SAVINGS_FLOOR = -16.0  # exp(-16) ~ 1e-7: effectively the borrowing constraint
_LOG_SAVINGS_CEILING = 30.0
_SHOCK_LABELS = ("productivity", "depreciation", "tau_labor", "tau_capital")


class PeriodEnvironment(NamedTuple):
    """Everything the household problem needs about one period's aggregates.

    Scalars and an ``(A,)`` income vector at a single point; one entry
    per row (``incomes`` is ``(m, A)``) in the rows form.
    """

    prices: Prices
    budget: GovernmentBudget
    gross_return: np.ndarray   # 1 + (1 - tau_c) * r_net
    incomes: np.ndarray        # after-tax non-asset income by age


def _savings(log_savings: np.ndarray) -> np.ndarray:
    return np.exp(np.clip(log_savings, _LOG_SAVINGS_FLOOR, _LOG_SAVINGS_CEILING))


def _pinned(log_savings: np.ndarray) -> np.ndarray:
    """Rows with a saver at or beyond a clip bound of :func:`_savings`.

    The residual does not respond to that unknown (its Jacobian column is
    exactly zero).  In practice it is the floor, and a binding borrowing
    constraint: from 12 generations the youngest saver's steady-state
    saving is negative (+0.01 at 10), and log-savings cannot follow it
    below zero.
    """
    return np.any(
        (log_savings <= _LOG_SAVINGS_FLOOR) | (log_savings >= _LOG_SAVINGS_CEILING), axis=-1
    )


class StructuralMismatch(ValueError):
    """Models differ in a way that changes the Euler system's structure."""


def _structure(model) -> dict:
    """What must agree across the models of one system, by the name a mismatch is reported."""
    cal, s = model.calibration, model.solver
    return {
        "model classes": type(model),
        "calibration structure": (
            cal.num_generations,
            cal.num_states,
            cal.retirement_age,
            cal.efficiency.tobytes(),
        ),
        "preferences/technology/fiscal": (model.utility, model.technology, model.fiscal),
        "nonlinear solver settings": (
            s.tol,
            s.max_iterations,
            s.fd_step,
            s.max_step,
        ),
    }


class EulerSystem:
    """Equilibrium conditions and point solve over rows of one or more models.

    Parameters
    ----------
    models
        :class:`~repro.olg.model.OLGModel` instances that agree on every
        structural ingredient: ages, preferences, technology, fiscal rule
        and nonlinear-solver settings.  :class:`StructuralMismatch` is
        raised otherwise.

    ``member`` arguments name the model of the rows: one index for all of
    them, or one per row, sorted so that each model's rows are contiguous.
    ``z`` is the shock state of all rows or one state per row;
    ``policies`` holds one next-iterate
    :class:`~repro.core.policy.PolicySet` per model.  States, savings and
    results carry the ages/coordinates on their last axis.
    """

    def __init__(self, models: list) -> None:
        base = _structure(models[0])
        for model in models[1:]:
            for name, theirs in _structure(model).items():
                if theirs != base[name]:
                    raise StructuralMismatch(f"{name} differ")
        first = models[0]
        cal = first.calibration
        self.models = list(models)
        self.utility, self.technology, self.fiscal = first.utility, first.technology, first.fiscal
        self.batch_solver = BatchNewtonSolver(first.solver)
        self.num_states = cal.num_states
        self.num_ages = cal.num_generations
        self.num_savers = cal.num_generations - 1
        self.num_retired = cal.num_retired
        self.labor_supply = cal.labor_supply
        self.efficiency = np.asarray(cal.efficiency, dtype=float)
        self.working = np.arange(cal.num_generations) < cal.retirement_age
        #: what :meth:`solve` did for this model so far (a system of several
        #: models books on each model's own system): rows solved, rows Newton
        #: left stalled, of those the pinned ones, the vectorised residual
        #: calls of the Newton runs it took part in, and the number of those runs
        self.totals = dict.fromkeys(
            ("rows", "stalled", "pinned", "residual_calls", "newton_runs"), 0
        )
        cals = [m.calibration for m in models]
        self.beta = np.array([c.beta for c in cals], dtype=float)             # (M,)
        self.lower = np.array([m.domain.lower for m in models], dtype=float)  # (M, d)
        self.upper = np.array([m.domain.upper for m in models], dtype=float)
        labels = [[c.shocks.label(name) for c in cals] for name in _SHOCK_LABELS]
        self.labels = np.swapaxes(np.asarray(labels, dtype=float), 1, 2)      # (4, Ns, M)
        transition = [c.shocks.transition for c in cals]
        # (Ns, Ns, M): z, z_next, model
        self.prob = np.moveaxis(np.asarray(transition, dtype=float), 0, 2)
        #: ``reach[z, z_next]``: some model moves from ``z`` to ``z_next`` with positive probability
        self.reach = (self.prob > 0.0).any(axis=2)

    # ------------------------------------------------------------------ #
    # aggregates, state packing
    # ------------------------------------------------------------------ #
    def environment(self, z, member, K: np.ndarray) -> PeriodEnvironment:
        """Prices, government budget and incomes in shock state(s) ``z`` at capital ``K``."""
        zeta, delta, tau_l, tau_c = self.labels[:, z, member]
        L = self.labor_supply
        prices = self.technology.prices(K, L, zeta, delta)
        budget = self.fiscal.budget(
            tau_l, tau_c, prices.wage, L, prices.return_net, K, self.num_ages, self.num_retired
        )
        return PeriodEnvironment(
            prices,
            budget,
            self.fiscal.after_tax_return(prices.return_net, tau_c),
            self.fiscal.incomes(tau_l, prices.wage, budget, self.efficiency, self.working),
        )

    def holdings(self, X: np.ndarray) -> np.ndarray:
        """Capital held by each age: newborns nothing, every other age its coordinate.

        ``X`` rows are ``(k_2, ..., k_A)``, the holdings of the ``A - 1``
        asset-holding generations; aggregate capital is their sum.
        """
        holdings = np.zeros(X.shape[:-1] + (self.num_ages,), dtype=float)
        holdings[..., 1:] = X
        return holdings

    def next_states(self, member, savings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tomorrow's aggregate capital and continuous state implied by ``savings``.

        Today's savers ``0 .. A-2`` are tomorrow's ages ``1 .. A-1``: their
        savings are tomorrow's state and sum to the new capital.  The state
        (not the capital that sets tomorrow's prices) is clipped into the
        approximation box.
        """
        return savings.sum(axis=-1), np.clip(savings, self.lower[member], self.upper[member])

    @staticmethod
    def consumption(env: PeriodEnvironment, holdings: np.ndarray, savings) -> np.ndarray:
        """Consumption by age (last axis); the oldest generation saves nothing."""
        consumption = np.asarray(env.gross_return)[..., None] * holdings + env.incomes
        consumption[..., :-1] -= savings
        return consumption

    def consumption_at(self, z, member, X: np.ndarray, savings) -> np.ndarray:
        """Consumption by age at states ``X`` in shock state(s) ``z`` under ``savings``."""
        env = self.environment(z, member, X.sum(axis=-1))
        return self.consumption(env, self.holdings(X), savings)

    def resources(self, z, member, X: np.ndarray) -> np.ndarray:
        """Cash on hand of every saving age: asset income plus non-asset income."""
        return self.consumption_at(z, member, X, 0.0)[..., : self.num_savers]

    # ------------------------------------------------------------------ #
    # equilibrium conditions
    # ------------------------------------------------------------------ #
    def _policy_values(self, states, member, x_next: np.ndarray, read: PolicyRead):
        """Next-iterate policy values of each row's own model in every one of ``states``.

        ``(len(states), ..., 2 (A-1))``, from ONE basis pass at ``x_next``
        when the policies sit on one grid object (time iteration's shared
        regular grid), state by state otherwise (adaptive grids).
        """
        owners = np.ravel(member)
        if owners[0] != owners[-1]:  # several models, sorted: a block of rows each
            uniq, starts = np.unique(owners, return_index=True)
            return read(states, np.split(x_next, starts[1:]), uniq.tolist())
        values = read(states, [np.atleast_2d(x_next)], [int(owners[0])])
        return values[:, 0] if x_next.ndim == 1 else values

    def _tomorrow(self, z, member, savings: np.ndarray, read: PolicyRead):
        """Probability, gross return, consumption, policy values: reachable states first.

        The leading axis runs over the reachable shock states, those some
        row's state ``z`` moves to with positive probability; a row that
        cannot reach one of them carries probability zero there.  The
        consumption is that of today's savers one period on, in shock state
        ``z_next``: they earn the return on their savings plus tomorrow's
        income of the next age and save what the interpolated next-iterate
        policy says (the terminal generation saves nothing).
        """
        ns = self.num_savers
        K_next, x_next = self.next_states(member, savings)
        successors = np.flatnonzero(np.atleast_2d(self.reach[z]).any(axis=0))
        z_next = successors.reshape((-1,) + (1,) * K_next.ndim)  # broadcasts against the rows
        prob = self.prob[z, z_next, member]
        next_values = self._policy_values(successors, member, x_next, read)
        env = self.environment(z_next, member, K_next)
        save_next = np.zeros(successors.shape + savings.shape)
        save_next[..., : ns - 1] = np.maximum(next_values[..., 1:ns], 0.0)
        cons_next = env.gross_return[..., None] * savings + env.incomes[..., 1:] - save_next
        return prob, env.gross_return, cons_next, next_values

    def _residuals(self, z, member, cash: np.ndarray, savings: np.ndarray, read: PolicyRead):
        """The Euler residuals, given the rows' cash on hand and the prepared policy read."""
        mu_today = self.utility.marginal_utility(cash - savings)
        prob, gross_next, cons_next, _ = self._tomorrow(z, member, savings, read)
        mu_next = self.utility.marginal_utility(cons_next)
        expected = ((prob * gross_next)[..., None] * mu_next).sum(axis=0)
        return mu_today - self.beta[member][..., None] * expected

    def _values(self, z, member, cash: np.ndarray, savings: np.ndarray, read: PolicyRead):
        """The Bellman update, given the rows' cash on hand and the prepared policy read."""
        ns = self.num_savers
        utility_today = self.utility.utility(cash - savings)
        prob, _, cons_next, next_values = self._tomorrow(z, member, savings, read)
        value_next = np.empty_like(cons_next)
        value_next[..., : ns - 1] = next_values[..., ns + 1 : 2 * ns]
        # tomorrow's terminal generation consumes everything
        value_next[..., ns - 1] = self.utility.utility(cons_next[..., ns - 1])
        continuation = (prob[..., None] * value_next).sum(axis=0)
        return utility_today + self.beta[member][..., None] * continuation

    def euler_residuals(
        self, z, member, X: np.ndarray, savings: np.ndarray, policies: list[PolicySet]
    ) -> np.ndarray:
        """``u'(c_a) - beta E[R' u'(c'_{a+1})]`` of every saving age, ``(..., A-1)``."""
        cash = self.resources(z, member, X)
        return self._residuals(z, member, cash, savings, PolicyRead(policies))

    def value_functions(
        self, z, member, X: np.ndarray, savings: np.ndarray, policies: list[PolicySet]
    ) -> np.ndarray:
        """Bellman update of the value functions of all saving ages, ``(..., A-1)``."""
        return self._values(z, member, self.resources(z, member, X), savings, PolicyRead(policies))

    # ------------------------------------------------------------------ #
    # the point solve
    # ------------------------------------------------------------------ #
    def savings_guess(self, z, member, X: np.ndarray, guesses: np.ndarray | None) -> np.ndarray:
        """Warm-start savings where usable, a fixed share of cash on hand elsewhere.

        A row of ``guesses`` (policy values, savings first) is usable when
        its savings are finite with at least one positive entry.
        """
        out = np.maximum(0.4 * self.resources(z, member, X), 1e-6)
        if guesses is not None:
            sav = np.atleast_2d(np.asarray(guesses, dtype=float))[:, : self.num_savers]
            valid = np.all(np.isfinite(sav), axis=1) & np.any(sav > 0, axis=1)
            out[valid] = np.maximum(sav[valid], 1e-8)
        return out

    def solve(
        self, z, member, X: np.ndarray, policies: list[PolicySet], guesses: np.ndarray | None
    ) -> np.ndarray:
        """Solve the Euler system at every row: ``(m, 2 (A-1))`` savings then values.

        One :class:`~repro.olg.solver.BatchNewtonSolver` run over all rows
        — with ``z`` and ``member`` arrays, over the rows of every shock state
        of every model at once — so each residual evaluation interpolates next period's policies at
        every candidate of every active row in one basis pass, which serves
        all successor states.  The run's first call carries the start
        residual and the first Jacobian together, so a run of ``k >= 1``
        Newton iterations makes at most ``3 k`` residual calls, ``2 k`` when
        no row halves its step, and the Bellman update adds one basis pass
        after it.  A row whose Newton stalled keeps the best
        iterate of that run.  Such a row is *pinned* (:func:`_pinned`) when
        a saver sits on the borrowing floor, which leaves the system without
        an interior root.  Every node of the box is an economy, so up to 8
        generations no row stalls; from 10-12 the youngest savers' borrowing
        constraint binds at some nodes, those rows are pinned, and time
        iteration goes on regardless.

        What happened is added, model by model, to :attr:`totals` of the
        model's own system.
        """
        z, member = np.broadcast_to(z, X.shape[:1]), np.broadcast_to(member, X.shape[:1])
        # what no candidate changes, once per run: today's cash on hand and
        # the interpolation plumbing of the next-iterate policies
        cash = self.resources(z, member, X)
        read = PolicyRead(policies)
        guess = self.savings_guess(z, member, X, guesses)
        log_guess = np.log(np.maximum(guess, np.exp(_LOG_SAVINGS_FLOOR)))

        def residual(active: np.ndarray, log_savings: np.ndarray) -> np.ndarray:
            return self._residuals(
                z[active], member[active], cash[active], _savings(log_savings), read
            )

        result = self.batch_solver.solve(residual, log_guess)
        savings = _savings(result.x)
        stalled = ~result.converged
        pinned = stalled & _pinned(result.x)
        for i, model in enumerate(self.models):
            mine, totals = member == i, model.system.totals
            totals["rows"] += int(mine.sum())
            totals["stalled"] += int(stalled[mine].sum())
            totals["pinned"] += int(pinned[mine].sum())
            totals["residual_calls"] += result.residual_evaluations
            totals["newton_runs"] += 1
        values = self._values(z, member, cash, savings, read)
        return np.concatenate([savings, values], axis=1)
