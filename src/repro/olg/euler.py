"""The household problem in rows form: the one implementation of the Euler system.

A *row* is one grid point of one model.  Every method of
:class:`EulerSystem` works on ``m`` rows at once and reads the calibration
scalars that may differ between models — the discount factor, the four
shock labels of every state, the transition probabilities and the box
bounds — from per-row parameter arrays.  One model is the broadcast case:
its parameters are scalars, which serve any number of rows and also a
single point without a row axis (states ``(d,)``, savings ``(A-1,)``).
The shock state is such a parameter too: every method takes ``z`` as one
state for all rows or as an int array aligned with the rows, so the rows of
one call may be (model, shock state, grid point) triples.
Several structurally equal models stacked row-wise are what
:class:`repro.olg.stacked.StackedOLGGroup` builds.  Both it and
:class:`repro.olg.model.OLGModel` are shape adapters over this class: the
period environment, the state packing, the Euler residuals, the Bellman
update, the savings guess and the point solve live only here (factor
prices and the government budget are :mod:`repro.olg.production` and
:mod:`repro.olg.government`).

Savings are solved in log space, which keeps them strictly positive (an
interior-solution version of the paper's Ipopt bound constraints).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.policy import PolicySet
from repro.grids.interpolation import evaluate_stacked
from repro.olg.government import GovernmentBudget
from repro.olg.production import Prices
from repro.olg.solver import BatchNewtonSolver

__all__ = ["EulerSystem", "PeriodEnvironment", "STATE_CONVENTION"]

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


class EulerSystem:
    """Equilibrium conditions and point solve over rows of one or more models.

    Parameters
    ----------
    models
        :class:`~repro.olg.model.OLGModel` instances that agree on every
        structural ingredient (ages, preferences, technology, fiscal rule,
        nonlinear-solver settings; the stacked group checks this).
    counts
        Rows contributed by each model, in order.  ``None`` (one model
        only) is the broadcast case: scalar parameters, any number of rows
        or a single point, and the ``rows`` argument of every method is
        ignored.

    ``rows`` arguments index the stacked rows a block of data belongs to
    (sorted, so each model's rows are contiguous); ``z`` is the shock state
    of all of them or one state per row; ``policies`` holds one
    next-iterate :class:`~repro.core.policy.PolicySet` per model.  States,
    savings and results carry the ages/coordinates on their last axis.
    """

    def __init__(self, models: list, counts: list[int] | None = None) -> None:
        base = models[0]
        cal = base.calibration
        self.stacked = counts is not None
        if not self.stacked and len(models) != 1:
            raise ValueError("the broadcast case serves exactly one model")
        reps = counts if self.stacked else [1]
        self.utility, self.technology, self.fiscal = base.utility, base.technology, base.fiscal
        self.batch_solver = BatchNewtonSolver(base.solver)
        self.num_states = cal.num_states
        self.num_ages = cal.num_generations
        self.num_savers = cal.num_generations - 1
        self.num_retired = cal.num_retired
        self.labor_supply = cal.labor_supply
        self.efficiency = np.asarray(cal.efficiency, dtype=float)
        self.working = np.arange(cal.num_generations) < cal.retirement_age
        #: the members' own single-model systems, where :meth:`solve` books
        self.views = [m.system for m in models] if self.stacked else [self]
        #: what :meth:`solve` did for this model so far (a stacked system
        #: books on its members' own systems): rows solved, rows Newton left
        #: stalled, of those the pinned ones, the vectorised residual calls
        #: of the Newton runs it took part in, and the number of those runs
        self.totals = dict.fromkeys(
            ("rows", "stalled", "pinned", "residual_calls", "newton_runs"), 0
        )
        self.row_member = np.repeat(np.arange(len(models)), reps)

        def per_row(values, axis: int = 0) -> np.ndarray:
            return np.repeat(np.asarray(values, dtype=float), reps, axis=axis)

        cals = [m.calibration for m in models]
        self.beta = per_row([c.beta for c in cals])               # (R,)
        self.lower = per_row([m.domain.lower for m in models])    # (R, d)
        self.upper = per_row([m.domain.upper for m in models])
        labels = [[c.shocks.label(name) for c in cals] for name in _SHOCK_LABELS]
        self.labels = per_row(np.swapaxes(labels, 1, 2), axis=2)  # (4, Ns, R)
        transition = [c.shocks.transition for c in cals]
        self.prob = per_row(np.moveaxis(transition, 0, 2), axis=2)  # (Ns, Ns, R): z, z_next, row
        #: ``reach[z, z_next]``: some row moves from ``z`` to ``z_next`` with positive probability
        self.reach = (self.prob > 0.0).any(axis=2)

    def _sel(self, rows):
        """Index of the parameter rows: the stacked rows, or the one model's scalars."""
        return rows if self.stacked else 0

    # ------------------------------------------------------------------ #
    # aggregates, state packing
    # ------------------------------------------------------------------ #
    def environment(self, z, rows, K: np.ndarray) -> PeriodEnvironment:
        """Prices, government budget and incomes in shock state(s) ``z`` at capital ``K``."""
        zeta, delta, tau_l, tau_c = self.labels[:, z, self._sel(rows)]
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

    def next_states(self, rows, savings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tomorrow's aggregate capital and continuous state implied by ``savings``.

        Today's savers ``0 .. A-2`` are tomorrow's ages ``1 .. A-1``: their
        savings are tomorrow's state and sum to the new capital.  The state
        (not the capital that sets tomorrow's prices) is clipped into the
        approximation box.
        """
        sel = self._sel(rows)
        return savings.sum(axis=-1), np.clip(savings, self.lower[sel], self.upper[sel])

    @staticmethod
    def consumption(env: PeriodEnvironment, holdings: np.ndarray, savings) -> np.ndarray:
        """Consumption by age (last axis); the oldest generation saves nothing."""
        consumption = np.asarray(env.gross_return)[..., None] * holdings + env.incomes
        consumption[..., :-1] -= savings
        return consumption

    def consumption_at(self, z, rows, X: np.ndarray, savings) -> np.ndarray:
        """Consumption by age at states ``X`` in shock state(s) ``z`` under ``savings``."""
        env = self.environment(z, rows, X.sum(axis=-1))
        return self.consumption(env, self.holdings(X), savings)

    def resources(self, z, rows, X: np.ndarray) -> np.ndarray:
        """Cash on hand of every saving age: asset income plus non-asset income."""
        return self.consumption_at(z, rows, X, 0.0)[..., : self.num_savers]

    # ------------------------------------------------------------------ #
    # equilibrium conditions
    # ------------------------------------------------------------------ #
    def _policy_values(self, states, rows, x_next: np.ndarray, policies: list[PolicySet]):
        """Next-iterate policy values of each row's own model in every one of ``states``.

        ``(len(states), ..., 2 (A-1))``, from ONE basis pass at ``x_next``
        when the policies sit on one grid object (time iteration's shared
        regular grid), from one pass per state otherwise (adaptive grids).
        """
        if not self.stacked:
            return policies[0].evaluate_all_states(x_next, states)
        mem = self.row_member[rows]  # nondecreasing: rows are sorted
        uniq, starts = np.unique(mem, return_index=True)
        bounds = np.append(starts, mem.size)
        blocks = [x_next[bounds[i] : bounds[i + 1]] for i in range(uniq.size)]
        interps = [[policies[int(u)][s].interpolant for s in states] for u in uniq]
        if all(i.grid is interps[0][0].grid for group in interps for i in group):
            by_state = zip(*evaluate_stacked(interps, blocks))
        else:
            by_state = (evaluate_stacked(list(state), blocks) for state in zip(*interps))
        return np.stack([np.concatenate(members) for members in by_state])

    def _tomorrow(self, z, rows, savings: np.ndarray, policies: list[PolicySet]):
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
        K_next, x_next = self.next_states(rows, savings)
        successors = np.flatnonzero(np.atleast_2d(self.reach[z]).any(axis=0))
        z_next = successors.reshape((-1,) + (1,) * K_next.ndim)  # broadcasts against the rows
        prob = self.prob[z, z_next, self._sel(rows)]
        next_values = self._policy_values(successors, rows, x_next, policies)
        env = self.environment(z_next, rows, K_next)
        save_next = np.zeros(successors.shape + savings.shape)
        save_next[..., : ns - 1] = np.maximum(next_values[..., 1:ns], 0.0)
        cons_next = env.gross_return[..., None] * savings + env.incomes[..., 1:] - save_next
        return prob, env.gross_return, cons_next, next_values

    def euler_residuals(
        self, z, rows, X: np.ndarray, savings: np.ndarray, policies: list[PolicySet]
    ) -> np.ndarray:
        """``u'(c_a) - beta E[R' u'(c'_{a+1})]`` of every saving age, ``(..., A-1)``."""
        consumption = self.consumption_at(z, rows, X, savings)
        mu_today = self.utility.marginal_utility(consumption[..., : self.num_savers])
        prob, gross_next, cons_next, _ = self._tomorrow(z, rows, savings, policies)
        mu_next = self.utility.marginal_utility(cons_next)
        expected = ((prob * gross_next)[..., None] * mu_next).sum(axis=0)
        return mu_today - self.beta[self._sel(rows)][..., None] * expected

    def value_functions(
        self, z, rows, X: np.ndarray, savings: np.ndarray, policies: list[PolicySet]
    ) -> np.ndarray:
        """Bellman update of the value functions of all saving ages, ``(..., A-1)``."""
        ns = self.num_savers
        utility_today = self.utility.utility(self.consumption_at(z, rows, X, savings)[..., :ns])
        prob, _, cons_next, next_values = self._tomorrow(z, rows, savings, policies)
        value_next = np.empty_like(cons_next)
        value_next[..., : ns - 1] = next_values[..., ns + 1 : 2 * ns]
        # tomorrow's terminal generation consumes everything
        value_next[..., ns - 1] = self.utility.utility(cons_next[..., ns - 1])
        continuation = (prob[..., None] * value_next).sum(axis=0)
        return utility_today + self.beta[self._sel(rows)][..., None] * continuation

    # ------------------------------------------------------------------ #
    # the point solve
    # ------------------------------------------------------------------ #
    def savings_guess(self, z, rows, X: np.ndarray, guesses: np.ndarray | None) -> np.ndarray:
        """Warm-start savings where usable, a fixed share of cash on hand elsewhere.

        A row of ``guesses`` (policy values, savings first) is usable when
        its savings are finite with at least one positive entry.
        """
        out = np.maximum(0.4 * self.resources(z, rows, X), 1e-6)
        if guesses is not None:
            sav = np.atleast_2d(np.asarray(guesses, dtype=float))[:, : self.num_savers]
            valid = np.all(np.isfinite(sav), axis=1) & np.any(sav > 0, axis=1)
            out[valid] = np.maximum(sav[valid], 1e-8)
        return out

    def solve(
        self, z, X: np.ndarray, policies: list[PolicySet], guesses: np.ndarray | None
    ) -> np.ndarray:
        """Solve the Euler system at every row: ``(m, 2 (A-1))`` savings then values.

        One :class:`~repro.olg.solver.BatchNewtonSolver` run over all rows
        — with ``z`` an array, over the rows of every shock state at once —
        so each residual evaluation interpolates next period's policies at
        every candidate of every active row in one basis pass, which serves
        all successor states.  A row whose Newton stalled keeps the best
        iterate of that run.  Such a row is *pinned* (:func:`_pinned`) when
        a saver sits on the borrowing floor, which leaves the system without
        an interior root.  Every node of the box is an economy, so up to 8
        generations no row stalls; from 10-12 the youngest savers' borrowing
        constraint binds at some nodes, those rows are pinned, and time
        iteration goes on regardless.

        What happened is added, member by member, to :attr:`totals` of the
        member's own single-model system.
        """
        rows = np.arange(X.shape[0])
        z = np.broadcast_to(z, rows.shape)
        guess = self.savings_guess(z, rows, X, guesses)
        log_guess = np.log(np.maximum(guess, np.exp(_LOG_SAVINGS_FLOOR)))

        def residual(active: np.ndarray, log_savings: np.ndarray) -> np.ndarray:
            savings = _savings(log_savings)
            return self.euler_residuals(z[active], active, X[active], savings, policies)

        result = self.batch_solver.solve(residual, log_guess)
        savings = _savings(result.x)
        member = self.row_member if self.stacked else np.zeros(rows.size, dtype=int)
        stalled = ~result.converged
        pinned = stalled & _pinned(result.x)
        for i, view in enumerate(self.views):
            mine = member == i
            view.totals["rows"] += int(mine.sum())
            view.totals["stalled"] += int(stalled[mine].sum())
            view.totals["pinned"] += int(pinned[mine].sum())
            view.totals["residual_calls"] += result.residual_evaluations
            view.totals["newton_runs"] += 1
        values = self.value_functions(z, rows, X, savings, policies)
        return np.concatenate([savings, values], axis=1)
