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
array aligned with them.  States and savings always carry a row axis
(``(m, d)``, ``(m, A-1)``).
:class:`repro.olg.model.OLGModel` and
:class:`repro.olg.stacked.StackedOLGGroup` are shape adapters over this
class: the period environment, the state packing, the Euler residuals, the
Bellman update, the savings guess and the point solve live only here
(factor prices and the government budget are :mod:`repro.olg.production`
and :mod:`repro.olg.government`).

The paper solves each point under the savings bound ``s >= 0`` with Ipopt.
Here the Euler equations are gaps in consumption units
(:meth:`EulerSystem.euler_residuals`), and Newton solves the savings
through the Fischer–Burmeister residual ``s + gap - hypot(s, gap)``, which
is zero exactly at the bound's complementarity conditions: a saver on the
borrowing floor who would borrow is a root like any interior saver.

The residuals, their Jacobian and the Bellman update are written once, as
private routines of today's cash on hand and a prepared
:class:`~repro.core.policy.PolicyRead` of the next-iterate policies.  A
Newton run (:meth:`EulerSystem.solve`) builds both once — neither depends
on the candidate savings — so a residual call pays only for tomorrow, and
derives it once: the shock labels, box bounds and transition
probabilities gathered by row, tomorrow's capital and period environment,
tomorrow's states prepared for the read (mapped onto the unit box and the
factor table's hats taken there, :meth:`~repro.core.policy.PolicyRead.rows`),
one basis pass from those hats and one GEMM per model over tomorrow's
savings of ages ``1 .. A-2`` (the only policy columns the Euler equations
read), the marginal utilities.  The call keeps all of it, and
:meth:`EulerSystem._linearize` applies the chain rule to it at the rows
Newton keeps, deriving nothing of tomorrow again: the saver's own return,
the rank-one term through tomorrow's capital (closed form in
:mod:`repro.olg.production` and :mod:`repro.olg.government`, from the kept
tax rates and prices), and the read's gradient from the kept hats at those
rows (:meth:`~repro.core.policy.PolicyRead.gradient`), assembled in one
``(rows, A-1, A-1)`` buffer.
Newton's one callback returns a call's residuals with that
linearization, so a Newton iteration evaluates the Euler system once, at
its trial point, and the call that accepted a row's point gives the next
iteration its Jacobian there, where a forward difference would read the
row ``A`` more times.  The public
:meth:`EulerSystem.euler_residuals` / :meth:`EulerSystem.value_functions`
build the two per call and give the same bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.policy import PolicyRead, PolicySet
from repro.grids.interpolation import ReadRows
from repro.olg.government import GovernmentBudget
from repro.olg.production import Prices
from repro.olg.solver import BatchNewtonSolver

__all__ = [
    "EulerSystem",
    "PeriodEnvironment",
    "STATE_CONVENTION",
    "StructuralMismatch",
    "structure_key",
]

#: names the coordinates of :meth:`EulerSystem.holdings` / ``next_states``, which
#: stored policies live on; a solve spec's content hash carries it
STATE_CONVENTION = "holdings-1"

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


class _Tomorrow(NamedTuple):
    """The reachable shock states, what the rows meet there, and the read prepared at them."""

    successors: np.ndarray   # (S,) the reachable shock states
    z_next: np.ndarray       # the same, shaped to broadcast against the rows
    prob: np.ndarray         # (S, rows) transition probabilities
    labels: np.ndarray       # (4, S, rows) the shock labels there, by the rows' models
    capital: np.ndarray      # (rows,) tomorrow's capital
    lower: np.ndarray        # the rows' box bounds, gathered by model
    upper: np.ndarray
    env: PeriodEnvironment   # at tomorrow's capital, per state and row
    rows: ReadRows           # tomorrow's state, clipped into the box, prepared for the read


class _Euler(NamedTuple):
    """An Euler gap evaluation and the intermediates its Jacobian reuses."""

    tomorrow: _Tomorrow
    saved: np.ndarray        # (S, rows, A-2) next-iterate savings of ages 1 .. A-2
    cons_next: np.ndarray    # (S, rows, A-1) tomorrow's consumption of today's savers
    mu_next: np.ndarray      # u'(cons_next)
    expected: np.ndarray     # E[R' u'(c')], (rows, A-1)
    implied: np.ndarray      # (u')^{-1}(beta * expected)
    gap: np.ndarray          # implied - c


#: both partials of ``s + g - hypot(s, g)`` at ``s = g = 0``, an element of its
#: generalized Jacobian
_FB_AT_ZERO = 1.0 - np.sqrt(0.5)


class StructuralMismatch(ValueError):
    """Models differ in a way that changes the Euler system's structure."""


def structure_key(calibration) -> tuple:
    """What the models of one system must share in their calibration, as a hashable tuple.

    Generations, shock states, retirement age, efficiency profile, risk
    aversion ``gamma``, consumption floor and capital share ``theta``: the
    ages, preferences and technology the system holds once.  The rest —
    the discount factor, the shock labels and transitions, the box — sits
    in per-model tables.  Calibrations with equal keys, solved at one grid
    level, are what the scenario drain stacks.
    """
    cal = calibration
    return (
        cal.num_generations,
        cal.num_states,
        cal.retirement_age,
        cal.efficiency.tobytes(),
        cal.gamma,
        cal.consumption_floor,
        cal.theta,
    )


def _structure(model) -> dict:
    """What must agree across the models of one system, by the name a mismatch is reported."""
    return {
        "model classes": type(model),
        "calibration structures": structure_key(model.calibration),
    }


class EulerSystem:
    """Equilibrium conditions and point solve over rows of one or more models.

    Parameters
    ----------
    models
        :class:`~repro.olg.model.OLGModel` instances of one class, with
        equal :func:`structure_key`.  :class:`StructuralMismatch` is
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
        self.batch_solver = BatchNewtonSolver()
        self.num_states = cal.num_states
        self.num_ages = cal.num_generations
        self.num_savers = ns = cal.num_generations - 1
        #: the policy columns a read takes: tomorrow's savings of ages
        #: 1 .. A-2 (the Euler gaps) and their values (the Bellman update)
        self.saved_columns = tuple(range(1, ns))
        self.valued_columns = tuple(range(ns + 1, 2 * ns))
        self.num_retired = cal.num_retired
        self.labor_supply = cal.labor_supply
        self.efficiency = np.asarray(cal.efficiency, dtype=float)
        self.working = np.arange(cal.num_generations) < cal.retirement_age
        #: what :meth:`solve` did for this model so far (a system of several
        #: models books on each model's own system): rows solved, rows Newton
        #: left stalled, the vectorised residual calls of the Newton runs it
        #: took part in, and the number of those runs
        self.totals = dict.fromkeys(("rows", "stalled", "residual_calls", "newton_runs"), 0)
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
        return self._environment(self.labels[:, z, member], K)

    def _environment(self, labels: np.ndarray, K: np.ndarray) -> PeriodEnvironment:
        """:meth:`environment` under the shock labels ``labels``, gathered from :attr:`labels`."""
        zeta, delta, tau_l, tau_c = labels
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
    def _tomorrow(self, z, member, savings: np.ndarray, read: PolicyRead) -> _Tomorrow:
        """The reachable shock states, their probabilities and period environment.

        The leading axis of the result runs over the reachable shock states,
        those some row's state ``z`` moves to with positive probability; a
        row that cannot reach one of them carries probability zero there
        (no rows reach none).  Today's savers ``0 .. A-2`` are tomorrow's
        ages ``1 .. A-1``, whose savings the next-iterate policy says:
        tomorrow's state is prepared for ``read`` once, for the call's read
        and its Jacobian's.
        """
        lower, upper = self.lower[member], self.upper[member]
        K_next = savings.sum(axis=-1)  # what next_states gives, the gathered bounds kept
        today = np.zeros(self.num_states, dtype=bool)
        today[z] = True  # the shock states of the rows
        successors = np.flatnonzero(self.reach[today].any(axis=0))
        z_next = successors.reshape((-1,) + (1,) * K_next.ndim)  # broadcasts against the rows
        labels = self.labels[:, z_next, member]
        return _Tomorrow(
            successors,
            z_next,
            self.prob[z, z_next, member],
            labels,
            K_next,
            lower,
            upper,
            self._environment(labels, K_next),
            read.rows(member, np.clip(savings, lower, upper)),
        )

    def _euler(self, z, member, cash: np.ndarray, savings: np.ndarray, read: PolicyRead) -> _Euler:
        """The Euler gaps, and what their Jacobian reuses, from one read of tomorrow's savings.

        Today's savers one period on earn the return on their savings plus
        tomorrow's income of the next age and save what the interpolated
        next-iterate policy says (the terminal generation saves nothing).
        ``u'`` stays positive below the consumption floor, so the
        expectation always has an inverse.
        """
        ns = self.num_savers
        t = self._tomorrow(z, member, savings, read)
        saved = read.read(t.successors, t.rows, self.saved_columns)
        save_next = np.zeros(t.successors.shape + savings.shape)
        save_next[..., : ns - 1] = np.maximum(saved, 0.0)
        cons_next = t.env.gross_return[..., None] * savings + t.env.incomes[..., 1:] - save_next
        mu_next = self.utility.marginal_utility(cons_next)
        expected = ((t.prob * t.env.gross_return)[..., None] * mu_next).sum(axis=0)
        implied = self.utility.inverse_marginal_utility(self.beta[member][..., None] * expected)
        gap = implied - (cash - savings)
        return _Euler(t, saved, cons_next, mu_next, expected, implied, gap)

    def _residuals(self, z, member, cash: np.ndarray, savings: np.ndarray, read: PolicyRead):
        """The Euler gaps, given the rows' cash on hand and the prepared policy read."""
        return self._euler(z, member, cash, savings, read).gap

    def _linearize(self, member, savings: np.ndarray, e: _Euler, keep, read: PolicyRead):
        """The exact Jacobian of the Fischer–Burmeister residual at the rows ``keep`` of ``e``.

        ``e`` is :meth:`_euler`'s evaluation at ``savings`` (rows form,
        ``member`` one index or one per row) through ``read``; ``keep`` are
        increasing positions among its rows, and every row is taken without
        a copy.  Nothing of tomorrow is derived again: the shock labels,
        capital, prices and the read's prepared rows (unit coordinates and
        hats) are ``e``'s, taken at ``keep``.
        Returns ``J[r, a, b]``, the derivative of kept row ``r``'s ``s_a +
        gap_a - hypot(s_a, gap_a)`` in its saving ``s_b``.  A saving moves
        tomorrow's consumption of its saver ``c'_a = R' s_a + y'_{a+1} -
        max(P_{a+1}, 0)`` three ways: through its own return (the diagonal);
        through capital ``K' = sum(s)``, which sets every age's ``R'`` and
        ``y'`` (a rank-one term, closed form in :meth:`_environment_slopes`);
        and through the state ``x' = clip(s)`` the next-iterate savings
        ``P`` are read at — the read's gradient at the kept rows, summed
        over the successor states with the weights ``prob R' u''(c')``, zero
        where ``x'`` is clipped or ``P < 0``.  Derivatives at a kink are
        taken from the right, as a forward difference sees them; where
        ``hypot(s, gap) = 0`` both partials of the Fischer–Burmeister
        function are ``1 - 1/sqrt(2)``.  ``J`` is assembled in one
        ``(rows, A-1, A-1)`` buffer.
        """
        ns = self.num_savers
        t = e.tomorrow
        every = len(keep) == len(savings)
        rows = slice(None) if every else np.asarray(keep)  # a slice picks views
        # the tax rates and box bounds: gathered by row, or one model's
        if np.ndim(member):
            labels, lower, upper = t.labels[2:, :, rows], t.lower[rows], t.upper[rows]
        else:
            labels, lower, upper = t.labels[2:], t.lower, t.upper
        savings, gap, expected, implied = (a[rows] for a in (savings, e.gap, e.expected, e.implied))
        prob, gross, saved, cons_next, mu_next = (
            a[:, rows] for a in (t.prob, t.env.gross_return, e.saved, e.cons_next, e.mu_next)
        )
        prices = Prices(*(field[:, rows] for field in t.env.prices))
        gross_slope, incomes_slope = self._environment_slopes(labels, t.capital[rows], prices)
        # prob R' u''(c'), (states, rows, ns)
        weighted = self.utility.marginal_utility_slope(cons_next)
        weighted *= (prob * gross)[..., None]
        # the read's weights: zero where tomorrow's savings are cut at 0
        by_read = weighted[..., :-1] * (saved >= 0.0)
        # d E_a / d K', the same for every saving: through R' and through c'
        through_capital = gross_slope[..., None] * savings
        through_capital += incomes_slope[..., 1:]
        through_capital *= weighted
        through_capital += (prob * gross_slope)[..., None] * mu_next
        common = through_capital.sum(axis=0)
        weighted *= gross[..., None]
        own = weighted.sum(axis=0)
        del through_capital, weighted  # (states, rows, A-1) each: freed before the gradient
        through_read = read.gradient(
            t.successors, t.rows if every else t.rows.take(rows), self.saved_columns, by_read
        )
        inside = (savings >= lower) & (savings < upper)
        through_read *= inside[..., None, :]
        J = np.empty(savings.shape + (ns,))  # d E_a / d s_b, then the residual's
        J[...] = common[..., None]
        J[..., :-1, :] -= through_read
        # the inverse marginal utility (beta E)^(-1/gamma), the gap's -c_a, then
        # Fischer–Burmeister's partials
        by_expected = -implied / (self.utility.gamma * expected)
        norm = np.hypot(savings, gap)
        zero = norm == 0.0
        corner = zero.any()
        if corner:
            norm[zero] = 1.0
        by_saving, by_gap = 1.0 - savings / norm, 1.0 - gap / norm
        if corner:
            by_saving[zero] = by_gap[zero] = _FB_AT_ZERO
        J *= (by_gap * by_expected)[..., None]
        diagonal = J.reshape(J.shape[:-2] + (ns * ns,))[..., :: ns + 1]  # a view
        diagonal += by_gap * (by_expected * own + 1.0) + by_saving
        return J

    def _environment_slopes(self, labels: np.ndarray, K: np.ndarray, prices: Prices):
        """``d/dK`` of tomorrow's gross return and incomes by age, in each successor state.

        ``labels`` are tomorrow's labor and capital tax rates, ``prices``
        tomorrow's prices at capital ``K``, both as :meth:`_tomorrow`
        gathered them.
        """
        tau_l, tau_c = labels
        slopes = self.technology.price_slopes(K, prices)
        budget = self.fiscal.budget_slope(
            tau_l, tau_c, slopes.wage, self.labor_supply, prices.return_net,
            slopes.return_net, K, self.num_ages, self.num_retired,
        )
        incomes = self.fiscal.incomes(tau_l, slopes.wage, budget, self.efficiency, self.working)
        return (1.0 - tau_c) * slopes.return_net, incomes

    def _values(self, z, member, cash: np.ndarray, savings: np.ndarray, read: PolicyRead):
        """The Bellman update, given the rows' cash on hand and the prepared policy read.

        Reads tomorrow's values of ages ``1 .. A-2``; the terminal
        generation consumes everything, in closed form.
        """
        ns = self.num_savers
        utility_today = self.utility.utility(cash - savings)
        t = self._tomorrow(z, member, savings, read)
        valued = read.read(t.successors, t.rows, self.valued_columns)
        value_next = np.empty(t.successors.shape + savings.shape)
        value_next[..., : ns - 1] = valued
        terminal = t.env.gross_return * savings[..., ns - 1] + t.env.incomes[..., ns]
        value_next[..., ns - 1] = self.utility.utility(terminal)
        continuation = (t.prob[..., None] * value_next).sum(axis=0)
        return utility_today + self.beta[member][..., None] * continuation

    def euler_residuals(
        self, z, member, X: np.ndarray, savings: np.ndarray, policies: list[PolicySet]
    ) -> np.ndarray:
        """The Euler gap ``ĉ_a - c_a`` of every saving age, ``(m, A-1)``.

        ``ĉ_a = (u')^{-1}(beta E[R' u'(c'_{a+1})])`` is the consumption the
        Euler equation asks for; a positive gap is a saver who would rather
        consume more today, by borrowing where ``s_a = 0``.
        """
        cash = self.resources(z, member, X)
        return self._residuals(z, member, cash, savings, PolicyRead(policies))

    def value_functions(
        self, z, member, X: np.ndarray, savings: np.ndarray, policies: list[PolicySet]
    ) -> np.ndarray:
        """Bellman update of the value functions of all saving ages, ``(m, A-1)``."""
        return self._values(z, member, self.resources(z, member, X), savings, PolicyRead(policies))

    # ------------------------------------------------------------------ #
    # the point solve
    # ------------------------------------------------------------------ #
    def savings_guess(self, cash: np.ndarray, guesses: np.ndarray | None) -> np.ndarray:
        """Warm-start savings where usable, a fixed share of cash on hand elsewhere.

        ``cash`` is the rows' :meth:`resources`.  A row of ``guesses``
        (policy values, savings first) is usable when its savings are finite.
        """
        out = 0.4 * cash
        if guesses is not None:
            sav = np.atleast_2d(np.asarray(guesses, dtype=float))[:, : self.num_savers]
            valid = np.all(np.isfinite(sav), axis=1)
            out[valid] = sav[valid]
        return out

    def solve(
        self, z, member, X: np.ndarray, policies: list[PolicySet], guesses: np.ndarray | None
    ) -> np.ndarray:
        """Solve the Euler system at every row: ``(m, 2 (A-1))`` savings then values.

        One :class:`~repro.olg.solver.BatchNewtonSolver` run over all rows
        — with ``z`` and ``member`` arrays, over the rows of every shock
        state of every model at once — so each residual evaluation
        interpolates next period's policies at every candidate of every
        active row in one basis pass, which serves all successor states.
        Newton takes the exact Jacobian: every call — the start, a full
        step, a round of halvings — returns its residuals and their
        linearization (:meth:`_linearize`), which Newton takes at the rows
        it keeps, at the points it accepted.  So a run of ``k`` Newton
        iterations makes ``1 + k`` residual calls plus one per halving
        round, at most ``1 + 2 k``, and the Bellman update adds one basis
        pass after it.  The
        unknowns are the savings themselves and the residual is
        Fischer–Burmeister's ``s + gap - hypot(s, gap)`` on the Euler gap,
        zero exactly when ``s >= 0``, ``gap >= 0`` and ``s * gap = 0``: from
        12 generations the youngest savers' borrowing constraint binds at
        some nodes, and those savers converge onto the floor.  A row whose
        Newton stalled keeps the best iterate of that run.

        What happened is added, model by model, to :attr:`totals` of the
        model's own system.
        """
        z = np.broadcast_to(z, X.shape[:1])
        # what no candidate changes, once per run: today's cash on hand and
        # the interpolation plumbing of the next-iterate policies
        cash = self.resources(z, member, X)
        read = PolicyRead(policies)

        every = np.arange(len(X))

        def evaluate(active: np.ndarray, savings: np.ndarray) -> tuple:
            # every row once (the start, a full step no row has left): no gathers
            rows = slice(None) if np.array_equal(active, every) else active
            owners = member[rows] if np.ndim(member) else member  # one model: no gather
            e = self._euler(z[rows], owners, cash[rows], savings, read)
            residual = savings + e.gap - np.hypot(savings, e.gap)
            return residual, lambda keep: self._linearize(owners, savings, e, keep, read)

        result = self.batch_solver.solve(evaluate, self.savings_guess(cash, guesses))
        savings, stalled = result.x, ~result.converged
        for i, model in enumerate(self.models):
            mine, totals = np.broadcast_to(member == i, X.shape[:1]), model.system.totals
            totals["rows"] += int(mine.sum())
            totals["stalled"] += int(stalled[mine].sum())
            totals["residual_calls"] += result.residual_evaluations
            totals["newton_runs"] += 1
        values = self._values(z, member, cash, savings, read)
        return np.concatenate([savings, values], axis=1)
