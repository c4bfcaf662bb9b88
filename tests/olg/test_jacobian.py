"""The exact Jacobian of the point solve, from the policy read's gradient.

* :func:`repro.core.kernels.basis_gradient` is the derivative of the basis
  the forward difference of :func:`~repro.core.kernels.basis_matrix` sees;
* a policy read's gradient is the forward difference of the read;
* ``EulerSystem._linearize`` of an ``_euler`` evaluation is the
  forward-difference Jacobian of the Fischer–Burmeister residual on every
  row away from a kink, for one model and for a stack, and the evaluation's
  residual is the public one bit for bit;
* a Newton run with an exact Jacobian evaluates each point once, one call
  an iteration and one a halving round, and steps from the points it
  linearized — for the OLG run at the rows it keeps, to rounding the
  Jacobian a fresh evaluation there gives — and no linearization outlives
  the run;
* the closed-form ``d/dK`` of prices, budget and incomes and the CRRA ``u''``.
"""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedTimeIterationSolver
from repro.core.compression import compress_grid
from repro.core.kernels import basis_gradient, basis_matrix, hats
from repro.core.policy import PolicyRead, PolicySet, StatePolicy
from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.grids.adaptive import refine
from repro.grids.domain import BoxDomain
from repro.grids.interpolation import evaluate_stacked
from repro.grids.regular import regular_sparse_grid
from repro.olg.calibration import small_calibration
from repro.olg.government import FiscalPolicy
from repro.olg.model import OLGModel
from repro.olg.preferences import CRRAUtility
from repro.olg.production import CobbDouglasTechnology
from repro.olg import solver as olg_solver
from repro.olg.solver import _HALVINGS, BatchNewtonSolver

SLOW = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _dense(slopes, points, dims, shape):
    """The scattered ``(m, dim, num_points)`` gradient, for small grids in tests only."""
    dense = np.zeros(shape)
    dense[:, dims, points] = slopes
    return dense


def _grid(dim, level, refined):
    grid = regular_sparse_grid(dim, level)
    if refined:
        rng = np.random.default_rng(2)
        for _ in range(2):
            refine(grid, rng.standard_normal(len(grid)), epsilon=1.0)
    return grid


def _off_kinks(U, comp, step):
    """Rows whose every coordinate is more than a step from a hat kink.

    Every hat of level ``l`` bends at multiples of ``2**(1 - l)``, so the
    finest level present bounds them all.
    """
    spacing = 2.0 ** (1 - int(comp.xps_levels.max()))
    distance = np.abs(U / spacing - np.round(U / spacing)) * spacing
    return np.all(distance > 2 * step, axis=1)


# --------------------------------------------------------------------------- #
# the basis and the read
# --------------------------------------------------------------------------- #
@SLOW
@given(
    dim=st.integers(1, 4),
    level=st.integers(2, 4),
    refined=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_basis_gradient_is_the_difference_of_the_basis(dim, level, refined, seed):
    comp = compress_grid(_grid(dim, level, refined))
    step = 1e-7
    U = np.random.default_rng(seed).random((40, dim)) * (1 - 4 * step)
    U = U[_off_kinks(U, comp, step)]
    slopes, points, dims = basis_gradient(comp, U)
    assert slopes.shape[1] <= comp.nfreq * comp.num_points
    dense = _dense(slopes, points, dims, (len(U), dim, comp.num_points))
    base = basis_matrix(comp, U)
    for b in range(dim):
        shifted = U.copy()
        shifted[:, b] += step
        difference = (basis_matrix(comp, shifted) - base) / step
        np.testing.assert_allclose(dense[:, b], difference, rtol=0, atol=1e-6 * 2.0**level)


def test_basis_gradient_is_taken_from_the_right_at_a_kink():
    comp = compress_grid(regular_sparse_grid(1, 3))
    # a level-3 hat's centre, where the level-2 and level-3 supports end, the box edge
    at = np.array([[0.25], [0.5], [0.0]])
    slopes, points, dims = basis_gradient(comp, at)
    dense = _dense(slopes, points, dims, (3, 1, comp.num_points))[:, 0]
    step = 2.0**-30  # exact in binary: the difference quotient has no rounding
    forward = (basis_matrix(comp, at + step) - basis_matrix(comp, at)) / step
    np.testing.assert_array_equal(dense, forward)


def test_a_grid_of_the_root_alone_has_no_gradient():
    comp = compress_grid(regular_sparse_grid(3, 1))
    slopes, points, dims = basis_gradient(comp, np.full((2, 3), 0.3))
    assert slopes.shape == (2, 0) and points.size == 0 and dims.size == 0


@pytest.mark.parametrize("adaptive", [False, True])
def test_the_read_gradient_is_the_difference_of_the_read(adaptive):
    """Weighted over states, in box coordinates; per-state grids take the state-by-state branch."""
    model = OLGModel(small_calibration(num_generations=4, num_states=2))
    solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=3))
    policy = solver.step(solver.initial_policy())
    if adaptive:
        policy = PolicySet(
            [
                StatePolicy.from_surplus(
                    s, sp.grid.copy(), sp.interpolant.surplus, sp.nodal_values, model.domain
                )
                for s, sp in enumerate(policy)
            ]
        )
    read = PolicyRead([policy])
    assert (read.shared is None) == adaptive
    rng = np.random.default_rng(0)
    step = 1e-7
    comp = compress_grid(policy[0].grid)
    U = 0.05 + 0.9 * rng.random((60, model.state_dim))
    U = U[_off_kinks(U, comp, step)]
    X = model.domain.from_unit(U)
    columns = (0, 2)  # savings: a pick that skips a column
    weights = rng.standard_normal((2, len(X), len(columns)))
    values = read((0, 1), 0, X, columns)
    np.testing.assert_array_equal(values, read((0, 1), 0, X)[..., list(columns)])
    rows = read.rows(0, X)
    exact = read.gradient((0, 1), rows, columns, weights)
    keep = np.arange(0, len(X), 3)
    # to 8 ulp of the largest entry, not bit for bit: BLAS may sum a block of
    # another height in another order, and a lone kept row goes through gemv
    got = read.gradient((0, 1), rows.take(keep), columns, weights[:, keep])
    assert np.all(np.abs(got - exact[keep]) <= 8 * np.finfo(float).eps * np.abs(exact).max())
    for b in range(model.state_dim):
        h = step * model.domain.widths[b]
        shifted = X.copy()
        shifted[:, b] += h
        difference = (read((0, 1), 0, shifted, columns) - values) / h
        np.testing.assert_allclose(
            exact[:, :, b], (weights * difference).sum(axis=0), rtol=1e-5, atol=1e-6
        )


def test_a_basis_pass_from_kept_hats_is_the_pass_at_those_points():
    """``basis_matrix`` / ``basis_gradient`` take the hats taken once, or some of their rows."""
    comp = compress_grid(_grid(3, 3, True))
    U = np.random.default_rng(7).random((20, 3))
    taken = hats(comp, U)
    assert np.array_equal(basis_matrix(comp, taken), basis_matrix(comp, U))
    keep = np.arange(1, 20, 3)
    for got, want in zip(basis_gradient(comp, taken.take(keep)), basis_gradient(comp, U[keep])):
        assert np.array_equal(got, want)


def _stacked_read(boxes, counts, seed=3):
    """Three models' two-state policies on one grid, each on its box, and rows of each box."""
    grid = regular_sparse_grid(3, 3)
    rng = np.random.default_rng(seed)
    policies = [
        PolicySet(
            [
                StatePolicy.from_values(s, grid, rng.standard_normal((len(grid), 4)), box)
                for s in range(2)
            ]
        )
        for box in boxes
    ]
    member = np.repeat(np.arange(len(boxes)), counts)
    X = np.concatenate([box.from_unit(rng.random((n, 3))) for box, n in zip(boxes, counts)])
    return policies, member, X


def test_the_record_reads_and_differentiates_at_kept_rows_across_blocks():
    """A record serves reads and gradients at any increasing rows.

    Its read is ``evaluate_stacked`` on the same blocks, bit for bit; its
    gradient at kept rows — every third, across the models' block bounds,
    with one model's block emptied — is the full gradient's rows, from the
    same hats, to the last bits the GEMMs give: BLAS sums a block of other
    height in another order, and a lone row goes through gemv.
    """
    boxes = [BoxDomain.cube(3, 0.0, 1.0 + b) for b in range(3)]
    counts = (7, 5, 9)
    policies, member, X = _stacked_read(boxes, counts)
    read = PolicyRead(policies)
    rows = read.rows(member, X)
    assert rows.groups == [0, 1, 2] and rows.bounds.tolist() == [0, 7, 12, 21]
    values = read.read((0, 1), rows)
    blocks = np.split(X, np.cumsum(counts)[:-1])
    once = evaluate_stacked([[sp.interpolant for sp in ps] for ps in policies], blocks)
    for block, per_state in zip(np.split(np.arange(len(X)), np.cumsum(counts)[:-1]), once):
        for s, alone in enumerate(per_state):
            assert np.array_equal(values[s, block], alone)
    columns = (0, 2, 3)
    weights = np.random.default_rng(4).standard_normal((2, len(X), len(columns)))
    full = read.gradient((0, 1), rows, columns, weights)
    for keep in (np.arange(0, len(X), 3), np.r_[0:7, 12:21], np.r_[5:9, 20]):
        kept = rows.take(keep)
        if keep.size == 16:  # model 1's block is empty
            assert np.diff(kept.bounds).tolist() == [7, 0, 9]
        got = read.gradient((0, 1), kept, columns, weights[:, keep])
        assert np.all(np.abs(got - full[keep]) <= 8 * np.finfo(float).eps * np.abs(full).max())


def test_the_per_state_record_reads_and_differentiates_at_kept_rows():
    """Per-state grids (adaptive): the record keeps each state's unit coordinates, on its box."""
    (shared,), _, X = _stacked_read([BoxDomain.cube(3, 0.0, 2.0)], (12,))
    boxes = (shared[0].interpolant.domain, BoxDomain.cube(3, -1.0, 1.0))
    own = PolicySet(
        [
            StatePolicy.from_values(s, sp.grid.copy(), sp.nodal_values, box)
            for s, (sp, box) in enumerate(zip(shared, boxes))
        ]
    )
    read = PolicyRead([own])
    assert read.shared is None
    rows = read.rows(0, X)
    values = read.read((1, 0), rows)
    assert np.array_equal(values[0], own[1](X)) and np.array_equal(values[1], own[0](X))
    columns = (1, 3)
    weights = np.random.default_rng(5).standard_normal((2, len(X), len(columns)))
    full = read.gradient((1, 0), rows, columns, weights)
    keep = np.arange(1, len(X), 3)
    got = read.gradient((1, 0), rows.take(keep), columns, weights[:, keep])
    assert np.all(np.abs(got - full[keep]) <= 8 * np.finfo(float).eps * np.abs(full).max())


# --------------------------------------------------------------------------- #
# the Euler system's Jacobian
# --------------------------------------------------------------------------- #
def _system(calibration, level, stacked, passes, lower_savings=0.0):
    """A system over every node of every state (a stack of two when ``stacked``), and
    the policies ``passes`` steps on, on one grid, their savings lowered by
    ``lower_savings`` times their mean so that some fall below zero."""
    cal = small_calibration(**calibration)
    models = [OLGModel(cal)]
    if stacked:
        models.append(OLGModel(dataclasses.replace(cal, beta=0.85)))
    grid = regular_sparse_grid(models[0].state_dim, level)
    policies = []
    for model in models:
        solver = TimeIterationSolver(model, TimeIterationConfig(grid_level=level))
        policy = solver.initial_policy()
        for _ in range(passes):
            policy = solver.step(policy)
        policy = BatchedTimeIterationSolver._reanchor(policy, grid)
        if lower_savings:
            ns = model.num_savers
            shifted = []
            for sp in policy:
                values = sp.nodal_values.copy()
                values[:, :ns] -= lower_savings * values[:, :ns].mean()
                shifted.append(StatePolicy.from_values(sp.state, grid, values, model.domain))
            policy = PolicySet(shifted)
        policies.append(policy)
    num_states, n = models[0].num_states, len(grid)
    group = OLGModel.stacked_group(models, [num_states * n] * len(models))
    system, member = group.system, group.member
    z = np.tile(np.repeat(np.arange(num_states), n), len(models))
    X = np.concatenate(
        [np.tile(m.domain.from_unit(grid.points), (num_states, 1)) for m in models]
    )
    return system, z, member, X, policies, compress_grid(grid)


#: the forward difference's relative step: small, so that Fischer–Burmeister's
#: curvature near its corner leaves the quotient within 1e-5
_STEP = 1e-9


def _jacobian(system, z, member, cash, savings, read):
    """The Euler gaps and the exact Jacobian at every row: ``_euler``, then ``_linearize``."""
    e = system._euler(z, member, cash, savings, read)
    return e.gap, system._linearize(member, savings, e, np.arange(len(savings)), read)


def _fischer_burmeister(system, z, member, cash, savings, read):
    gap = system._residuals(z, member, cash, savings, read)
    return savings + gap - np.hypot(savings, gap)


def _interior(system, z, member, cash, savings, read, comp, steps):
    """Rows more than a step from every kink a forward difference could cross.

    The kinks: the box clip of tomorrow's state, the hats' kinks at it,
    ``max(P, 0)`` of tomorrow's savings, the consumption floor, and
    Fischer–Burmeister's corner ``s = gap = 0``.  A state clipped onto the
    box does not move, so its hats' kinks do not count.
    """
    lower, upper = system.lower[member], system.upper[member]
    width = upper - lower
    margin = 4 * steps / width
    U = (savings - lower) / width
    inside = (U > margin) & (U < 1 - margin)
    keep = np.all(inside | (U < -margin) | (U > 1 + margin), axis=1)
    spacing = 2.0 ** (1 - int(comp.xps_levels.max()))
    distance = np.abs(U / spacing - np.round(U / spacing)) * spacing
    keep &= np.all(~inside | (distance > margin), axis=1)  # a clipped state does not move
    e = system._euler(z, member, cash, savings, read)
    keep &= np.all(np.abs(e.saved) > 1e-4, axis=(0, 2))
    keep &= np.all(e.cons_next > 10 * system.utility.c_min, axis=(0, 2))
    # Fischer–Burmeister's curvature, ~1 / hypot(s, gap), bends a forward
    # difference near its corner by ~step / hypot
    keep &= np.all(np.hypot(savings, e.gap) > 1e-2, axis=1)
    return keep


jacobian_calibrations = st.fixed_dictionaries(
    {
        "num_generations": st.integers(4, 8),
        "num_states": st.integers(1, 2),
        "beta": st.floats(0.8, 0.95),
        "tau_labor": st.floats(0.05, 0.3),
        "tau_capital": st.floats(0.0, 0.2),
    }
)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    calibration=jacobian_calibrations,
    level=st.integers(2, 3),
    stacked=st.booleans(),
    passes=st.integers(0, 2),
    lower_savings=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**31 - 1),
)
def test_the_exact_jacobian_is_the_forward_difference(
    calibration, level, stacked, passes, lower_savings, seed
):
    """The exact Jacobian matches forward differences of the residual to 1e-5 on interior rows.

    Its residual is the public Fischer–Burmeister residual bit for bit.
    Lowered policies put some of tomorrow's savings below zero, where
    ``max(P, 0)`` cuts the read out of the Jacobian.
    """
    system, z, member, X, policies, comp = _system(
        calibration, level, stacked, passes, lower_savings
    )
    read = PolicyRead(policies)
    cash = system.resources(z, member, X)
    savings = _candidates(system, member, np.random.default_rng(seed))
    steps = _STEP * np.maximum(np.abs(savings), 1.0)
    rows = np.flatnonzero(_interior(system, z, member, cash, savings, read, comp, steps))
    z, member, cash, savings, steps = z[rows], member[rows], cash[rows], savings[rows], steps[rows]
    gap, exact = _jacobian(system, z, member, cash, savings, read)
    residual = _fischer_burmeister(system, z, member, cash, savings, read)
    assert np.array_equal(residual, savings + gap - np.hypot(savings, gap))
    scale = np.abs(exact).max(axis=(1, 2), initial=0.0)[:, None]
    for b in range(savings.shape[1]):
        shifted = savings.copy()
        shifted[:, b] += steps[:, b]
        after = _fischer_burmeister(system, z, member, cash, shifted, read)
        difference = (after - residual) / steps[:, b : b + 1]
        assert np.all(np.abs(exact[:, :, b] - difference) <= 1e-5 * scale), b


def _candidates(system, member, rng):
    """Savings around the box: most coordinates inside it, some clipped."""
    lower, upper = system.lower[member], system.upper[member]
    return lower + (upper - lower) * rng.uniform(-0.1, 1.1, lower.shape)


def test_the_interior_rows_are_most_rows():
    """The property above is not vacuous: most candidate rows are interior."""
    system, z, member, X, policies, comp = _system({"num_generations": 6}, 3, True, 1)
    cash = system.resources(z, member, X)
    savings = _candidates(system, member, np.random.default_rng(0))
    steps = _STEP * np.maximum(np.abs(savings), 1.0)
    keep = _interior(system, z, member, cash, savings, PolicyRead(policies), comp, steps)
    assert keep.mean() > 0.9


def test_the_fischer_burmeister_corner_takes_the_generalized_element():
    """Where ``hypot(s, gap) = 0`` both partials are ``1 - 1/sqrt(2)``.

    The gap's own Jacobian does not depend on cash on hand, so the same row
    with more cash (``gap = -1``, partials 1 and 2) gives it.
    """
    system, z, member, X, policies, _ = _system({"num_generations": 4}, 2, False, 0)
    read = PolicyRead(policies)
    z, member = z[:1], member[:1]
    cash = system.resources(z, member, X[:1])
    savings = system.savings_guess(cash, None)
    savings[0, 0] = 0.0
    cash[0, 0] = system._euler(z, member, cash, savings, read).implied[0, 0]
    gap, corner = _jacobian(system, z, member, cash, savings, read)
    assert savings[0, 0] == gap[0, 0] == 0.0
    cash[0, 0] += 1.0
    gap, away = _jacobian(system, z, member, cash, savings, read)
    assert gap[0, 0] == -1.0
    unit = np.eye(savings.shape[1])[0]
    np.testing.assert_allclose(
        corner[0, 0], (1 - np.sqrt(0.5)) * ((away[0, 0] - unit) / 2 + unit), rtol=1e-12
    )


# --------------------------------------------------------------------------- #
# the Newton run
# --------------------------------------------------------------------------- #
class _Watch:
    """A Newton callback spy: every call's rows and candidates, every linearization taken.

    ``events`` lists ``("call", rows, X)`` and ``("linearize", rows, X, J,
    call)`` — the rows, candidates and Jacobians at the positions taken,
    and the index of the call they come from — in the order they happen.
    The spy holds the linearizations only weakly, and at every call counts
    those still alive.
    """

    def __init__(self, fn):
        self.fn, self.events, self.calls, self.alive_at_call, self._refs = fn, [], [], [], []

    def __call__(self, rows, X):
        self.alive_at_call.append(sum(ref() is not None for ref in self._refs))
        call, rows, X = len(self.calls), rows.copy(), X.copy()
        self.calls.append((rows, X))
        self.events.append(("call", rows, X))
        F, linearize = self.fn(rows, X)

        def watched(positions):
            J = linearize(positions)
            self.events.append(("linearize", rows[positions], X[positions], J.copy(), call))
            return J

        self._refs += [weakref.ref(linearize), weakref.ref(watched)]
        return F, watched

    def halving(self, call):
        rows = self.calls[call][0]
        return bool(rows.size) and np.unique(rows, return_counts=True)[1].max() > 1

    def linearized(self):
        return [e[1:] for e in self.events if e[0] == "linearize"]


def _watched_run(solve):
    """``solve()`` with ``BatchNewtonSolver.solve`` watched: its one run and the watch."""
    runs, watches, newton = [], [], BatchNewtonSolver.solve

    def watching(self, fn, x0):
        watches.append(_Watch(fn))
        runs.append(newton(self, watches[-1], x0))
        return runs[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BatchNewtonSolver, "solve", watching)
        solve()
    (run,), (watch,) = runs, watches
    return run, watch


def _check_one_evaluation_an_iteration(run, watch):
    """One call to start, one an iteration, one a halving round; no point twice;
    every linearization released once taken, and none outlives the run."""
    halvings = [watch.halving(c) for c in range(len(watch.calls))]
    assert run.residual_evaluations == len(watch.calls) == 1 + run.iterations + sum(halvings)
    for rows, _ in watch.calls:
        assert set(np.unique(rows, return_counts=True)[1].tolist()) <= {1, _HALVINGS.size}
    points = [(r, x.tobytes()) for rows, X in watch.calls for r, x in zip(rows.tolist(), X)]
    assert len(points) == len(set(points))
    # a full step's call finds every earlier linearization gone (the call's
    # and its spy's), a halving call the full step's at most
    for halving, alive in zip(halvings, watch.alive_at_call):
        assert alive <= (2 if halving else 0)
    assert all(ref() is None for ref in watch._refs)


@pytest.mark.parametrize("stacked", [False, True])
def test_an_olg_newton_run_linearizes_the_rows_it_keeps(stacked):
    """Each point is evaluated once, and its linearization is ``_jacobian`` there.

    Every call carries one candidate a row or a row's halvings, never its
    perturbed copies.  A start at twice the usual share of cash on hand
    makes a halving call, and the rows it serves are linearized from it.
    """
    system, z, member, X, policies, _ = _system({"num_generations": 5}, 2, stacked, 1)
    assert system.num_savers not in (1, _HALVINGS.size)
    cash = system.resources(z, member, X)
    guesses = np.concatenate([0.8 * cash, np.zeros_like(cash)], axis=1)
    run, watch = _watched_run(lambda: system.solve(z, member, X, policies, guesses))
    assert run.converged.all()
    _check_one_evaluation_an_iteration(run, watch)
    read = PolicyRead(policies)
    linearized = watch.linearized()
    assert any(watch.halving(call) for *_, call in linearized)
    for rows, savings, J, _ in linearized:
        assert np.all(np.diff(rows) > 0)  # one candidate a row
        _, fresh = _jacobian(system, z[rows], member[rows], cash[rows], savings, read)
        scale = np.abs(fresh).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(J - fresh) <= 1e-13 * scale)


def test_newton_steps_from_the_points_it_linearized(monkeypatch):
    """A synthetic system far from its root: halvings serve some rows, and every
    full step solves ``J(x) step = -F(x)`` at the point ``x`` linearized for it.

    ``arctan`` of a linear map: a full Newton step from far out overshoots.
    """
    rng = np.random.default_rng(0)
    m, n = 30, 3
    A = np.eye(n) + 0.2 * rng.standard_normal((m, n, n))
    root = rng.uniform(-1, 1, (m, n))

    def residual(rows, X):
        return np.arctan(np.einsum("rij,rj->ri", A[rows], X - root[rows]))

    def exact(rows, X):
        d = np.einsum("rij,rj->ri", A[rows], X - root[rows])
        return A[rows] / (1.0 + d**2)[:, :, None]

    def fn(rows, X):
        return residual(rows, X), lambda positions: exact(rows[positions], X[positions])

    monkeypatch.setattr(olg_solver, "MAX_STEP", 1e9)
    solver = BatchNewtonSolver()
    x0 = root + rng.uniform(-3, 3, (m, n))
    run, watch = _watched_run(lambda: solver.solve(fn, x0))
    assert run.converged.all()
    np.testing.assert_allclose(run.x, root, atol=1e-7)
    _check_one_evaluation_an_iteration(run, watch)
    assert any(watch.halving(call) for *_, call in watch.linearized())
    taken, steps = {}, 0
    for event in watch.events:
        if event[0] == "linearize":
            _, rows, X, J, _ = event
            taken.update(zip(rows.tolist(), zip(X, J)))
        elif taken:  # the full step taken from those points
            _, rows, X = event
            assert sorted(taken) == rows.tolist()
            for r, trial in zip(rows.tolist(), X):
                x, J = taken[r]
                F = residual(np.array([r]), x[None])[0]
                np.testing.assert_allclose(J @ (trial - x), -F, rtol=1e-9, atol=1e-12)
            taken, steps = {}, steps + 1
    assert steps == run.iterations


# --------------------------------------------------------------------------- #
# closed-form slopes
# --------------------------------------------------------------------------- #
def test_price_and_budget_slopes_are_the_derivatives_in_capital():
    tech, fiscal = CobbDouglasTechnology(theta=0.36), FiscalPolicy()
    K, L, zeta, delta, tau_l, tau_c = np.array([0.5, 2.0, 7.0]), 1.3, 1.02, 0.08, 0.2, 0.15
    h = 1e-6

    def fields(K):
        prices = tech.prices(K, L, zeta, delta)
        budget = fiscal.budget(tau_l, tau_c, prices.wage, L, prices.return_net, K, 6, 2)
        return prices, budget

    prices, budget = fields(K)
    price_slopes = tech.price_slopes(K, prices)
    budget_slopes = fiscal.budget_slope(
        tau_l, tau_c, price_slopes.wage, L, prices.return_net, price_slopes.return_net, K, 6, 2
    )
    after_prices, after_budget = fields(K + h)
    for exact, before, after in zip(
        (*price_slopes, *budget_slopes), (*prices, *budget), (*after_prices, *after_budget)
    ):
        np.testing.assert_allclose(exact, (after - before) / h, rtol=1e-5, atol=1e-9)
    below = tech.price_slopes(np.array([0.0]), tech.prices(np.array([0.0]), L, zeta, delta))
    assert all(np.all(field == 0.0) for field in below)


@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.5])
def test_marginal_utility_slope_is_the_derivative_of_marginal_utility(gamma):
    u = CRRAUtility(gamma=gamma, c_min=1e-3)
    c = np.array([-0.5, 1e-4, 1e-3, 0.02, 0.7, 3.0])
    h = 1e-9
    difference = (u.marginal_utility(c + h) - u.marginal_utility(c)) / h
    np.testing.assert_allclose(u.marginal_utility_slope(c), difference, rtol=1e-5)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_the_floor_branch_is_patched_in_place_bit_for_bit(gamma):
    """``utility`` / ``marginal_utility`` equal the whole-array ``where`` they replace."""
    u = CRRAUtility(gamma=gamma, c_min=1e-3)
    c = np.random.default_rng(0).uniform(-0.01, 0.01, 1000)
    cm = u.c_min
    safe = np.maximum(c, cm)
    base = np.log(safe) if gamma == 1.0 else (safe ** (1 - gamma) - 1) / (1 - gamma)
    du, d2u, delta = cm**-gamma, -gamma * cm ** (-gamma - 1.0), c - cm
    utility = np.where(c >= cm, base, base + du * delta + 0.5 * d2u * delta**2)
    marginal = np.where(c >= cm, safe**-gamma, du + d2u * delta)
    assert np.array_equal(u.utility(c), utility)
    assert np.array_equal(u.marginal_utility(c), marginal)
    assert u.utility(0.5).shape == () and u.marginal_utility(-1.0) == du + d2u * (-1.0 - cm)
