"""Tests for StatePolicy / PolicySet containers."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.policy import PolicySet, StatePolicy
from repro.grids.adaptive import refine
from repro.grids.domain import BoxDomain
from repro.grids.regular import regular_sparse_grid


def _make_policy(state, dim=3, level=3, num_policies=4, scale=1.0):
    grid = regular_sparse_grid(dim, level)
    domain = BoxDomain.cube(dim, 0.0, 2.0)
    X = domain.from_unit(grid.points)
    values = np.stack(
        [scale * (X[:, 0] + k * 0.1 * X[:, dim - 1]) for k in range(num_policies)], axis=1
    )
    return StatePolicy.from_values(state, grid, values, domain)


def _interpolated_distance(a: PolicySet, b: PolicySet) -> dict:
    """The distance of ``a`` to ``b``, both interpolated at ``a``'s grid points."""
    diffs, rels = [], []
    for mine, prev in zip(a, b):
        X = mine.interpolant.domain.from_unit(mine.grid.points)
        old = prev(X)
        diffs.append(np.abs(mine(X) - old).ravel())
        rels.append(diffs[-1] / (1.0 + np.abs(old).ravel()))
    diff, rel = np.concatenate(diffs), np.concatenate(rels)
    return {
        "linf": diff.max(),
        "l2": np.sqrt(np.mean(diff**2)),
        "rel_linf": rel.max(),
        "rel_l2": np.sqrt(np.mean(rel**2)),
    }


def _count_basis_passes(monkeypatch) -> list:
    """Record every factor-table evaluation: each kernel, ``basis_matrix`` included, makes one."""
    calls = []
    real = kernels.factor_values
    monkeypatch.setattr(kernels, "factor_values", lambda *args: calls.append(1) or real(*args))
    return calls


class TestStatePolicy:
    def test_exact_at_grid_points(self):
        policy = _make_policy(0)
        X = policy.interpolant.domain.from_unit(policy.grid.points)
        np.testing.assert_allclose(policy(X), policy.nodal_values, atol=1e-10)

    def test_num_properties(self):
        policy = _make_policy(1, num_policies=6)
        assert policy.num_policies == 6
        assert policy.num_points == len(policy.grid)
        assert policy.state == 1

    def test_values_rows_mismatch(self):
        grid = regular_sparse_grid(2, 2)
        with pytest.raises(ValueError):
            StatePolicy.from_values(0, grid, np.zeros((3, 2)), BoxDomain.cube(2))


class TestPolicySet:
    def test_basic_protocol(self):
        ps = PolicySet([_make_policy(0), _make_policy(1, scale=2.0)])
        assert len(ps) == 2
        assert ps.num_states == 2
        assert ps.num_policies == 4
        assert ps[1].state == 1
        assert ps.total_points == sum(ps.points_per_state)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            PolicySet([])

    def test_inconsistent_policies_raise(self):
        with pytest.raises(ValueError):
            PolicySet([_make_policy(0, num_policies=4), _make_policy(1, num_policies=3)])

    def test_evaluate_all_states_shape(self):
        ps = PolicySet([_make_policy(0), _make_policy(1)])
        X = np.random.default_rng(0).random((9, 3)) * 2.0
        out = ps.evaluate_all_states(X)
        assert out.shape == (2, 9, 4)
        np.testing.assert_allclose(out[0], np.atleast_2d(ps.evaluate(0, X)))

    @pytest.mark.parametrize(
        "shared, box, passes", [(True, True, 1), (False, True, 0), (True, False, 0)]
    )
    def test_evaluate_all_states_is_one_basis_pass_on_a_shared_grid(
        self, monkeypatch, shared, box, passes
    ):
        first = _make_policy(0)
        grid, domain = first.grid, first.interpolant.domain
        policies = []
        for z in range(3):
            own = grid if shared else regular_sparse_grid(3, 3)
            own_box = domain if box or z == 0 else BoxDomain.cube(3, 0.0, 2.0 + z)
            values = (z + 1.0) * first.nodal_values
            policies.append(StatePolicy.from_values(z, own, values, own_box))
        ps = PolicySet(policies)
        calls = []
        real = kernels.basis_matrix
        monkeypatch.setattr(kernels, "basis_matrix", lambda *args: calls.append(1) or real(*args))
        X = np.random.default_rng(3).random((9, 3)) * 2.0
        out = ps.evaluate_all_states(X, states=[2, 0])
        # states on their own grids or boxes are evaluated state by state
        assert len(calls) == passes
        assert out.shape == (2, 9, 4)
        for got, z in zip(out, (2, 0)):
            np.testing.assert_allclose(got, ps.evaluate(z, X), rtol=0, atol=1e-13)
        point = ps.evaluate_all_states(X[0])
        assert point.shape == (3, 4)
        np.testing.assert_allclose(point[1], ps.evaluate(1, X[0]), rtol=0, atol=1e-13)

    def test_distance_zero_for_identical(self):
        ps = PolicySet([_make_policy(0), _make_policy(1)])
        d = ps.distance(ps)
        assert d["linf"] == pytest.approx(0.0, abs=1e-12)
        assert d["rel_linf"] == pytest.approx(0.0, abs=1e-12)

    def test_distance_detects_difference(self):
        a = PolicySet([_make_policy(0, scale=1.0)])
        b = PolicySet([_make_policy(0, scale=1.5)])
        d = a.distance(b)
        assert d["linf"] > 0.1
        assert d["l2"] > 0.0
        assert d["rel_linf"] <= d["linf"]

    def test_distance_on_one_grid_reads_nodal_values(self, monkeypatch):
        a = PolicySet([_make_policy(0, scale=1.0), _make_policy(1, scale=0.5)])
        b = PolicySet([_make_policy(0, scale=1.2), _make_policy(1, scale=0.7)])
        expected = _interpolated_distance(a, b)
        calls = _count_basis_passes(monkeypatch)
        d = a.distance(b)
        assert calls == []
        for key, value in expected.items():
            assert d[key] == pytest.approx(value, rel=0, abs=1e-13)

    def test_distance_to_a_coarser_grid_interpolates(self, monkeypatch):
        coarse = _make_policy(0, level=2, scale=1.2)
        grid = coarse.grid.copy()
        refine(grid, coarse.interpolant.surplus, epsilon=0.0)
        assert len(grid) > len(coarse.grid)
        domain = coarse.interpolant.domain
        X = domain.from_unit(grid.points)
        values = np.stack([X[:, 0] ** 2 + k * X[:, 2] for k in range(4)], axis=1)
        a = PolicySet([StatePolicy.from_values(0, grid, values, domain)])
        b = PolicySet([coarse])
        expected = _interpolated_distance(a, b)
        calls = _count_basis_passes(monkeypatch)
        d = a.distance(b)
        assert len(calls) == 1  # the coarse iterate at the refined grid's points
        for key, value in expected.items():
            assert d[key] == pytest.approx(value, rel=0, abs=1e-13)

    def test_distance_of_a_nan_value_is_nan(self):
        clean = _make_policy(1)
        values = clean.nodal_values.copy()
        values[3, 2] = np.nan
        broken = StatePolicy.from_values(1, clean.grid, values, clean.interpolant.domain)
        a = PolicySet([_make_policy(0), broken])
        b = PolicySet([_make_policy(0), _make_policy(1)])
        d = a.distance(b)
        # never "< tolerance": a NaN iterate cannot pass for converged
        assert np.isnan(d["linf"])
        assert np.isnan(d["rel_linf"])
        assert np.isnan(d["per_state_linf"][1])

    def test_distance_state_count_mismatch(self):
        a = PolicySet([_make_policy(0)])
        b = PolicySet([_make_policy(0), _make_policy(1)])
        with pytest.raises(ValueError):
            a.distance(b)
