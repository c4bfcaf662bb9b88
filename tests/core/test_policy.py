"""Tests for StatePolicy / PolicySet containers."""

import numpy as np
import pytest

from repro.core.policy import PolicySet, StatePolicy
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
        "shared, kernel, passes", [(True, "cuda", 1), (True, "x86", 0), (False, "cuda", 0)]
    )
    def test_evaluate_all_states_is_one_basis_pass_on_a_shared_grid(
        self, monkeypatch, shared, kernel, passes
    ):
        from repro.core import kernels

        first = _make_policy(0)
        grid, domain = first.grid, first.interpolant.domain
        policies = []
        for z in range(3):
            own = grid if shared else regular_sparse_grid(3, 3)
            values = (z + 1.0) * first.nodal_values
            policies.append(StatePolicy.from_values(z, own, values, domain, kernel=kernel))
        ps = PolicySet(policies)
        calls = []
        real = kernels.basis_matrix
        monkeypatch.setattr(kernels, "basis_matrix", lambda *args: calls.append(1) or real(*args))
        X = np.random.default_rng(3).random((9, 3)) * 2.0
        out = ps.evaluate_all_states(X, states=[2, 0])
        # the shared read is the cuda kernel's GEMM; other kernels and states
        # that own their grids are evaluated state by state
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

    def test_distance_with_fixed_sample(self):
        a = PolicySet([_make_policy(0, scale=1.0)])
        b = PolicySet([_make_policy(0, scale=1.2)])
        sample = a[0].interpolant.domain.sample(20, rng=3)
        d = a.distance(b, sample=sample)
        assert d["linf"] > 0.0

    def test_distance_state_count_mismatch(self):
        a = PolicySet([_make_policy(0)])
        b = PolicySet([_make_policy(0), _make_policy(1)])
        with pytest.raises(ValueError):
            a.distance(b)
