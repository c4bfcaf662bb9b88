"""Round-trip serialization of grids, policy sets and results."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.policy import PolicySet, StatePolicy
from repro.core.time_iteration import (
    IterationRecord,
    TimeIterationConfig,
    TimeIterationResult,
    TimeIterationSolver,
)
from repro.grids.adaptive import AdaptiveRefiner
from repro.grids.domain import BoxDomain
from repro.grids.hierarchize import hierarchize
from repro.grids.regular import regular_sparse_grid
from repro.scenarios import serialize
from repro.scenarios.checkpoint import InterruptingCheckpoint, SimulatedKill, SolveCheckpoint


def _kinked(X):
    return np.abs(X[:, 0] - 0.4) + 0.25 * X[:, 1]


class TestGridRoundTrip:
    def test_regular_grid(self, tmp_path):
        grid = regular_sparse_grid(3, 4)
        path = tmp_path / "grid.npz"
        serialize.save_grid(path, grid)
        loaded = serialize.load_grid(path)
        assert loaded.dim == grid.dim
        assert np.array_equal(loaded.levels, grid.levels)
        assert np.array_equal(loaded.indices, grid.indices)
        assert np.array_equal(loaded.points, grid.points)

    def test_adaptive_grid_row_order_preserved(self, tmp_path):
        refiner = AdaptiveRefiner(epsilon=1e-2, max_level=5, max_points=200)
        grid, _surplus = refiner.build(_kinked, dim=2, initial_level=2)
        assert grid.version > 0  # refinement actually happened
        path = tmp_path / "adaptive.npz"
        serialize.save_grid(path, grid)
        loaded = serialize.load_grid(path)
        assert np.array_equal(loaded.levels, grid.levels)
        assert np.array_equal(loaded.indices, grid.indices)

    def test_caches_dropped_on_load(self, tmp_path):
        grid = regular_sparse_grid(2, 3)
        grid.cached_derived("probe", lambda g: object())  # populate a derived cache
        path = tmp_path / "grid.npz"
        serialize.save_grid(path, grid)
        loaded = serialize.load_grid(path)
        assert loaded.version == 0
        assert "probe" not in loaded._derived_caches
        assert loaded._points_cache is None

    def test_wrong_payload_rejected(self, tmp_path):
        grid = regular_sparse_grid(2, 2)
        path = tmp_path / "grid.npz"
        serialize.save_grid(path, grid)
        with pytest.raises(ValueError, match="policy-set"):
            serialize.load_policy_set(path)


def _make_policy_set(shared_grid: bool) -> tuple:
    dim = 2
    domain = BoxDomain(np.array([0.5, 0.0]), np.array([2.0, 1.5]))
    grid = regular_sparse_grid(dim, 3)
    policies = []
    for z in range(3):
        g = grid if shared_grid else grid.copy()
        X = domain.from_unit(g.points)
        values = np.stack([np.sin(z + X[:, 0]), X[:, 1] ** 2, X.sum(axis=1)], axis=1)
        policies.append(StatePolicy.from_values(z, g, values, domain))
    return PolicySet(policies), domain


class TestPolicySetRoundTrip:
    @pytest.mark.parametrize("shared_grid", [True, False])
    def test_bit_exact_evaluation(self, tmp_path, shared_grid):
        pset, domain = _make_policy_set(shared_grid)
        path = tmp_path / "pset.npz"
        serialize.save_policy_set(path, pset)
        loaded = serialize.load_policy_set(path)
        rng = np.random.default_rng(0)
        X = domain.from_unit(rng.random((40, 2)))
        for z in range(len(pset)):
            assert np.array_equal(loaded.evaluate(z, X), pset.evaluate(z, X))
            assert np.array_equal(loaded[z].nodal_values, pset[z].nodal_values)
            assert np.array_equal(
                loaded[z].interpolant.surplus, pset[z].interpolant.surplus
            )

    def test_shared_grid_stays_shared(self, tmp_path):
        pset, _ = _make_policy_set(shared_grid=True)
        path = tmp_path / "pset.npz"
        serialize.save_policy_set(path, pset)
        loaded = serialize.load_policy_set(path)
        grids = {id(p.grid) for p in loaded}
        assert len(grids) == 1  # cache-sharing property preserved

    def test_distinct_grids_stay_distinct(self, tmp_path):
        pset, _ = _make_policy_set(shared_grid=False)
        path = tmp_path / "pset.npz"
        serialize.save_policy_set(path, pset)
        loaded = serialize.load_policy_set(path)
        grids = {id(p.grid) for p in loaded}
        assert len(grids) == len(pset)

    def test_scalar_surplus_shape_preserved(self, tmp_path):
        grid = regular_sparse_grid(2, 3)
        domain = BoxDomain.cube(2)
        surplus = hierarchize(grid, grid.points[:, 0] ** 2).reshape(-1)
        sp = StatePolicy.from_surplus(0, grid, surplus, grid.points[:, 0] ** 2, domain)
        pset = PolicySet([sp])
        path = tmp_path / "scalar.npz"
        serialize.save_policy_set(path, pset)
        loaded = serialize.load_policy_set(path)
        assert loaded[0].interpolant.surplus.ndim == 1
        X = np.random.default_rng(1).random((10, 2))
        assert np.array_equal(loaded.evaluate(0, X), pset.evaluate(0, X))


class TestResultRoundTrip:
    def test_records_config_and_policy(self, tmp_path, solved_small_olg):
        model, result = solved_small_olg
        path = tmp_path / "result.npz"
        serialize.save_result(path, result)
        loaded = serialize.load_result(path)
        assert loaded.converged == result.converged
        assert loaded.iterations == result.iterations
        assert serialize.config_to_dict(loaded.config) == serialize.config_to_dict(
            result.config
        )
        for mine, theirs in zip(loaded.records, result.records):
            assert serialize.record_to_dict(mine) == serialize.record_to_dict(theirs)
        assert np.array_equal(loaded.error_history(), result.error_history())
        X = model.domain.sample(25, rng=3)
        for z in range(model.num_states):
            assert np.array_equal(
                loaded.policy.evaluate(z, X), result.policy.evaluate(z, X)
            )

    def test_record_round_trip_with_diagnostics(self):
        record = IterationRecord(
            iteration=3,
            policy_change_linf=0.5,
            policy_change_l2=0.1,
            points_per_state=[7, 9],
            wall_time=1.25,
            policy_change_rel_linf=0.05,
            policy_change_rel_l2=0.01,
            sections={"solve": 1.0, "fit": 0.25},
            equilibrium_errors={"linf": 0.2, "l2": 0.1},
        )
        clone = serialize.record_from_dict(serialize.record_to_dict(record))
        assert serialize.record_to_dict(clone) == serialize.record_to_dict(record)

    def test_config_round_trip(self):
        config = TimeIterationConfig(grid_level=3, adaptive=True, refine_epsilon=5e-3)
        clone = serialize.config_from_dict(serialize.config_to_dict(config))
        assert clone == config

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        pset, _ = _make_policy_set(True)
        result = TimeIterationResult(
            policy=pset, records=[], converged=False, config=TimeIterationConfig()
        )
        path = tmp_path / "r.npz"
        serialize.save_result(path, result)
        serialize.save_result(path, result)  # overwrite path also atomic
        assert [p.name for p in tmp_path.iterdir()] == ["r.npz"]


def _in_the_older_format(path) -> None:
    """Rewrite a file :mod:`serialize` wrote the way it was written while the solver
    took a kernel name: the retired fields in the config, a kernel per state."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
        meta = json.loads(str(data["__meta__"]))
    assert meta["format_version"] == serialize.FORMAT_VERSION
    if "config" in meta:
        meta["config"].update(kernel="cuda", warm_start=True, verbose=False, damping=1.0)
    for state in meta["states"]:
        state["kernel"] = "cuda"
    buf = io.BytesIO()
    np.savez_compressed(buf, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)
    path.write_bytes(buf.getvalue())


class TestOlderFormat:
    """Results and checkpoints written while the solver took a kernel name stay readable."""

    def test_a_policy_set_loads(self, tmp_path):
        pset, domain = _make_policy_set(shared_grid=True)
        path = tmp_path / "pset.npz"
        serialize.save_policy_set(path, pset)
        _in_the_older_format(path)
        loaded = serialize.load_policy_set(path)
        X = domain.from_unit(np.random.default_rng(4).random((20, 2)))
        for z in range(len(pset)):
            assert np.array_equal(loaded.evaluate(z, X), pset.evaluate(z, X))

    def test_a_result_loads(self, tmp_path, solved_small_olg):
        model, result = solved_small_olg
        path = tmp_path / "result.npz"
        serialize.save_result(path, result)
        _in_the_older_format(path)
        loaded = serialize.load_result(path)
        assert loaded.config == result.config
        assert loaded.iterations == result.iterations and loaded.converged == result.converged
        for mine, theirs in zip(loaded.policy, result.policy):
            assert np.array_equal(mine.interpolant.surplus, theirs.interpolant.surplus)
        X = model.domain.sample(25, rng=3)
        for z in range(model.num_states):
            assert np.array_equal(loaded.policy.evaluate(z, X), result.policy.evaluate(z, X))

    def test_a_checkpoint_resumes_bit_exact(self, tmp_path, solved_small_olg):
        model, reference = solved_small_olg
        config = reference.config
        path = tmp_path / "ckpt.npz"
        with pytest.raises(SimulatedKill):
            TimeIterationSolver(model, config).solve(
                checkpoint=InterruptingCheckpoint(path, config=config, interrupt_after=2)
            )
        _in_the_older_format(path)
        hook = SolveCheckpoint(path, config=config)
        resumed = TimeIterationSolver(model, config).solve(checkpoint=hook)
        assert hook.resumed
        assert resumed.iterations == reference.iterations
        assert np.array_equal(resumed.error_history(), reference.error_history())
        for mine, theirs in zip(resumed.policy, reference.policy):
            assert np.array_equal(mine.interpolant.surplus, theirs.interpolant.surplus)
