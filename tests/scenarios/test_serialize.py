"""Round-trip serialization of grids, policy sets and results."""

from __future__ import annotations

import dataclasses
import io
import json
import re
import zipfile

import numpy as np
import pytest

from repro.core.batched import BatchedTimeIterationSolver, BatchMember
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
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.scenarios import serialize
from repro.scenarios.runner import run_suite
from repro.scenarios.spec import ScenarioSpec, ScenarioSuite
from repro.scenarios.store import ResultsStore
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


def test_record_metadata_is_the_dataclass_fields():
    """``record_to_dict`` builds its dict field by field; the JSON it stores is the
    ``dataclasses.asdict`` document byte for byte."""
    record = IterationRecord(
        iteration=2,
        policy_change_linf=np.float64(0.5),
        policy_change_l2=0.125,
        points_per_state=[np.int64(7), 9],
        wall_time=0.75,
        policy_change_rel_linf=0.0625,
        sections={"grid": 0.01, "solve": 0.5, "fit": 0.24},
        equilibrium_errors={"linf": 0.2, "l2": 0.1, "mean_log10": -1.5, "num_evaluations": 14},
    )
    reference = dataclasses.asdict(record)
    reference["points_per_state"] = [7, 9]
    mine = serialize.record_to_dict(record)
    assert json.dumps(mine, sort_keys=True) == json.dumps(reference, sort_keys=True)
    assert list(mine) == [f.name for f in dataclasses.fields(IterationRecord)]
    mine["sections"]["fit"] = 0.0  # a copy: the record keeps its own
    assert record.sections["fit"] == 0.24


def _members(path) -> dict:
    """Each member of a saved file: name -> (zip entry, dtype kind of an array member)."""
    with zipfile.ZipFile(path) as archive:
        members = {}
        for info in archive.infolist():
            kind = None
            if info.filename.endswith(".npy"):
                with archive.open(info) as fh:
                    kind = np.lib.format.read_array(fh).dtype.kind
            members[info.filename] = (info, kind)
    return members


@pytest.fixture(scope="module")
def results(solved_small_olg):
    """A solo, a stacked-member and an adaptive result of 4-generation economies."""
    config = TimeIterationConfig(grid_level=2, tolerance=1e-3, max_iterations=4)
    members = [
        BatchMember(key=beta, model=OLGModel(small_calibration(4, 2, beta=beta)), config=config)
        for beta in (0.78, 0.8)
    ]
    stacked = BatchedTimeIterationSolver(members).solve()[0.8].result
    model = solved_small_olg[0]
    adaptive = TimeIterationSolver(
        model,
        TimeIterationConfig(
            grid_level=2, adaptive=True, max_refine_level=3, max_points_per_state=40,
            max_iterations=3,
        ),
    ).solve()
    assert max(adaptive.policy.points_per_state) > len(stacked.policy[0].grid)
    return {"solo": solved_small_olg[1], "stacked": stacked, "adaptive": adaptive}


KINDS = ["solo", "stacked", "adaptive"]


class TestFileLayout:
    """A file stores each number once: nodal values only, each grid and box once,
    floats raw, everything else deflated, the metadata as UTF-8 JSON."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_round_trip_keeps_every_bit(self, tmp_path, results, kind):
        result = results[kind]
        path = tmp_path / "result.npz"
        serialize.save_result(path, result)
        loaded = serialize.load_result(path)
        assert [serialize.record_to_dict(r) for r in loaded.records] == [
            serialize.record_to_dict(r) for r in result.records
        ]
        for mine, theirs in zip(loaded.policy, result.policy):
            assert np.array_equal(mine.interpolant.surplus, theirs.interpolant.surplus)
            assert np.array_equal(mine.nodal_values, theirs.nodal_values)
            assert np.array_equal(mine.grid.levels, theirs.grid.levels)
            assert np.array_equal(mine.grid.indices, theirs.grid.indices)
            assert np.array_equal(mine.interpolant.domain.lower, theirs.interpolant.domain.lower)
            assert np.array_equal(mine.interpolant.domain.upper, theirs.interpolant.domain.upper)

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_number_is_stored_twice(self, tmp_path, results, kind):
        result = results[kind]
        path = tmp_path / "result.npz"
        serialize.save_result(path, result)
        members = _members(path)
        assert not [name for name in members if name.startswith("surplus_")]
        for name, (info, dtype_kind) in members.items():
            raw = info.compress_type == zipfile.ZIP_STORED
            assert raw == (dtype_kind == "f"), name  # floats raw, the rest deflated
            assert info.date_time == (1980, 1, 1, 0, 0, 0), name
        # one model, one box; one grid object when the states share it
        assert {n for n in members if n.startswith(("lower_", "upper_"))} == {
            "lower_0.npy", "upper_0.npy"
        }
        grids = len({id(sp.grid) for sp in result.policy})
        assert len([n for n in members if n.startswith("levels_")]) == grids
        assert [n for n in members if n.startswith("nodal_")] == [
            f"nodal_{z}.npy" for z in range(len(result.policy))
        ]
        with zipfile.ZipFile(path) as archive:
            meta = json.loads(archive.read("__meta__").decode("utf-8"))
        assert meta["format_version"] == serialize.FORMAT_VERSION == 2
        assert meta == serialize.load_meta(path)

    def test_equal_results_serialize_to_equal_bytes(self, tmp_path, results):
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        serialize.save_result(first, results["stacked"], extra_meta={"spec_hash": "abc"})
        serialize.save_result(second, results["stacked"], extra_meta={"spec_hash": "abc"})
        assert first.read_bytes() == second.read_bytes()

    def test_distinct_boxes_are_stored_once_each(self, tmp_path):
        grid = regular_sparse_grid(2, 3)
        wide = BoxDomain(np.array([0.5, 0.0]), np.array([2.0, 1.5]))
        narrow = BoxDomain(np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        pset = PolicySet(
            [
                StatePolicy.from_values(z, grid, np.sin(z + domain.from_unit(grid.points)), domain)
                for z, domain in enumerate([wide, narrow, wide])
            ]
        )
        path = tmp_path / "pset.npz"
        serialize.save_policy_set(path, pset)
        boxes = sorted(n for n in _members(path) if n.startswith(("lower_", "upper_")))
        assert boxes == ["lower_0.npy", "lower_1.npy", "upper_0.npy", "upper_1.npy"]
        loaded = serialize.load_policy_set(path)
        assert loaded[0].interpolant.domain is loaded[2].interpolant.domain
        assert np.array_equal(loaded[1].interpolant.domain.lower, narrow.lower)
        X = np.random.default_rng(2).random((15, 2)) + 1.0
        for z in range(3):
            assert np.array_equal(loaded.evaluate(z, X), pset.evaluate(z, X))


def _in_the_older_format(path) -> None:
    """Rewrite a file :mod:`serialize` wrote as version 1 wrote it while the solver took
    a kernel name: each state's surpluses beside its nodal values, a box and a kernel
    per state, the retired fields in the config, ``<U`` metadata, every member deflated."""
    meta = serialize.load_meta(path)
    if meta["payload"] == "result":
        policy = serialize.load_result(path).policy
        meta["config"].update(kernel="cuda", warm_start=True, verbose=False, damping=1.0)
    else:
        policy = serialize.load_policy_set(path)
    arrays = {}
    for slot, (sp, state) in enumerate(zip(policy, meta["states"])):
        if state["grid_slot"] == slot:
            arrays[f"levels_{slot}"] = sp.grid.levels
            arrays[f"indices_{slot}"] = sp.grid.indices
        arrays[f"surplus_{slot}"] = sp.interpolant.surplus
        arrays[f"nodal_{slot}"] = sp.nodal_values
        arrays[f"lower_{slot}"] = sp.interpolant.domain.lower
        arrays[f"upper_{slot}"] = sp.interpolant.domain.upper
        del state["box_slot"]
        state["kernel"] = "cuda"
    meta["format_version"] = 1
    buf = io.BytesIO()
    np.savez_compressed(buf, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)
    path.write_bytes(buf.getvalue())


def _with_meta_version(path, version) -> None:
    """Rewrite the format version a file :mod:`serialize` wrote carries, nothing else."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    meta = json.loads(members["__meta__"])
    meta["format_version"] = version
    members["__meta__"] = json.dumps(meta).encode("utf-8")
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def _refused(path, version):
    """A refusal that names the file and its version."""
    named = rf"{re.escape(str(path))} is serialization format {version}"
    return pytest.raises(ValueError, match=named)


class TestOtherFormats:
    """Format 2 is the one layout the reader reads: any other file is refused, naming
    its version."""

    @pytest.mark.parametrize("payload", ["policy_set", "result"])
    def test_a_version_1_file_is_refused(self, tmp_path, solved_small_olg, payload):
        path = tmp_path / f"{payload}.npz"
        if payload == "result":
            serialize.save_result(path, solved_small_olg[1])
        else:
            serialize.save_policy_set(path, _make_policy_set(shared_grid=True)[0])
        _in_the_older_format(path)
        with np.load(path, allow_pickle=False) as data:  # the layout version 1 wrote
            assert data["__meta__"].dtype.kind == "U" and "surplus_0" in data.files
        for read in (serialize.load_result, serialize.load_policy_set, serialize.load_meta):
            with _refused(path, 1):
                read(path)

    @pytest.mark.parametrize("version", [3, None])
    def test_any_other_version_is_refused(self, tmp_path, version):
        path = tmp_path / "pset.npz"
        serialize.save_policy_set(path, _make_policy_set(shared_grid=True)[0])
        _with_meta_version(path, version)
        for read in (serialize.load_policy_set, serialize.load_meta):
            with _refused(path, version):
                read(path)

    def test_a_version_1_checkpoint_ends_its_member(self, tmp_path, solved_small_olg):
        """Like a configuration mismatch: the member whose checkpoint it is ends with the
        refusal; the others of its stack solve on."""
        model, reference = solved_small_olg
        config = reference.config
        path = tmp_path / "ckpt.npz"
        with pytest.raises(SimulatedKill):
            TimeIterationSolver(model, config).solve(
                checkpoint=InterruptingCheckpoint(path, config=config, interrupt_after=2)
            )
        _in_the_older_format(path)
        with _refused(path, 1):
            TimeIterationSolver(model, config).solve(checkpoint=SolveCheckpoint(path, config))
        members = [
            BatchMember(key="old", model=model, config=config, checkpoint=SolveCheckpoint(path)),
            BatchMember(key="new", model=OLGModel(model.calibration), config=config),
        ]
        outcomes = BatchedTimeIterationSolver(members).solve()
        assert outcomes["old"].result is None
        assert "is serialization format 1" in str(outcomes["old"].exception)
        assert outcomes["new"].result.iterations == reference.iterations

    def test_a_version_1_checkpoint_is_listed_without_progress(self, tmp_path):
        spec = ScenarioSpec(
            "halted",
            calibration={"num_generations": 4, "num_states": 1, "beta": 0.8},
            solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
        )
        store = ResultsStore(tmp_path / "store")
        run_suite(ScenarioSuite("one", [spec]), store, interrupt_after=1)
        (info,) = store.list_checkpoints(with_progress=True)
        assert info["iterations_done"] == 1
        _in_the_older_format(store.root / info["key"])
        (info,) = store.list_checkpoints(with_progress=True)
        assert info["iterations_done"] is None and info["status"] == "interrupted"
