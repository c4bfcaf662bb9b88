"""Scenario spec validation, hashing and sweep builders."""

from __future__ import annotations

import copy
import json
import pickle

import numpy as np
import pytest

from repro.scenarios.spec import (
    EXPERIMENT_ADAPTERS,
    EXPERIMENT_KINDS,
    ScenarioSpec,
    ScenarioSuite,
    get_preset,
    preset_names,
)


class TestScenarioSpec:
    def test_hash_is_order_independent(self):
        a = ScenarioSpec("a", calibration={"beta": 0.8, "num_states": 2})
        b = ScenarioSpec("b", calibration={"num_states": 2, "beta": 0.8})
        assert a.content_hash() == b.content_hash()

    def test_hash_ignores_name_and_tags(self):
        a = ScenarioSpec("a", solver={"grid_level": 3}, tags=("x",))
        b = ScenarioSpec("renamed", solver={"grid_level": 3}, tags=("y", "z"))
        assert a.content_hash() == b.content_hash()

    def test_hash_changes_with_content(self):
        a = ScenarioSpec("a", solver={"grid_level": 2})
        b = ScenarioSpec("a", solver={"grid_level": 3})
        c = ScenarioSpec("a", kind="table1", params={"dim": 5})
        assert len({a.content_hash(), b.content_hash(), c.content_hash()}) == 3

    def test_hash_stable_across_sessions(self):
        # frozen anchors: accidental hash-scheme changes would orphan stores.
        # The solve anchor moved once, on purpose, with the state convention
        # ("holdings-1"; before it: ef973a6f05c3...); experiment kinds never did.
        spec = ScenarioSpec("anchor", calibration={"beta": 0.8}, solver={"grid_level": 2})
        assert spec.content_hash() == (
            "bb8cb9810492906cc0a7e170881b93dd2e89d0dc7a178db9b257e3306df0509d"
        )
        assert ScenarioSpec("a", kind="table1", params={"dim": 5}).content_hash() == (
            "3163a4460170ac1c33d0e081ab0a730cc303dbd89ebf21424d53c42d705b3df8"
        )

    def test_only_a_solve_hash_carries_the_state_convention(self, monkeypatch):
        def hashes():
            return [
                ScenarioSpec("a", calibration={"beta": 0.8}).content_hash(),
                ScenarioSpec("a", kind="table1", params={"dim": 5}).content_hash(),
            ]

        solve, table = hashes()
        monkeypatch.setattr("repro.olg.euler.STATE_CONVENTION", "another-box")
        moved, same = hashes()
        assert moved != solve and same == table

    def test_numpy_values_are_normalised(self):
        a = ScenarioSpec("a", calibration={"beta": np.float64(0.8), "num_states": np.int32(2)})
        b = ScenarioSpec("a", calibration={"beta": 0.8, "num_states": 2})
        assert a.content_hash() == b.content_hash()
        assert isinstance(a.calibration["num_states"], int)

    def test_unknown_calibration_key_rejected(self):
        with pytest.raises(ValueError, match="calibration override"):
            ScenarioSpec("a", calibration={"no_such_param": 1})

    def test_unknown_solver_key_rejected(self):
        with pytest.raises(ValueError, match="solver override"):
            ScenarioSpec("a", solver={"no_such_field": 1})

    @pytest.mark.parametrize(
        "field, value",
        [("kernel", "x86"), ("warm_start", False), ("verbose", True), ("damping", 0.7)],
    )
    def test_retired_solver_field_rejected(self, field, value):
        # the solver stopped taking these; a spec that sets one names it
        with pytest.raises(ValueError, match=f"solver override.*'{field}'"):
            ScenarioSpec("a", solver={field: value})

    def test_solve_kind_rejects_params(self):
        with pytest.raises(ValueError, match="params"):
            ScenarioSpec("a", params={"dim": 3})

    def test_experiment_kind_rejects_calibration(self):
        with pytest.raises(ValueError, match="params"):
            ScenarioSpec("a", kind="table1", calibration={"beta": 0.9})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec("a", kind="mystery")

    def test_round_trip_dict(self):
        spec = ScenarioSpec(
            "rt",
            calibration={"beta": 0.85},
            solver={"grid_level": 3, "adaptive": True},
            tags=("t1", "t2"),
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_groups_are_read_only_and_round_trips_keep_identity(self):
        # the hash is memoised per object, so a spec must not change under it
        solve = ScenarioSpec("ro", calibration={"beta": 0.85}, solver={"grid_level": 3})
        experiment = ScenarioSpec("exp", kind="table1", params={"dim": 2, "levels": [2]})
        before = (solve.content_hash(), experiment.content_hash())
        with pytest.raises(TypeError):
            experiment.params["x"] = 1
        with pytest.raises(TypeError):
            del solve.calibration["beta"]
        with pytest.raises(AttributeError):
            solve.solver.update(grid_level=4)
        assert (solve.content_hash(), experiment.content_hash()) == before
        derived = solve.with_overrides(solver={"grid_level": 4})
        assert derived.solver["grid_level"] == 4 and solve.solver["grid_level"] == 3
        assert derived.content_hash() != solve.content_hash()
        for spec in (solve, experiment):
            for clone in (
                pickle.loads(pickle.dumps(spec)),
                copy.deepcopy(spec),
                ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))),
            ):
                assert clone == spec and clone is not spec
                assert clone.content_hash() == spec.content_hash()

    def test_build_objects(self):
        spec = ScenarioSpec(
            "b",
            calibration={"num_generations": 4, "num_states": 2},
            solver={"grid_level": 2, "tolerance": 1e-3},
        )
        model = spec.build_model()
        config = spec.build_config()
        assert model.num_states == 2
        assert model.state_dim == 3
        assert config.grid_level == 2 and config.tolerance == 1e-3

    def test_with_overrides_merges(self):
        base = ScenarioSpec("base", calibration={"beta": 0.8, "tau_labor": 0.1})
        derived = base.with_overrides(name="d", calibration={"tau_labor": 0.3})
        assert derived.calibration == {"beta": 0.8, "tau_labor": 0.3}
        assert base.calibration["tau_labor"] == 0.1  # base untouched


class TestScenarioSuite:
    def test_cartesian_product(self):
        base = ScenarioSpec("s", calibration={"beta": 0.8})
        suite = ScenarioSuite.cartesian(
            "sweep",
            base,
            {"calibration.tau_labor": [0.1, 0.2], "solver.grid_level": [2, 3]},
        )
        assert len(suite) == 4
        assert len(set(suite.hashes())) == 4
        assert len({s.name for s in suite}) == 4
        # every combination present
        combos = {(s.calibration["tau_labor"], s.solver["grid_level"]) for s in suite}
        assert combos == {(0.1, 2), (0.1, 3), (0.2, 2), (0.2, 3)}

    def test_cartesian_rejects_bad_axis(self):
        base = ScenarioSpec("s")
        with pytest.raises(ValueError, match="axis"):
            ScenarioSuite.cartesian("x", base, {"grid_level": [2]})
        with pytest.raises(ValueError, match="no values"):
            ScenarioSuite.cartesian("x", base, {"solver.grid_level": []})

    def test_empty_axes_keeps_tags(self):
        base = ScenarioSpec("s", tags=("base",))
        suite = ScenarioSuite.cartesian("one", base, {}, tags=("extra",))
        assert len(suite) == 1
        assert suite[0].tags == ("base", "extra")

    def test_duplicate_names_rejected(self):
        spec = ScenarioSpec("dup")
        with pytest.raises(ValueError, match="unique"):
            ScenarioSuite("s", [spec, spec])

    def test_describe_lists_every_scenario(self):
        suite = ScenarioSuite.cartesian(
            "d", ScenarioSpec("s"), {"calibration.beta": [0.8, 0.9]}
        )
        text = suite.describe()
        for s in suite:
            assert s.name in text
            assert s.short_hash in text


class TestPresets:
    def test_preset_names_cover_experiments_and_solves(self):
        names = preset_names()
        assert {"smoke", "tax-reform", "demographics", "shock-process"} <= set(names)
        assert {"table1", "table2"} <= set(names)

    @pytest.mark.parametrize("name", ["smoke", "tax-reform", "demographics", "shock-process"])
    def test_solve_presets_expand_and_validate(self, name):
        suite = get_preset(name)
        assert len(suite) >= 2
        assert all(s.kind == "solve" for s in suite)
        assert len(set(suite.hashes())) == len(suite)
        for s in suite:
            s.build_config()  # must instantiate cleanly

    @pytest.mark.parametrize("name,kind", [("table1", "table1"), ("table2", "table2")])
    def test_experiment_presets(self, name, kind):
        suite = get_preset(name)
        assert all(s.kind == kind for s in suite)
        assert kind in EXPERIMENT_KINDS

    def test_one_registry_names_every_experiment_kind(self):
        from repro.scenarios import batching, runner

        assert EXPERIMENT_KINDS == tuple(EXPERIMENT_ADAPTERS)
        assert batching.EXPERIMENT_ADAPTERS is runner.EXPERIMENT_ADAPTERS is EXPERIMENT_ADAPTERS
        for kind in EXPERIMENT_KINDS:
            assert callable(batching._resolve_adapter(kind))

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown preset"):
            get_preset("nope")
