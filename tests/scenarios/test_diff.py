"""Scenario diffing: spec/aggregate/policy deltas and the diff CLI."""

from __future__ import annotations

import json

import pytest

from repro.scenarios import (
    ResultsStore,
    ScenarioSpec,
    ScenarioSuite,
    diff_entries,
    format_diff,
    run_suite,
)
from repro.scenarios.__main__ import main as cli_main
from repro.scenarios.spec import tax_reform_suite


@pytest.fixture(scope="module")
def tax_store(tmp_path_factory):
    """Two tax-reform preset entries (differing in tau_capital) in one store."""
    full = tax_reform_suite()
    pair = ScenarioSuite("tax-pair", [full[0], full[1]])
    store = ResultsStore(tmp_path_factory.mktemp("store"))
    report = run_suite(pair, store)
    assert report.ok
    return store, pair


class TestDiffEntries:
    def test_calibration_and_aggregate_deltas(self, tax_store):
        store, pair = tax_store
        diff = diff_entries(store, pair[0].content_hash(), pair[1].content_hash())
        # the two tax-reform entries differ exactly in the capital tax
        assert set(diff["calibration"]["changed"]) == {"tau_capital"}
        assert diff["calibration"]["changed"]["tau_capital"] == {"a": 0.0, "b": 0.15}
        assert not diff["solver"]["changed"]
        agg = diff["aggregates"]
        assert agg["wall_time"]["delta"] == agg["wall_time"]["b"] - agg["wall_time"]["a"]
        assert isinstance(agg["iterations"]["delta"], int)
        assert agg["converged"] == {"a": True, "b": True}

    def test_policy_surplus_deltas(self, tax_store):
        store, pair = tax_store
        diff = diff_entries(store, pair[0].content_hash(), pair[1].content_hash())
        policy = diff["policy"]
        assert policy["states_compared"] >= 1
        assert policy["max_abs_policy_diff"] > 0  # a real reform moves the policy
        for state in policy["per_state"]:
            assert state["max_abs_policy_diff"] >= state["mean_abs_policy_diff"] >= 0
            if state["same_grid"]:
                assert state["surplus_delta_linf"] >= 0

    def test_hash_prefix_resolution(self, tax_store):
        store, pair = tax_store
        h_a, h_b = pair[0].content_hash(), pair[1].content_hash()
        diff = diff_entries(store, h_a[:10], h_b[:10])
        assert diff["a"]["spec_hash"] == h_a and diff["b"]["spec_hash"] == h_b

    def test_unknown_hash_raises(self, tax_store):
        store, pair = tax_store
        with pytest.raises(KeyError, match="no store entry"):
            diff_entries(store, "feedfeedfeedfeed", pair[1].content_hash())

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_sample_points_is_a_clear_error(self, tax_store, samples):
        store, pair = tax_store
        with pytest.raises(ValueError, match="samples must be >= 1"):
            diff_entries(store, pair[0].content_hash(), pair[1].content_hash(), samples=samples)

    def test_self_diff_is_identity(self, tax_store):
        store, pair = tax_store
        h = pair[0].content_hash()
        diff = diff_entries(store, h, h)
        assert not diff["calibration"]["changed"]
        assert diff["policy"]["max_abs_policy_diff"] == 0.0
        text = format_diff(diff)
        assert "identical computation-defining content" in text

    def test_different_state_dims_skip_policy_section(self, tmp_path):
        # demographics-style pair: different num_generations means the two
        # policies live on incomparable domains — must skip, not crash
        def solve_spec(name, gens):
            return ScenarioSpec(
                name,
                calibration={"num_generations": gens, "num_states": 1, "beta": 0.8},
                solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
            )

        suite = ScenarioSuite("dims", [solve_spec("g4", 4), solve_spec("g5", 5)])
        store = ResultsStore(tmp_path / "store")
        assert run_suite(suite, store).ok
        diff = diff_entries(store, suite[0].content_hash(), suite[1].content_hash())
        assert "state-space dimensions differ" in diff["policy"]["skipped"]
        assert diff["calibration"]["changed"]["num_generations"] == {"a": 4, "b": 5}
        assert "comparison skipped" in format_diff(diff)

    def test_grid_level_mismatch_degrades_to_common_sample(self, tmp_path, capsys):
        # satellite regression: same state-space dimension, different
        # solver.grid_level — the surplus vectors have different shapes,
        # which used to surface as a raw numpy broadcast error.  The diff
        # must degrade to the common-sample policy comparison and report
        # surplus_delta_linf: null with a shape-mismatch note.
        def solve_spec(name, level):
            return ScenarioSpec(
                name,
                calibration={"num_generations": 4, "num_states": 1, "beta": 0.8},
                solver={"grid_level": level, "tolerance": 1e-3, "max_iterations": 6},
            )

        suite = ScenarioSuite("levels", [solve_spec("l1", 1), solve_spec("l2", 2)])
        store = ResultsStore(tmp_path / "store")
        assert run_suite(suite, store).ok
        diff = diff_entries(store, suite[0].content_hash(), suite[1].content_hash())
        policy = diff["policy"]
        assert "skipped" not in policy  # the sample comparison still runs
        assert policy["max_abs_policy_diff"] >= 0
        for state in policy["per_state"]:
            assert state["same_grid"] is False
            assert state["surplus_delta_linf"] is None  # explicit null, not absent
            assert "points" in state["surplus_note"]
        # JSON output carries the null; text output renders the note
        assert json.loads(json.dumps(diff))["policy"]["per_state"][0][
            "surplus_delta_linf"
        ] is None
        text = format_diff(diff)
        assert "grids differ" in text and "not comparable" in text
        code = cli_main(
            ["diff", suite[0].short_hash, suite[1].short_hash, "--store", str(store.root)]
        )
        assert code == 0
        assert "grids differ" in capsys.readouterr().out

    def test_interrupted_entry_diffs_without_policy(self, tmp_path, capsys):
        # workers save the spec before solving, so an interrupted entry
        # still yields calibration deltas; the policy section is skipped
        base = {"num_generations": 4, "num_states": 1, "beta": 0.8}
        solver = {"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12}
        done = ScenarioSpec("done", calibration=base, solver=solver)
        halted = ScenarioSpec("halted", calibration={**base, "beta": 0.85}, solver=solver)
        store = ResultsStore(tmp_path / "store")
        assert run_suite(ScenarioSuite("a", [done]), store).ok
        run_suite(ScenarioSuite("b", [halted]), store, interrupt_after=1)
        diff = diff_entries(store, done.content_hash(), halted.content_hash())
        assert diff["calibration"]["changed"]["beta"] == {"a": 0.8, "b": 0.85}
        assert diff["policy"]["skipped"] == "not both completed"
        code = cli_main(
            ["diff", done.short_hash, halted.short_hash, "--store", str(store.root)]
        )
        assert code == 0  # the CLI reports the skip instead of crashing
        assert "comparison skipped" in capsys.readouterr().out

    def test_experiment_entries_skip_policy_section(self, tmp_path):
        suite = ScenarioSuite(
            "exp",
            [
                ScenarioSpec("p2", kind="ablations", params={"which": "partition",
                                                             "total_processes": 2}),
                ScenarioSpec("p4", kind="ablations", params={"which": "partition",
                                                             "total_processes": 4}),
            ],
        )
        store = ResultsStore(tmp_path / "store")
        assert run_suite(suite, store).ok
        diff = diff_entries(store, suite[0].content_hash(), suite[1].content_hash())
        assert set(diff["params"]["changed"]) == {"total_processes"}
        assert "skipped" in diff["policy"]
        assert "params" in format_diff(diff)


class TestDiffCLI:
    def test_text_output(self, tax_store, capsys):
        store, pair = tax_store
        code = cli_main(
            ["diff", pair[0].short_hash, pair[1].short_hash, "--store", str(store.root)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tau_capital" in out and "0.0 -> 0.15" in out
        assert "aggregates:" in out
        assert "wall_time" in out and "iterations" in out
        assert "policy" in out and "max |A-B|" in out

    def test_json_output_round_trips(self, tax_store, capsys):
        store, pair = tax_store
        code = cli_main(
            [
                "diff",
                pair[0].short_hash,
                pair[1].short_hash,
                "--store",
                str(store.root),
                "--json",
                "--samples",
                "16",
            ]
        )
        assert code == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["calibration"]["changed"]["tau_capital"]["b"] == 0.15
        assert diff["policy"]["samples"] == 16

    def test_unknown_hash_exit_code(self, tax_store, capsys):
        store, _pair = tax_store
        assert cli_main(["diff", "feedfeed", "deadbeef", "--store", str(store.root)]) == 2
        assert "no store entry" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-1", "many"])
    def test_samples_below_one_is_a_usage_error(self, tax_store, capsys, samples):
        store, pair = tax_store
        argv = ["diff", pair[0].short_hash, pair[1].short_hash, "--store", str(store.root)]
        with pytest.raises(SystemExit) as exit_:
            cli_main(argv + ["--samples", samples])
        assert exit_.value.code == 2
        assert "--samples" in capsys.readouterr().err


class TestCrossBackendDiff:
    """``diff`` across two stores on two different storage backends."""

    def _solve_spec(self, name, tau):
        return ScenarioSpec(
            name,
            calibration={"num_generations": 4, "num_states": 1, "beta": 0.8, "tau_labor": tau},
            solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
        )

    @pytest.fixture()
    def two_backend_stores(self, store_url_for):
        """Baseline solve in a file:// store, reform solve in an s3:// store."""
        baseline, reform = self._solve_spec("base", 0.1), self._solve_spec("reform", 0.2)
        local = ResultsStore.open(store_url_for("file", name="local"))
        remote = ResultsStore.open(store_url_for("s3", name="archive"))
        assert run_suite(ScenarioSuite("a", [baseline]), local).ok
        assert run_suite(ScenarioSuite("b", [reform]), remote).ok
        return local, remote, baseline, reform

    def test_diff_entries_across_backends(self, two_backend_stores):
        local, remote, baseline, reform = two_backend_stores
        diff = diff_entries(
            local, baseline.content_hash(), reform.content_hash(), store_b=remote
        )
        assert diff["calibration"]["changed"]["tau_labor"] == {"a": 0.1, "b": 0.2}
        # each side records which store (and hence backend) it came from
        assert diff["a"]["store"].startswith("file://")
        assert diff["b"]["store"].startswith("s3://")
        # the policy comparison loads result A from disk and result B
        # from the object store onto one common sample
        assert diff["policy"]["max_abs_policy_diff"] > 0

    def test_hash_b_resolves_in_store_b_only(self, two_backend_stores):
        local, remote, baseline, reform = two_backend_stores
        # the reform hash does not exist in the local store at all:
        # without store_b the lookup must fail, with it it must succeed
        with pytest.raises(KeyError, match="no (store|committed) entry"):
            diff_entries(local, baseline.content_hash(), reform.content_hash())
        with pytest.raises(KeyError, match="no store entry"):
            diff_entries(local, baseline.short_hash, reform.short_hash)
        diff = diff_entries(
            local, baseline.content_hash(), reform.short_hash, store_b=remote
        )
        assert diff["b"]["spec_hash"] == reform.content_hash()

    def test_cli_store_b_flag(self, two_backend_stores, capsys):
        local, remote, baseline, reform = two_backend_stores
        code = cli_main(
            [
                "diff",
                baseline.short_hash,
                reform.short_hash,
                "--store",
                local.url,
                "--store-b",
                remote.url,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tau_labor" in out and "0.1 -> 0.2" in out
        assert "@ file://" in out and "@ s3://" in out

    def test_cli_store_b_json_records_stores(self, two_backend_stores, capsys):
        local, remote, baseline, reform = two_backend_stores
        code = cli_main(
            [
                "diff",
                baseline.short_hash,
                reform.short_hash,
                "--store",
                local.url,
                "--store-b",
                remote.url,
                "--json",
                "--samples",
                "8",
            ]
        )
        assert code == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["a"]["store"] == local.url
        assert diff["b"]["store"] == remote.url
        assert diff["policy"]["samples"] == 8


class TestResumeCLI:
    def test_lists_resumable_checkpoints(self, tmp_path, capsys):
        spec = ScenarioSpec(
            "halted",
            calibration={"num_generations": 4, "num_states": 1, "beta": 0.8},
            solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
        )
        store = ResultsStore(tmp_path / "store")
        run_suite(ScenarioSuite("one", [spec]), store, interrupt_after=2)
        assert cli_main(["resume", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "halted" in out and "interrupted" in out
        assert spec.short_hash in out

    def test_json_listing(self, tmp_path, capsys):
        spec = ScenarioSpec(
            "halted-json",
            calibration={"num_generations": 4, "num_states": 1, "beta": 0.8},
            solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
        )
        store = ResultsStore(tmp_path / "store")
        run_suite(ScenarioSuite("one", [spec]), store, interrupt_after=1)
        assert cli_main(["resume", "--store", str(store.root), "--json"]) == 0
        infos = json.loads(capsys.readouterr().out)
        assert len(infos) == 1
        assert infos[0]["status"] == "interrupted"
        assert infos[0]["iterations_done"] == 1

    def test_empty_store(self, tmp_path, capsys):
        assert cli_main(["resume", "--store", str(tmp_path / "s")]) == 0
        assert "no resumable checkpoints" in capsys.readouterr().out
