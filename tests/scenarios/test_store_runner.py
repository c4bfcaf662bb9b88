"""Results store provenance, batch runner dispatch, and the CLI."""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest

from repro.scenarios import ResultsStore, ScenarioSpec, ScenarioSuite, run_suite
from repro.scenarios.__main__ import main as cli_main
from repro.scenarios.spec import get_preset


def _tiny_solve_spec(name="tiny", **calibration):
    cal = {"num_generations": 4, "num_states": 1, "beta": 0.8}
    cal.update(calibration)
    return ScenarioSpec(
        name,
        calibration=cal,
        solver={"grid_level": 2, "tolerance": 1e-3, "max_iterations": 12},
    )


@pytest.fixture()
def tiny_suite():
    return ScenarioSuite(
        "tiny",
        [_tiny_solve_spec("tiny-lo", tau_labor=0.1), _tiny_solve_spec("tiny-hi", tau_labor=0.2)],
    )


class TestResultsStore:
    def test_run_records_provenance(self, tmp_path, tiny_suite):
        store = ResultsStore(tmp_path / "store")
        report = run_suite(tiny_suite, store)
        assert report.ok and report.count("completed") == 2
        for spec in tiny_suite:
            entry = store.entry(spec)
            assert entry["status"] == "completed"
            assert entry["spec_hash"] == spec.content_hash()
            assert entry["kind"] == "solve"
            assert entry["converged"] is True
            assert entry["iterations"] >= 1
            assert entry["wall_time"] > 0
            # provenance fields
            import repro

            assert entry["library_version"] == repro.__version__
            assert entry["numpy_version"] == np.__version__
            assert entry["python_version"]
            assert entry["created_at"]
            # per-iteration records land in the manifest
            assert len(entry["iteration_records"]) == entry["iterations"]
            # the entry carries the spec; the result sits beside it
            assert store.load_spec(spec) == spec
            assert not store.backend.exists(f"{store.scenario_key(spec)}/spec.json")
            assert "directory" not in entry
            assert store.result_ref(spec).exists()
            assert not store.checkpoint_ref(spec).exists()  # cleaned up

    def test_loadable_result_and_spec(self, tmp_path, tiny_suite):
        store = ResultsStore(tmp_path / "store")
        run_suite(tiny_suite, store)
        spec = tiny_suite[0]
        result = store.load_result(spec)
        assert result.converged
        clone = store.load_spec(spec)
        assert clone == spec

    def test_show_mentions_each_entry(self, tmp_path, tiny_suite, capsys):
        store = ResultsStore(tmp_path / "store")
        run_suite(tiny_suite, store)
        capsys.readouterr()
        assert cli_main(["show", "--store", store.url]) == 0
        text = capsys.readouterr().out
        for spec in tiny_suite:
            assert spec.name in text


class TestRunner:
    def test_skip_by_hash(self, env_store_url, tiny_suite):
        store = ResultsStore.open(env_store_url())
        assert run_suite(tiny_suite, store).count("completed") == 2
        second = run_suite(tiny_suite, store)
        assert second.count("skipped") == 2 and second.count("completed") == 0

    def test_a_skip_only_run_writes_nothing(self, env_store_url, tiny_suite):
        store = ResultsStore.open(env_store_url())
        run_suite(tiny_suite, store)
        writes: list = []
        for name in ("put", "delete"):
            real = getattr(store.backend, name)

            def recording(key, *args, _name=name, _real=real, **kwargs):
                writes.append((_name, key))
                return _real(key, *args, **kwargs)

            setattr(store.backend, name, recording)
        assert run_suite(tiny_suite, store).count("skipped") == 2
        assert writes == []

    def test_threads_host_claims_each_scenario_once(self, env_store_url):
        params = [{"dim": 2, "levels": [2], "num_states": n} for n in range(1, 5)]
        specs = [ScenarioSpec(f"micro-{i}", kind="table1", params=p) for i, p in enumerate(params)]
        store = ResultsStore.open(env_store_url())
        report = run_suite(ScenarioSuite("micro", specs), store, executor="threads", num_workers=2)
        assert report.count("completed") == 4
        claimed = Counter(e["scenario"] for e in store.events() if e["kind"] == "claimed")
        assert claimed == {store.scenario_key(spec): 1 for spec in specs}
        assert store.leases() == []

    def test_an_interrupted_scenario_records_no_attempt(self, env_store_url):
        suite = ScenarioSuite("one", [_tiny_solve_spec("cut")])
        store = ResultsStore.open(env_store_url())
        assert run_suite(suite, store, interrupt_after=1).count("interrupted") == 1
        # no lease, no attempts.json, no parked.json: the next run just resumes it
        assert store.backend.list(f"{store.LEASE_PREFIX}/") == []

    def test_entries_of_another_state_convention_are_other_scenarios(
        self, env_store_url, monkeypatch
    ):
        # a store filled by a tree whose policies live on other coordinates:
        # one solve completed, one interrupted with a checkpoint behind it
        store = ResultsStore.open(env_store_url())
        monkeypatch.setattr("repro.olg.euler.STATE_CONVENTION", "another-box")
        done, cut = _tiny_solve_spec("done"), _tiny_solve_spec("cut", tau_labor=0.2)
        assert run_suite(ScenarioSuite("old", [done]), store).count("completed") == 1
        assert run_suite(ScenarioSuite("old", [cut]), store, interrupt_after=2).ok is False
        assert store.checkpoint_ref(cut).exists()
        monkeypatch.undo()
        # same specs on this tree: neither skipped as done nor resumed, and
        # the older entries are still there to be listed
        suite = ScenarioSuite(
            "new", [_tiny_solve_spec("done"), _tiny_solve_spec("cut", tau_labor=0.2)]
        )
        assert [s.content_hash() for s in suite] != [done.content_hash(), cut.content_hash()]
        assert not any(store.has(spec) for spec in suite)
        report = run_suite(suite, store)
        assert report.count("completed") == 2 and report.count("skipped") == 0
        assert not any(store.entry(spec)["resumed"] for spec in suite)
        by_hash = {e["spec_hash"]: e["status"] for e in store.entries()}
        assert len(by_hash) == 4
        assert by_hash[done.content_hash()] == "completed"
        assert by_hash[cut.content_hash()] == "interrupted"

    def test_interrupted_batch_resumes(self, env_store_url):
        suite = ScenarioSuite("one", [_tiny_solve_spec("resume-me")])
        store = ResultsStore.open(env_store_url())
        broken = run_suite(suite, store, interrupt_after=2)
        assert broken.count("interrupted") == 1
        assert store.entry(suite[0])["status"] == "interrupted"
        assert store.checkpoint_ref(suite[0]).exists()
        # identical re-invocation resumes from the checkpoint and completes
        fixed = run_suite(suite, store)
        assert fixed.count("completed") == 1
        entry = store.entry(suite[0])
        assert entry["status"] == "completed" and entry["resumed"] is True
        # resumed result equals an uninterrupted solve of the same spec
        fresh_store = ResultsStore.open(env_store_url("fresh"))
        run_suite(suite, fresh_store)
        a = store.load_result(suite[0])
        b = fresh_store.load_result(suite[0])
        assert a.iterations == b.iterations
        assert np.array_equal(a.error_history(), b.error_history())

    def test_worker_commit_survives_parent_death(self, env_store_url):
        # a drain that finishes commits its own entry into the sharded
        # store: the work is durable even if the parent dies right after,
        # and the restarted batch skips it by hash instead of re-solving
        import repro.scenarios.runner as runner_mod

        suite = ScenarioSuite("one", [_tiny_solve_spec("orphan")])
        store = ResultsStore.open(env_store_url())
        spec = suite[0]
        # what a process host's worker runs: plain data in, plain data out
        summary = runner_mod._hosted_drain(([spec], store.url, None, 0, 1, nullcontext()))
        [(status, entry)] = summary["outcomes"].values()
        assert status == entry["status"] == "completed"
        assert store.result_ref(spec).exists()
        assert store.has(spec)  # committed by the worker itself
        assert not store.checkpoint_ref(spec).exists()  # dropped post-commit
        report = run_suite(suite, store)
        assert report.count("skipped") == 1

    def test_reindex_recovers_entry_missing_from_log(self, env_store_url):
        # crash window: entry.json written but the log append never
        # happened (or the log was lost) — reindex heals the log from the
        # entry objects and the entry becomes discoverable again
        suite = ScenarioSuite("one", [_tiny_solve_spec("heal")])
        store = ResultsStore.open(env_store_url())
        run_suite(suite, store)
        store.backend.clear_commit_log()
        assert store.index() == {}  # log-based discovery finds nothing
        assert store.has(suite[0])  # ...but direct entry reads still work
        index = store.reindex()
        assert set(index) == {suite[0].content_hash()}
        assert set(store.index()) == {suite[0].content_hash()}

    def test_interrupt_with_sparse_checkpoint_still_resumable(self, env_store_url):
        # interrupt long before the checkpoint cadence would have fired:
        # a checkpoint must be forced so the re-run resumes, not restarts
        suite = ScenarioSuite("one", [_tiny_solve_spec("sparse")])
        store = ResultsStore.open(env_store_url())
        broken = run_suite(suite, store, interrupt_after=1)
        assert broken.count("interrupted") == 1
        assert store.checkpoint_ref(suite[0]).exists()
        fixed = run_suite(suite, store)
        assert fixed.count("completed") == 1
        assert store.entry(suite[0])["resumed"] is True

    def test_repeated_sparse_interrupts_make_progress(self, env_store_url):
        # kill-after-1, iterations far shorter than the cadence: the kill hook
        # must persist the newest state each run (no livelock on a stale
        # checkpoint) — every re-invocation advances at least one iteration
        # and the suite eventually completes
        suite = ScenarioSuite("one", [_tiny_solve_spec("grind")])
        store = ResultsStore.open(env_store_url())
        for attempt in range(25):
            report = run_suite(suite, store, interrupt_after=1)
            if report.count("completed") == 1:
                break
        else:
            raise AssertionError("repeated kill/resume never completed (livelock)")
        assert store.has(suite[0])
        # the interrupted attempts each persisted one more iteration
        assert attempt + 1 <= store.load_result(suite[0]).iterations + 1

    def test_deferred_duplicate_mirrors_failed_twin(self, env_store_url):
        bad = ScenarioSpec("bad-a", kind="ablations", params={"which": "no-such"})
        twin = ScenarioSpec("bad-b", kind="ablations", params={"which": "no-such"})
        assert bad.content_hash() == twin.content_hash()
        store = ResultsStore.open(env_store_url())
        report = run_suite(ScenarioSuite("dups", [bad, twin]), store)
        assert report.count("failed") == 2  # the deferred twin must not read as ok
        assert not report.ok

    def test_duplicate_hash_runs_once(self, env_store_url):
        # same content, different names: must not race two workers on one
        # scenario directory — one runs, the twin is satisfied by hash
        suite = ScenarioSuite(
            "dups", [_tiny_solve_spec("twin-a"), _tiny_solve_spec("twin-b")]
        )
        assert suite[0].content_hash() == suite[1].content_hash()
        store = ResultsStore.open(env_store_url())
        report = run_suite(suite, store, executor="threads", num_workers=2)
        assert report.count("completed") == 1 and report.count("skipped") == 1
        assert store.load_result(suite[1]).converged  # twin reads the shared result

    def test_real_keyboard_interrupt_propagates(self, tmp_path, monkeypatch):
        # only SimulatedKill (the --interrupt-after hook) is converted into an
        # 'interrupted' entry; a genuine Ctrl-C must stop the whole batch
        import repro.scenarios.batching as batching_mod

        def raise_interrupt(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(batching_mod.BatchedTimeIterationSolver, "solve", raise_interrupt)
        suite = ScenarioSuite("one", [_tiny_solve_spec("ctrl-c")])
        with pytest.raises(KeyboardInterrupt):
            run_suite(suite, ResultsStore(tmp_path / "store"))

    def test_failed_scenario_does_not_kill_batch(self, env_store_url):
        suite = ScenarioSuite(
            "mixed",
            [
                ScenarioSpec("bad", kind="ablations", params={"which": "no-such"}),
                _tiny_solve_spec("good"),
            ],
        )
        store = ResultsStore.open(env_store_url())
        report = run_suite(suite, store)
        assert report.count("failed") == 1 and report.count("completed") == 1
        assert "no-such" in store.entry(suite[0])["error"]
        # failed entries are retried on the next run
        again = run_suite(suite, store)
        assert again.count("failed") == 1 and again.count("skipped") == 1

    def test_mistyped_convergence_metric_fails_before_iterating(self, env_store_url):
        # it used to stop on "linf" without a word
        spec = _tiny_solve_spec("typo").with_overrides(solver={"convergence_metric": "rel_inf"})
        store = ResultsStore.open(env_store_url())
        report = run_suite(ScenarioSuite("typo", [spec, _tiny_solve_spec("good")]), store)
        assert report.count("failed") == 1 and report.count("completed") == 1
        entry = store.entry(spec)
        assert entry["status"] == "failed" and "'rel_inf'" in entry["error"]
        assert "iterations" not in entry

    @pytest.mark.parametrize(
        "field, value",
        [("max_iterations", -2), ("tolerance", -1.0), ("grid_level", 0), ("refine_epsilon", -1e-3)],
    )
    def test_out_of_range_settings_fail_before_iterating(self, env_store_url, field, value):
        # max_iterations -2 used to be stored `completed` with no iteration at all;
        # none of these may reach the drain's grouping or the solve
        spec = _tiny_solve_spec("bad").with_overrides(solver={field: value})
        store = ResultsStore.open(env_store_url())
        report = run_suite(ScenarioSuite("bad", [spec, _tiny_solve_spec("good")]), store)
        assert report.count("failed") == 1 and report.count("completed") == 1
        entry = store.entry(spec)
        assert entry["status"] == "failed" and field in entry["error"]
        assert "iterations" not in entry

    def test_experiment_scenarios_store_payloads(self, env_store_url):
        suite = ScenarioSuite(
            "exp",
            [
                ScenarioSpec(
                    "abl", kind="ablations", params={"which": "partition", "total_processes": 8}
                ),
                ScenarioSpec(
                    "fig8", kind="fig8", params={"node_counts": [1, 4], "dim": 10, "levels": [2]}
                ),
            ],
        )
        store = ResultsStore.open(env_store_url())
        report = run_suite(suite, store)
        assert report.ok
        abl = store.load_payload(suite[0])
        assert abl["result"]["which"] == "partition"
        fig8 = store.load_payload(suite[1])
        assert fig8["result"]["node_counts"] == [1, 4]
        assert "formatted" in fig8["result"]

    def test_table_presets_run_through_runner(self, env_store_url):
        store = ResultsStore.open(env_store_url())
        report = run_suite(get_preset("table1"), store)
        assert report.ok
        payload = store.load_payload(get_preset("table1")[0])
        rows = payload["result"]["rows"]
        assert rows and rows[0]["dim"] == 12

    def test_threads_executor(self, env_store_url, tiny_suite):
        store = ResultsStore.open(env_store_url())
        report = run_suite(tiny_suite, store, executor="threads", num_workers=2)
        assert report.ok and report.count("completed") == 2

    def test_unknown_executor_rejected(self, tmp_path, tiny_suite):
        with pytest.raises(ValueError, match="unknown executor"):
            run_suite(tiny_suite, ResultsStore(tmp_path), executor="mpi")

    @pytest.mark.slow
    def test_process_executor(self, tmp_path, tiny_suite):
        store = ResultsStore(tmp_path / "store")
        report = run_suite(tiny_suite, store, executor="processes", num_workers=2)
        assert report.ok and report.count("completed") == 2
        for spec in tiny_suite:
            assert store.load_result(spec).converged


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "tax-reform" in out

    def test_dry_run_expands_without_solving(self, tmp_path, capsys):
        code = cli_main(["run", "smoke", "--store", str(tmp_path / "s"), "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 scenario(s)" in out
        assert not [p for p in (tmp_path / "s").rglob("*") if p.is_file()]  # nothing written

    def test_run_show_and_skip(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        assert cli_main(["run", "smoke", "--store", store]) == 0
        assert cli_main(["show", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 completed" in out and "smoke-tau_labor=0.1" in out
        assert cli_main(["run", "smoke", "--store", store]) == 0
        assert "2 skipped" in capsys.readouterr().out

    def test_interrupt_then_resume_via_cli(self, tmp_path, capsys):
        store = str(tmp_path / "s")
        assert cli_main(["run", "smoke", "--store", store, "--interrupt-after", "1"]) == 1
        assert "interrupted" in capsys.readouterr().out
        assert cli_main(["run", "smoke", "--store", store]) == 0
        assert "2 completed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "smoke", "--interrupt-after", "-1"],
            ["run", "smoke", "--interrupt-after", "0"],
            ["work", "smoke", "--ttl", "0"],
            ["work", "smoke", "--max-claims", "-3"],
            ["work", "smoke", "--max-attempts", "0"],
            ["work", "smoke", "--poll", "-5"],
            ["work", "smoke", "--poll", "nan"],
            ["status", "--follow", "--poll", "nan"],
            ["status", "--follow", "--poll", "inf"],
            ["work", "smoke", "--ttl", "inf"],
        ],
        ids=[
            "interrupt-after=-1",
            "interrupt-after=0",
            "ttl=0",
            "max-claims=-3",
            "max-attempts=0",
            "work-poll=-5",
            "work-poll=nan",
            "status-poll=nan",
            "status-poll=inf",
            "ttl=inf",
        ],
    )
    def test_non_positive_hooks_and_ttls_are_usage_errors(self, tmp_path, capsys, argv):
        store = tmp_path / "s"
        with pytest.raises(SystemExit) as exit_:
            cli_main([*argv, "--store", str(store)])
        assert exit_.value.code == 2
        assert argv[2] in capsys.readouterr().err
        assert not [p for p in store.rglob("*") if p.is_file()]  # nothing written

    def test_unknown_preset_exit_code(self, capsys):
        assert cli_main(["run", "nope", "--store", "/tmp/ignored"]) == 2
