"""Batched multi-scenario time iteration.

Covers the four contracts of the batched solve path:

* equivalence — a batch of one is the sequential solve bit for bit; stacked
  sweeps land on the same fixed points as per-scenario sequential solves
  (asserted to solver tolerance);
* convergence masking — members drop out of the batch individually, each
  with its own iteration history;
* stepping alone — members the loop cannot stack (topology
  mismatch, adaptivity) step alone inside the same loop,
  bit-exact with a solo solve; a member's own exception ends that member only;
* scenario-layer integration — topology partitioning, batch-aware
  ``run_suite`` dispatch, and kill/resume leaving per-member checkpoints
  the next run resumes from.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.batched import BatchedTimeIterationSolver, BatchMember, batch_topology
from repro.core.time_iteration import TimeIterationSolver
from repro.parallel.tracing import EventRecorder
from repro.scenarios import (
    ResultsStore,
    ScenarioSpec,
    ScenarioSuite,
    partition_by_topology,
    run_suite,
    solve_batch_and_commit,
    topology_signature,
)
from repro.scenarios.checkpoint import CHECKPOINT_SECONDS

TOL = 1e-3


def _solve_spec(
    name: str,
    *,
    grid_level: int = 2,
    max_iterations: int = 12,
    tolerance: float = TOL,
    **calibration,
):
    cal = {"num_generations": 4, "num_states": 1, "beta": 0.8}
    cal.update(calibration)
    return ScenarioSpec(
        name,
        calibration=cal,
        solver={
            "grid_level": grid_level,
            "tolerance": tolerance,
            "max_iterations": max_iterations,
        },
    )


def _member(spec: ScenarioSpec, **kwargs) -> BatchMember:
    return BatchMember(
        key=spec.name, model=spec.build_model(), config=spec.build_config(), **kwargs
    )


def _policy_diff(a, b) -> float:
    diff = 0.0
    for z in range(len(a.policy)):
        pa = a.policy[z]
        X = pa.interpolant.domain.from_unit(pa.grid.points)
        diff = max(diff, float(np.max(np.abs(pa(X) - b.policy[z](X)))))
    return diff


class TestToleranceEquivalence:
    @pytest.mark.parametrize(
        "axis,values",
        [("tau_labor", [0.05, 0.1, 0.2]), ("beta", [0.76, 0.8, 0.82])],
        ids=["tau-sweep", "beta-sweep"],
    )
    def test_batched_sweep_matches_sequential(self, axis, values):
        specs = [_solve_spec(f"eq-{v}", **{axis: v}) for v in values]
        sequential = [
            TimeIterationSolver(s.build_model(), s.build_config()).solve() for s in specs
        ]
        outcomes = BatchedTimeIterationSolver([_member(s) for s in specs]).solve()
        for spec, seq in zip(specs, sequential):
            out = outcomes[spec.name]
            assert not out.fallback, out.fallback_reason
            assert out.result.converged and seq.converged
            assert _policy_diff(seq, out.result) < TOL

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_single_member_batch(self, adaptive):
        spec = _solve_spec("solo")
        if adaptive:
            spec = spec.with_overrides(
                solver={"adaptive": True, "max_refine_level": 3, "max_points_per_state": 40}
            )
        outcomes = BatchedTimeIterationSolver([_member(spec)]).solve()
        out = outcomes["solo"]
        assert out.fallback == adaptive and out.result.converged
        assert (max(out.result.policy.points_per_state) > 7) == adaptive
        # one path, same bits: the sequential driver is a batch of one
        seq = TimeIterationSolver(spec.build_model(), spec.build_config()).solve()
        assert [r.iteration for r in seq.records] == [r.iteration for r in out.result.records]
        for field in ("policy_change_linf", "policy_change_l2", "policy_change_rel_linf"):
            assert [getattr(r, field) for r in seq.records] == [
                getattr(r, field) for r in out.result.records
            ]
        for z in range(len(seq.policy)):
            assert np.array_equal(
                out.result.policy[z].interpolant.surplus, seq.policy[z].interpolant.surplus
            )
            assert np.array_equal(out.result.policy[z].nodal_values, seq.policy[z].nodal_values)


class TestConvergenceMasking:
    def test_members_drop_out_at_their_own_iteration(self):
        # a looser per-member tolerance converges in fewer passes; each
        # member's record history must stop at its own convergence, not
        # the batch's (tolerance is per member, not part of the topology)
        specs = [_solve_spec("fast", tolerance=3e-2), _solve_spec("slow")]
        outcomes = BatchedTimeIterationSolver([_member(s) for s in specs]).solve()
        fast, slow = outcomes["fast"].result, outcomes["slow"].result
        assert fast.converged and slow.converged
        assert fast.iterations < slow.iterations
        assert [r.iteration for r in fast.records] == list(range(1, fast.iterations + 1))

    def test_capped_member_leaves_batch_while_others_continue(self):
        specs = [_solve_spec("capped", max_iterations=3), _solve_spec("full")]
        outcomes = BatchedTimeIterationSolver([_member(s) for s in specs]).solve()
        capped, full = outcomes["capped"].result, outcomes["full"].result
        assert not capped.converged and capped.iterations == 3
        assert full.converged and full.iterations > 3
        assert not outcomes["capped"].fallback  # a cap is completion, not fallback

    def test_per_member_records_carry_batch_wall_time_sections(self):
        specs = [_solve_spec("a", tau_labor=0.1), _solve_spec("b", tau_labor=0.2)]
        outcomes = BatchedTimeIterationSolver([_member(s) for s in specs]).solve()
        for key in ("a", "b"):
            for record in outcomes[key].result.records:
                assert record.wall_time > 0
                # every pass reports one section set; a stack's members book 1/n each
                assert set(record.sections) == {"grid", "solve", "fit"}
                assert sum(record.sections.values()) <= record.wall_time
        for one, other in zip(outcomes["a"].result.records, outcomes["b"].result.records):
            assert one.sections == other.sections and one.wall_time == other.wall_time


class TestFallback:
    def test_non_finite_member_stays_stacked_and_ends_at_its_cap(self):
        # a time-iteration update is a deterministic function of the previous
        # iterate, so there is nothing to redo: the member whose model returns
        # a non-finite row keeps its place, never meets its tolerance and
        # stops at its cap — without touching its stack-mates' columns
        mates = [_solve_spec("m1", tau_labor=0.1), _solve_spec("m2", tau_labor=0.2)]
        bad = _solve_spec("bad", tau_labor=0.15, max_iterations=4)

        # a third member of another model class puts both runs on the same
        # (per-member) point-solve path, so the comparison is like for like
        class Other(type(bad.build_model())):
            pass

        class Poisoned(Other):
            def solve_points_batch(self, z, X, policy, guesses=None):
                out = np.array(super().solve_points_batch(z, X, policy, guesses), dtype=float)
                out[0] = np.nan
                return out

        def run(model_cls):
            third = BatchMember(
                key="bad", model=model_cls(bad.build_calibration()), config=bad.build_config()
            )
            return BatchedTimeIterationSolver([*map(_member, mates), third]).solve()

        outcomes, without = run(Poisoned), run(Other)
        out = outcomes["bad"]
        assert out.fallback_reason is None and out.exception is None
        assert not out.result.converged and out.result.iterations == 4
        for spec in mates:
            got, ref = outcomes[spec.name], without[spec.name]
            assert got.fallback_reason is None and got.result.converged
            assert got.result.iterations == ref.result.iterations
            for z in range(len(ref.result.policy)):
                assert np.array_equal(
                    got.result.policy[z].interpolant.surplus,
                    ref.result.policy[z].interpolant.surplus,
                )

    def test_topology_minority_falls_back_bit_exact(self):
        specs = [
            _solve_spec("l2-a", tau_labor=0.1),
            _solve_spec("l2-b", tau_labor=0.2),
            _solve_spec("l3", grid_level=3, max_iterations=4),
        ]
        outcomes = BatchedTimeIterationSolver([_member(s) for s in specs]).solve()
        assert not outcomes["l2-a"].fallback and not outcomes["l2-b"].fallback
        out = outcomes["l3"]
        assert out.fallback and out.fallback_reason == "topology mismatch"
        seq = TimeIterationSolver(specs[2].build_model(), specs[2].build_config()).solve()
        for z in range(len(seq.policy)):
            assert np.array_equal(
                out.result.policy[z].interpolant.surplus, seq.policy[z].interpolant.surplus
            )

    def test_adaptive_member_falls_back(self):
        spec = _solve_spec("ada", max_iterations=1).with_overrides(
            solver={"adaptive": True, "max_refine_level": 2, "max_points_per_state": 50}
        )
        outcomes = BatchedTimeIterationSolver([_member(spec)]).solve()
        out = outcomes["ada"]
        assert out.fallback and out.fallback_reason == "adaptive refinement"
        assert out.result is not None


    def test_alone_members_next_to_a_stack_match_solo_solves(self):
        # one loop: an adaptive member steps alone inside the group a stacked
        # pair iterates in, and returns what its solo solve returns, bit for bit
        pair = [_solve_spec("p1", tau_labor=0.1), _solve_spec("p2", tau_labor=0.2)]
        ada = _solve_spec("ada", max_iterations=3).with_overrides(
            solver={"adaptive": True, "max_refine_level": 3, "max_points_per_state": 40}
        )
        events = EventRecorder()
        members = [_member(s, events=events, scenario=s.name) for s in (*pair, ada)]
        outcomes = BatchedTimeIterationSolver(members).solve()
        assert outcomes["ada"].fallback_reason == "adaptive refinement"
        assert [outcomes[k].fallback_reason for k in ("p1", "p2")] == [None] * 2
        got = outcomes["ada"].result
        solo = TimeIterationSolver(ada.build_model(), ada.build_config()).solve()
        assert got.iterations == solo.iterations
        assert np.array_equal(got.error_history("rel_linf"), solo.error_history("rel_linf"))
        assert [r.points_per_state for r in got.records] == [
            r.points_per_state for r in solo.records
        ]
        assert max(got.policy.points_per_state) > 7  # refined
        for z in range(len(solo.policy)):
            assert np.array_equal(
                got.policy[z].interpolant.surplus, solo.policy[z].interpolant.surplus
            )
        # alone or stacked, a pass times the same three phases
        for outcome in outcomes.values():
            assert all(set(r.sections) == {"grid", "solve", "fit"} for r in outcome.result.records)
        # one emitter, one shape: every solve-started says whether it is stacked
        started = {e.scenario: e.detail["batched"] for e in events.by_kind("solve-started")}
        assert started == {"p1": True, "p2": True, "ada": False}
        # a member's point-solver totals count its own rows, stacked or alone
        solved = {e.scenario: e.detail["solver"]["rows"] for e in events.by_kind("solve-finished")}
        assert solved == {
            key: sum(sum(r.points_per_state) for r in outcome.result.records)
            for key, outcome in outcomes.items()
        }

    def test_hook_exception_ends_one_member_and_the_facade_reraises_it(self):
        class Boom(LookupError):
            pass

        class BrokenHook:
            def load(self):
                return None

            def on_iteration(self, policy, records, converged, config):
                raise Boom("hook broke at %d" % len(records))

        specs = [_solve_spec(f"h{i}", tau_labor=0.1 * (i + 1)) for i in range(3)]
        members = [_member(s) for s in specs]
        members[1].checkpoint = BrokenHook()
        outcomes = BatchedTimeIterationSolver(members).solve()
        assert outcomes["h0"].result.converged and outcomes["h2"].result.converged
        bad = outcomes["h1"]
        assert bad.result is None and type(bad.exception) is Boom
        assert str(bad.exception) == "hook broke at 1" and bad.exception.__traceback__ is not None
        # TimeIterationSolver.solve is that loop on a group of one: same exception out
        solo = TimeIterationSolver(specs[1].build_model(), specs[1].build_config())
        with pytest.raises(Boom, match="hook broke at 1"):
            solo.solve(checkpoint=BrokenHook())


class TestTopologyPartitioning:
    def test_signature_matches_core(self):
        spec = _solve_spec("sig")
        assert topology_signature(spec) == batch_topology(spec.build_model(), spec.build_config())

    def test_unbatchable_specs_have_no_signature(self):
        adaptive = _solve_spec("ada").with_overrides(solver={"adaptive": True})
        assert topology_signature(adaptive) is None
        experiment = ScenarioSpec("exp", kind="fig7", params={"dim": 2})
        assert topology_signature(experiment) is None

    def test_partition_groups_and_singles(self):
        a1, a2 = _solve_spec("a1", tau_labor=0.1), _solve_spec("a2", tau_labor=0.2)
        lone = _solve_spec("lone", grid_level=3)
        experiment = ScenarioSpec("exp", kind="fig7", params={"dim": 2})
        groups, singles = partition_by_topology([a1, experiment, a2, lone])
        assert groups == [[a1, a2]]  # suite order preserved within the group
        assert singles == [experiment, lone]

    def test_all_batchable_one_group(self):
        specs = [_solve_spec(f"s{i}", tau_labor=0.05 * (i + 1)) for i in range(3)]
        groups, singles = partition_by_topology(specs)
        assert groups == [specs] and singles == []


class TestScenarioLayer:
    def _sweep(self, name="batched-sweep"):
        base = _solve_spec("member")
        return ScenarioSuite.cartesian(
            name, base, {"calibration.tau_labor": [0.1, 0.15, 0.2]}
        )

    def test_run_suite_batched_matches_sequential_store(self, env_store_url):
        suite = self._sweep()
        batched = ResultsStore.open(env_store_url("batched"))
        sequential = ResultsStore.open(env_store_url("sequential"))
        report = run_suite(suite, batched, batch_topology=True)
        assert report.ok and report.count("completed") == len(suite)
        run_suite(suite, sequential)
        for spec in suite:
            entry = batched.entry(spec)
            assert entry["status"] == "completed" and entry["converged"]
            a = batched.load_result(spec)
            b = sequential.load_result(spec)
            assert _policy_diff(a, b) < TOL

    def test_kill_leaves_per_member_checkpoints_then_resumes(self, env_store_url):
        suite = self._sweep("kill-resume")
        store = ResultsStore.open(env_store_url("store"))
        # every clock reading is one interval later: each member persists at
        # each of its own boundaries, so the kill (raised by the first member
        # to reach iteration 2) finds the others' iteration 1 in the store
        clock = itertools.count(step=CHECKPOINT_SECONDS).__next__
        entries = solve_batch_and_commit(list(suite), store, interrupt_after=2, clock=clock)
        assert all(e["status"] == "interrupted" for e in entries)
        for spec in suite:
            assert store.checkpoint_ref(spec).exists(), spec.name
        # the identical re-invocation resumes every member from its own
        # checkpoint and completes the batch
        entries = solve_batch_and_commit(list(suite), store)
        reference = ResultsStore.open(env_store_url("reference"))
        run_suite(suite, reference)
        for spec, entry in zip(suite, entries):
            assert entry["status"] == "completed" and entry["resumed"]
            assert not store.checkpoint_ref(spec).exists()  # cleaned up
            assert _policy_diff(store.load_result(spec), reference.load_result(spec)) < TOL

    def test_one_members_hook_failure_fails_one_member(self, env_store_url, monkeypatch):
        # the per-scenario rule, now also in a stack: a member's checkpoint
        # hook raising fails that scenario, not the group it iterates in
        from repro.scenarios.checkpoint import SolveCheckpoint

        specs = [_solve_spec(f"m{i}", tau_labor=0.1 + 0.05 * i) for i in range(3)]
        store = ResultsStore.open(env_store_url("store"))
        unlucky = store.scenario_key(specs[1])
        real = SolveCheckpoint.on_iteration

        def disk_full(self, policy, records, converged, config):
            if unlucky in self.path.key:
                raise RuntimeError("disk full")
            return real(self, policy, records, converged, config)

        monkeypatch.setattr(SolveCheckpoint, "on_iteration", disk_full)
        entries = solve_batch_and_commit(specs, store)
        assert [e["status"] for e in entries] == ["completed", "failed", "completed"]
        assert entries[1]["error"] == "RuntimeError: disk full"
        assert "disk_full" in entries[1]["traceback"] and "disk full" in entries[1]["traceback"]
        assert store.entry(specs[1])["status"] == "failed"
        assert all(store.load_result(s).converged for s in (specs[0], specs[2]))

    def test_batched_entries_commit_individually(self, env_store_url):
        # a member hitting its iteration cap gets the same entry shape a
        # sequential solve would (completed, converged=False) while the
        # other members' converged entries land independently
        specs = [
            _solve_spec("good-1", tau_labor=0.1),
            _solve_spec("capped", tau_labor=0.15, max_iterations=2),
            _solve_spec("good-2", tau_labor=0.2),
        ]
        store = ResultsStore.open(env_store_url("store"))
        entries = solve_batch_and_commit(specs, store)
        by_name = {spec.name: e for spec, e in zip(specs, entries)}
        assert by_name["good-1"]["status"] == "completed" and by_name["good-1"]["converged"]
        assert by_name["good-2"]["status"] == "completed" and by_name["good-2"]["converged"]
        capped = by_name["capped"]
        assert capped["status"] == "completed"
        assert not capped["converged"] and capped["iterations"] == 2
