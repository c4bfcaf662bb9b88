"""Batched multi-scenario time iteration.

Covers the four contracts of the batched solve path:

* equivalence — a batch of one is the sequential solve bit for bit, and so
  is a stacked member: a member's bits do not depend on its group;
* convergence masking — members drop out of the batch individually, each
  with its own iteration history;
* one stack rule — the loop stacks what it is given and refuses, before
  any load or event, a group that cannot share a stack (adaptive members,
  two grid levels, two structures); every unit the partition makes is one
  it accepts; a member's own exception ends that member only;
* scenario-layer integration — ``run_suite`` stacking every group, and
  kill/resume leaving per-member checkpoints the next run resumes from.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.batched import BatchedTimeIterationSolver, BatchMember
from repro.core.time_iteration import TimeIterationSolver
from repro.grids.regular import regular_grid_size
from repro.olg.euler import StructuralMismatch, structure_key
from repro.olg.model import OLGModel
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
from repro.scenarios import batching
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


def _assert_same_bits(a, b) -> None:
    """Two results of one spec: equal surpluses and iteration histories."""
    assert a.iterations == b.iterations
    assert np.array_equal(a.error_history(), b.error_history())
    for got, want in zip(a.policy, b.policy):
        assert np.array_equal(got.interpolant.surplus, want.interpolant.surplus)


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
            assert out.result.converged and seq.converged
            # a member's bits do not depend on its group
            _assert_same_bits(out.result, seq)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_single_member_batch(self, adaptive):
        spec = _solve_spec("solo")
        if adaptive:
            spec = spec.with_overrides(
                solver={"adaptive": True, "max_refine_level": 3, "max_points_per_state": 40}
            )
        outcomes = BatchedTimeIterationSolver([_member(spec)]).solve()
        out = outcomes["solo"]
        assert out.result.converged
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

    def test_a_stack_whose_first_member_leaves_first(self):
        # the pass iterates on its first active member's grid: after the
        # first member converges the next one's grid takes over, and the
        # remaining members still equal their solo solves bit for bit
        specs = [
            _solve_spec(f"s{i}", num_states=2, tau_labor=0.1 * (i + 1), tolerance=tol)
            for i, tol in enumerate([3e-2, TOL, TOL])
        ]
        grids: dict[int, list] = {}

        class GridsPerPass:  # a checkpoint hook that only watches the new policies
            def load(self):
                return None

            def on_iteration(self, policy, records, converged, config):
                grids.setdefault(len(records), []).append([sp.grid for sp in policy])

            def on_complete(self, policy, records, converged, config):
                pass

        members = [_member(s, checkpoint=GridsPerPass()) for s in specs]
        outcomes = BatchedTimeIterationSolver(members).solve()
        first, *rest = [outcomes[s.name].result for s in specs]
        assert first.converged and all(r.converged for r in rest)
        assert first.iterations < min(r.iterations for r in rest)
        for spec, result in zip(specs[1:], rest):
            solo = TimeIterationSolver(spec.build_model(), spec.build_config()).solve()
            _assert_same_bits(result, solo)
        assert len(grids) == max(r.iterations for r in rest)
        for iteration, seen in grids.items():
            assert len(seen) == sum(r.iterations >= iteration for r in [first, *rest])
            assert all(g is h for other in seen for g, h in zip(other, seen[0]))

    def test_the_pass_builds_its_group_from_its_own_rows(self):
        # a model class's stacked_group is built by every pass of two or more
        # members, with each member's rows of that pass: points x shock states
        counts: list[list[int]] = []

        class Recording(OLGModel):
            @classmethod
            def stacked_group(cls, models, rows):
                from repro.olg.stacked import StackedOLGGroup

                counts.append(list(rows))
                return StackedOLGGroup(models, rows)

        specs = [
            _solve_spec(f"r{i}", num_states=2, tau_labor=0.1 * (i + 1), tolerance=tol)
            for i, tol in enumerate([1e-2, TOL, 1e-4])
        ]

        def member(spec):
            model = Recording(spec.build_calibration())
            return BatchMember(key=spec.name, model=model, config=spec.build_config())

        solver = BatchedTimeIterationSolver([member(s) for s in specs])
        assert counts == [[0, 0, 0]]  # the constructor's structural check, on no rows
        counts.clear()
        outcomes = solver.solve()
        iterations = [outcomes[s.name].result.iterations for s in specs]
        assert len(set(iterations)) == 3  # the stack shrinks from three to two to one
        rows = regular_grid_size(3, 2) * 2  # 4 generations -> 3 savers, level 2; 2 states
        active = [sum(n >= i for n in iterations) for i in range(1, max(iterations) + 1)]
        assert counts == [[rows] * k for k in active if k > 1]  # never a group of one
        BatchedTimeIterationSolver([member(specs[0])]).solve()
        TimeIterationSolver(Recording(specs[1].build_calibration())).solve()
        assert counts == [[rows] * k for k in active if k > 1]

    def test_capped_member_leaves_batch_while_others_continue(self):
        specs = [_solve_spec("capped", max_iterations=3), _solve_spec("full")]
        outcomes = BatchedTimeIterationSolver([_member(s) for s in specs]).solve()
        capped, full = outcomes["capped"].result, outcomes["full"].result
        assert not capped.converged and capped.iterations == 3
        assert full.converged and full.iterations > 3

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


class TestStackRule:
    def test_non_finite_member_stays_stacked_and_ends_at_its_cap(self):
        # a time-iteration update is a deterministic function of the previous
        # iterate, so there is nothing to redo: the member whose model returns
        # a non-finite row keeps its place, never meets its tolerance and
        # stops at its cap — without touching its stack-mates' columns
        mates = [_solve_spec("m1", tau_labor=0.1), _solve_spec("m2", tau_labor=0.2)]
        bad = _solve_spec("bad", tau_labor=0.15, max_iterations=4)

        # no group solver: every member's rows go through its own
        # solve_points_batch, which the poisoned class overrides
        class Other(OLGModel):
            stacked_group = None

        class Poisoned(Other):
            def solve_points_batch(self, z, X, policy, guesses=None):
                out = np.array(super().solve_points_batch(z, X, policy, guesses), dtype=float)
                out[0] = np.nan
                return out

        def member(spec, model_cls=Other):
            model = model_cls(spec.build_calibration())
            return BatchMember(key=spec.name, model=model, config=spec.build_config())

        def run(model_cls):
            members = [*map(member, mates), member(bad, model_cls)]
            return BatchedTimeIterationSolver(members).solve()

        outcomes, without = run(Poisoned), run(Other)
        out = outcomes["bad"]
        assert out.exception is None
        assert not out.result.converged and out.result.iterations == 4
        for spec in mates:
            got, ref = outcomes[spec.name], without[spec.name]
            assert got.exception is None and got.result.converged
            assert got.result.iterations == ref.result.iterations
            for z in range(len(ref.result.policy)):
                assert np.array_equal(
                    got.result.policy[z].interpolant.surplus,
                    ref.result.policy[z].interpolant.surplus,
                )

    @pytest.mark.parametrize(
        "other, error",
        [
            ({"solver": {"adaptive": True, "max_refine_level": 3}}, "adaptive"),
            ({"solver": {"grid_level": 3}}, "one grid"),
            ({"calibration": {"gamma": 3.0}}, "calibration structures differ"),
        ],
        ids=["adaptive", "two-levels", "two-gammas"],
    )
    def test_a_group_that_cannot_share_a_stack_is_refused_before_it_starts(
        self, other, error
    ):
        # which solves stack is decided before the loop (topology_signature);
        # the loop refuses a group that breaks that rule, before any member
        # loads a checkpoint or emits an event
        class Untouched:
            def load(self):
                raise AssertionError("a refused group loads no checkpoint")

        events = EventRecorder()
        first = _solve_spec("first", tau_labor=0.1)
        second = first.with_overrides(name="second", **other)
        members = [
            _member(s, checkpoint=Untouched(), events=events, scenario=s.name)
            for s in (first, second)
        ]
        with pytest.raises(ValueError, match=error) as refused:
            BatchedTimeIterationSolver(members)
        assert isinstance(refused.value, StructuralMismatch) == ("calibration" in other)
        assert events.events == []

    def test_a_model_without_a_group_solver_stacks_through_its_own_rows(self):
        # a model class without stacked_group still stacks: each member's rows
        # go through its own solve_points_batch, and each member equals its solo solve
        class Ungrouped(OLGModel):
            stacked_group = None

        specs = [_solve_spec("u1", tau_labor=0.1), _solve_spec("u2", tau_labor=0.2)]
        events = EventRecorder()
        members = [
            BatchMember(
                key=s.name,
                model=Ungrouped(s.build_calibration()),
                config=s.build_config(),
                events=events,
                scenario=s.name,
            )
            for s in specs
        ]
        outcomes = BatchedTimeIterationSolver(members).solve()
        started = {e.scenario: e.detail["batched"] for e in events.by_kind("solve-started")}
        assert started == {"u1": True, "u2": True}
        for spec in specs:
            out = outcomes[spec.name]
            assert out.exception is None and out.result.converged
            solo = TimeIterationSolver(
                Ungrouped(spec.build_calibration()), spec.build_config()
            ).solve()
            _assert_same_bits(out.result, solo)

    def test_a_stacked_pair_reports_its_stack_and_a_solo_solve_does_not(self):
        pair = [_solve_spec("p1", tau_labor=0.1), _solve_spec("p2", tau_labor=0.2)]
        ada = _solve_spec("ada", max_iterations=3).with_overrides(
            solver={"adaptive": True, "max_refine_level": 3, "max_points_per_state": 40}
        )
        events = EventRecorder()
        outcomes = BatchedTimeIterationSolver(
            [_member(s, events=events, scenario=s.name) for s in pair]
        ).solve()
        solo = _member(ada, events=events, scenario="ada")
        outcomes |= BatchedTimeIterationSolver([solo]).solve()
        assert max(outcomes["ada"].result.policy.points_per_state) > 7  # refined
        # stacked or alone, a pass times the same three phases
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
    @pytest.mark.parametrize("generations, states, level", [(4, 1, 2), (5, 2, 3), (8, 3, 2)])
    def test_signature_is_the_structure_key_and_the_level(
        self, generations, states, level, monkeypatch
    ):
        spec = _solve_spec("sig", grid_level=level, num_generations=generations, num_states=states)
        expected = (structure_key(spec.build_calibration()), level)

        def unbuilt(spec):
            raise AssertionError("the signature is read without building the model")

        monkeypatch.setattr(ScenarioSpec, "build_model", unbuilt)
        assert topology_signature(spec) == expected

    def test_unbatchable_specs_have_no_signature(self):
        adaptive = _solve_spec("ada").with_overrides(solver={"adaptive": True})
        assert topology_signature(adaptive) is None
        experiment = ScenarioSpec("exp", kind="fig7", params={"dim": 2})
        assert topology_signature(experiment) is None

    def test_partition_units_keep_the_order_given(self):
        a1, a2 = _solve_spec("a1", tau_labor=0.1), _solve_spec("a2", tau_labor=0.2)
        lone = _solve_spec("lone", grid_level=3)
        experiment = ScenarioSpec("exp", kind="fig7", params={"dim": 2})
        # a unit comes where its first spec comes
        assert partition_by_topology([a1, experiment, a2, lone]) == [[a1, a2], [experiment], [lone]]
        assert partition_by_topology([lone, a2, experiment, a1]) == [[lone], [a2, a1], [experiment]]

    def test_all_batchable_one_group(self):
        specs = [_solve_spec(f"s{i}", tau_labor=0.05 * (i + 1)) for i in range(3)]
        assert partition_by_topology(specs) == [specs]

    def test_a_stack_carries_at_most_its_point_budget(self, monkeypatch):
        specs = [_solve_spec(f"s{i}", tau_labor=0.05 * (i + 1)) for i in range(5)]
        points = regular_grid_size(3, 2)  # 4 generations -> 3 savers, level 2
        monkeypatch.setattr(batching, "_STACK_POINTS", 2 * points + 1)
        assert partition_by_topology(specs) == [specs[0:2], specs[2:4], [specs[4]]]
        monkeypatch.setattr(batching, "_STACK_POINTS", points - 1)
        assert partition_by_topology(specs) == [[s] for s in specs]  # too big to stack

    def test_every_unit_of_a_mixed_suite_is_a_stack_the_loop_takes(self):
        # the one rule: whatever the partition stacks, the Euler system
        # accepts; a structural difference is a unit of its own
        base = _solve_spec("base", num_states=2)
        variants = {
            "tau": {"calibration": {"tau_labor": 0.2}},
            "beta": {"calibration": {"beta": 0.75}},
            "persistence": {"calibration": {"persistence": 0.6}},
            "gamma": {"calibration": {"gamma": 3.0}},
            "gamma-too": {"calibration": {"gamma": 3.0, "tau_labor": 0.2}},
            "theta": {"calibration": {"theta": 0.4}},
            "older": {"calibration": {"num_generations": 5}},
            "states": {"calibration": {"num_states": 1}},
            "level": {"solver": {"grid_level": 3}},
            "ada": {"solver": {"adaptive": True}},
        }
        specs = [base] + [base.with_overrides(name=n, **o) for n, o in variants.items()]
        specs.append(ScenarioSpec("exp", kind="fig7", params={"dim": 2}))
        units = partition_by_topology(specs)
        names = [[s.name for s in unit] for unit in units]
        assert [n for n in names if len(n) > 1] == [
            ["base", "tau", "beta", "persistence"],
            ["gamma", "gamma-too"],
        ]
        assert sorted(n for unit in names for n in unit) == sorted(s.name for s in specs)
        for unit in units:
            if len(unit) > 1:
                models = [s.build_model() for s in unit]
                rows = models[0].num_states * regular_grid_size(models[0].state_dim, 2)
                OLGModel.stacked_group(models, [rows] * len(unit))
                BatchedTimeIterationSolver([_member(s) for s in unit])


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
        report = run_suite(suite, batched)
        assert report.ok and report.count("completed") == len(suite)
        started = [e for e in batched.events() if e.get("kind") == "solve-started"]
        assert len(started) == len(suite) and all(e["batched"] for e in started)
        for spec in suite:  # the reference: each spec solved in a group of one
            [entry] = solve_batch_and_commit([spec], sequential)
            assert entry["status"] == "completed"
        for spec in suite:
            entry = batched.entry(spec)
            assert entry["status"] == "completed" and entry["converged"]
            _assert_same_bits(batched.load_result(spec), sequential.load_result(spec))

    def test_run_suite_refuses_to_turn_stacking_off(self, env_store_url):
        store = ResultsStore.open(env_store_url("store"))
        with pytest.raises(ValueError, match="batch_topology must be True"):
            run_suite(self._sweep(), store, batch_topology=False)

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
