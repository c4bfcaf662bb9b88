"""Checkpoint/resume: a killed solve must reproduce the uninterrupted run."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.time_iteration import TimeIterationConfig, TimeIterationSolver
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel
from repro.parallel.tracing import EventRecorder
from repro.scenarios import serialize
from repro.scenarios.checkpoint import (
    CHECKPOINT_SECONDS,
    InterruptingCheckpoint,
    SimulatedKill,
    SolveCheckpoint,
)


@pytest.fixture(scope="module")
def checkpoint_problem():
    cal = small_calibration(num_generations=4, num_states=2, beta=0.8)
    model = OLGModel(cal)
    config = TimeIterationConfig(grid_level=2, tolerance=2e-3, max_iterations=20)
    reference = TimeIterationSolver(model, config).solve()
    assert reference.converged and reference.iterations >= 4
    return model, config, reference


@pytest.fixture(scope="module")
def long_problem(checkpoint_problem):
    """The same economy solved to 1e-8: eight iterations to place writes in."""
    model, config, _ = checkpoint_problem
    config = dataclasses.replace(config, tolerance=1e-8)
    reference = TimeIterationSolver(model, config).solve()
    assert reference.converged and reference.iterations >= 7
    return model, config, reference


class _Clock:
    """A fake clock: reads ``now`` until a test (or :func:`_paced`) moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _paced(clock: _Clock, seconds) -> EventRecorder:
    """Events for ``solve(events=...)`` that make iteration ``i`` take ``seconds(i)``.

    The loop emits ``iteration`` before it calls the checkpoint hook, so the
    hook reads the advanced clock at that iteration's boundary.
    """
    recorder = EventRecorder()

    def advance(event) -> None:
        if event.kind == "iteration":
            clock.now += seconds(event.detail["iteration"])

    recorder.subscribe(advance)
    return recorder


def _one_interval_each(clock: _Clock) -> EventRecorder:
    return _paced(clock, lambda iteration: CHECKPOINT_SECONDS)


def _policy_distance(result, reference, model):
    X = model.domain.sample(30, rng=7)
    return max(
        float(np.max(np.abs(result.policy.evaluate(z, X) - reference.policy.evaluate(z, X))))
        for z in range(model.num_states)
    )


class TestKillResumeEquivalence:
    @pytest.mark.parametrize("kill_after", [1, 3])
    def test_resumed_run_matches_uninterrupted(self, tmp_path, checkpoint_problem, kill_after):
        model, config, reference = checkpoint_problem
        path = tmp_path / f"kill{kill_after}.npz"
        killer = InterruptingCheckpoint(path, config=config, interrupt_after=kill_after)
        with pytest.raises(SimulatedKill):
            TimeIterationSolver(model, config).solve(checkpoint=killer)
        assert path.exists()

        resumed = TimeIterationSolver(model, config).solve(
            checkpoint=SolveCheckpoint(path, config=config)
        )
        # same total iteration count (resume continues, not restarts) ...
        assert resumed.iterations == reference.iterations
        assert resumed.converged == reference.converged
        # ... identical policy-change series and policies (acceptance: 1e-12)
        assert np.array_equal(resumed.error_history(), reference.error_history())
        assert np.array_equal(
            resumed.error_history("rel_linf"), reference.error_history("rel_linf")
        )
        assert _policy_distance(resumed, reference, model) <= 1e-12

    def test_resume_of_finished_solve_is_a_no_op(self, tmp_path, checkpoint_problem):
        model, config, reference = checkpoint_problem
        path = tmp_path / "done.npz"
        clock = _Clock()
        ckpt = SolveCheckpoint(path, config=config, clock=clock)
        first = TimeIterationSolver(model, config).solve(
            checkpoint=ckpt, events=_one_interval_each(clock)
        )
        assert serialize.load_result(path).converged  # the final state was due
        reloaded = SolveCheckpoint(path, config=config)
        again = TimeIterationSolver(model, config).solve(checkpoint=reloaded)
        assert reloaded.resumed and reloaded.writes == 0  # nothing new to persist
        assert again.converged and again.iterations == first.iterations
        assert _policy_distance(again, first, model) == 0.0

    def test_periodic_checkpoint_still_resumes_exactly(self, tmp_path, checkpoint_problem):
        model, config, reference = checkpoint_problem
        path = tmp_path / "at2.npz"
        # the cadence elapses during iteration 2 only, kill after the 3rd:
        # the file holds iteration 2, so the resume recomputes iterations 3..end
        clock = _Clock()
        killer = InterruptingCheckpoint(path, config=config, interrupt_after=3, clock=clock)
        events = _paced(clock, lambda i: CHECKPOINT_SECONDS if i == 2 else 0.0)
        with pytest.raises(SimulatedKill):
            TimeIterationSolver(model, config).solve(checkpoint=killer, events=events)
        saved = serialize.load_result(path)
        assert saved.iterations == 2  # last *persisted* iteration
        resumed = TimeIterationSolver(model, config).solve(
            checkpoint=SolveCheckpoint(path, config=config)
        )
        assert resumed.iterations == reference.iterations
        assert _policy_distance(resumed, reference, model) <= 1e-12

    def test_config_mismatch_is_refused(self, tmp_path, checkpoint_problem):
        model, config, _ = checkpoint_problem
        path = tmp_path / "mismatch.npz"
        killer = InterruptingCheckpoint(path, config=config, interrupt_after=1)
        with pytest.raises(SimulatedKill):
            TimeIterationSolver(model, config).solve(checkpoint=killer)
        other = TimeIterationConfig(grid_level=2, tolerance=5e-4, max_iterations=20)
        with pytest.raises(ValueError, match="different solver configuration"):
            TimeIterationSolver(model, other).solve(
                checkpoint=SolveCheckpoint(path, config=other)
            )

    def test_configless_checkpoint_records_true_config(self, tmp_path, checkpoint_problem):
        # the solver hands its real config to the hooks, so a checkpoint
        # created without one still carries correct provenance and resumes
        # under config validation
        model, config, reference = checkpoint_problem
        path = tmp_path / "noconfig.npz"
        killer = InterruptingCheckpoint(path, interrupt_after=2)  # no config
        with pytest.raises(SimulatedKill):
            TimeIterationSolver(model, config).solve(checkpoint=killer)
        assert serialize.load_result(path).config == config
        resumed = TimeIterationSolver(model, config).solve(
            checkpoint=SolveCheckpoint(path, config=config)
        )
        assert resumed.iterations == reference.iterations

    def test_final_state_written_once(self, tmp_path, checkpoint_problem):
        model, config, _ = checkpoint_problem
        path = tmp_path / "once.npz"
        clock = _Clock()
        ckpt = SolveCheckpoint(path, config=config, clock=clock)
        result = TimeIterationSolver(model, config).solve(
            checkpoint=ckpt, events=_one_interval_each(clock)
        )
        # every boundary was due; completion found the final state fresh
        assert ckpt.writes == result.iterations  # no duplicate final write
        saved = serialize.load_result(path)
        assert (saved.iterations, saved.converged) == (result.iterations, True)

    def test_short_solve_writes_no_checkpoint(self, tmp_path, checkpoint_problem):
        # a solve that ends inside its first interval serialises nothing
        # here: its result is its caller's to store
        model, config, reference = checkpoint_problem
        path = tmp_path / "short.npz"
        ckpt = SolveCheckpoint(path, config=config, clock=_Clock())  # frozen
        result = TimeIterationSolver(model, config).solve(checkpoint=ckpt)
        assert ckpt.writes == 0 and not path.exists()
        assert np.array_equal(result.error_history(), reference.error_history())

    def test_long_solve_writes_once_per_interval(self, tmp_path, long_problem):
        # 2 s per iteration: every third boundary is due (6 s >= 5 s), and
        # convergence less than one interval after a write adds no final one
        model, config, reference = long_problem
        path = tmp_path / "long.npz"
        clock = _Clock()
        ckpt = SolveCheckpoint(path, config=config, clock=clock)
        result = TimeIterationSolver(model, config).solve(
            checkpoint=ckpt, events=_paced(clock, lambda i: 2.0)
        )
        assert result.iterations == reference.iterations and result.iterations % 3
        assert ckpt.writes == result.iterations // 3
        saved = serialize.load_result(path)
        assert saved.iterations == 3 * ckpt.writes and not saved.converged

    def test_missing_checkpoint_loads_none(self, tmp_path):
        ckpt = SolveCheckpoint(tmp_path / "absent.npz")
        assert ckpt.load() is None
        assert not ckpt.resumed

    def test_delete(self, tmp_path, checkpoint_problem):
        model, config, _ = checkpoint_problem
        path = tmp_path / "del.npz"
        clock = _Clock()
        ckpt = SolveCheckpoint(path, config=config, clock=clock)
        TimeIterationSolver(model, config).solve(
            checkpoint=ckpt, events=_one_interval_each(clock)
        )
        assert path.exists()
        ckpt.delete()
        assert not path.exists()
        ckpt.delete()  # idempotent


class _KilledAt(SolveCheckpoint):
    """A real kill as iteration ``k`` ends: no last words, only what the cadence persisted.

    ``boundaries`` logs ``(clock, writes)`` after the hook ran at each boundary.
    """

    def __init__(self, path, config, clock, k: int) -> None:
        super().__init__(path, config=config, clock=clock)
        self.k = k
        self.boundaries: list = []

    def on_iteration(self, policy, records, converged, config):
        super().on_iteration(policy, records, converged, config)
        self.boundaries.append((self.clock(), self.writes))
        if len(records) == self.k:
            raise SimulatedKill(f"killed after iteration {self.k}")


class TestCadenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=6),
        seconds=st.lists(
            st.floats(min_value=0.0, max_value=2.5 * CHECKPOINT_SECONDS), min_size=6, max_size=6
        ),
    )
    def test_any_kill_on_any_clock_resumes_exactly(
        self, tmp_path_factory, long_problem, k, seconds
    ):
        model, config, reference = long_problem
        assert reference.iterations > 6  # every k kills an unfinished solve
        path = tmp_path_factory.mktemp("cadence") / "ckpt.npz"
        clock = _Clock()
        victim = _KilledAt(path, config, clock, k)
        with pytest.raises(SimulatedKill):
            TimeIterationSolver(model, config).solve(
                checkpoint=victim, events=_paced(clock, lambda i: seconds[i - 1])
            )
        # at every boundary the store is less than one interval behind, so
        # a kill anywhere loses < CHECKPOINT_SECONDS plus the iteration in flight
        persisted_at, persisted, writes = 0.0, 0, 0
        for iteration, (now, count) in enumerate(victim.boundaries, start=1):
            if count > writes:
                persisted_at, persisted, writes = now, iteration, count
            assert now - persisted_at < CHECKPOINT_SECONDS
        # what the store holds is what the log says, never newer than the kill
        assert len(victim.boundaries) == k and persisted <= k
        if persisted:
            assert serialize.load_result(path).iterations == persisted
        else:
            assert not path.exists()
        heir = SolveCheckpoint(path, config=config)
        resumed = TimeIterationSolver(model, config).solve(checkpoint=heir)
        assert heir.resumed is bool(persisted)
        assert np.array_equal(resumed.error_history(), reference.error_history())
        for got, want in zip(resumed.policy, reference.policy):
            assert np.array_equal(got.interpolant.surplus, want.interpolant.surplus)


@pytest.mark.slow
class TestAdaptiveKillResume:
    def test_adaptive_solve_resumes_bit_for_bit(self, tmp_path):
        cal = small_calibration(num_generations=4, num_states=2, beta=0.8)
        model = OLGModel(cal)
        config = TimeIterationConfig(
            grid_level=2,
            tolerance=2e-3,
            max_iterations=15,
            adaptive=True,
            refine_epsilon=5e-2,
            max_refine_level=3,
            max_points_per_state=120,
        )
        reference = TimeIterationSolver(model, config).solve()
        path = tmp_path / "adaptive.npz"
        killer = InterruptingCheckpoint(path, config=config, interrupt_after=2)
        with pytest.raises(SimulatedKill):
            TimeIterationSolver(model, config).solve(checkpoint=killer)
        resumed = TimeIterationSolver(model, config).solve(
            checkpoint=SolveCheckpoint(path, config=config)
        )
        assert resumed.iterations == reference.iterations
        assert [r.points_per_state for r in resumed.records] == [
            r.points_per_state for r in reference.records
        ]
        assert _policy_distance(resumed, reference, model) <= 1e-12
