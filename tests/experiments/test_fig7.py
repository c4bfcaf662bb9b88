"""Tests for the Fig. 7 single-node experiment harness."""

import sys

import numpy as np
import pytest

from repro.experiments.fig7 import (
    PAPER_FIG7,
    format_fig7,
    run_fig7,
    solve_row_blocks,
    step_rows,
)
from repro.olg.calibration import small_calibration
from repro.olg.model import OLGModel


@pytest.fixture(scope="module")
def result():
    # the smallest meaningful instance: enough points for the modeled node
    # speedups to saturate is not required here, only harness correctness
    return run_fig7(num_generations=4, num_states=2, grid_level=2, num_threads=2)


class TestFig7:
    def test_variant_names_present(self, result):
        names = [v.name for v in result.variants]
        assert names[:2] == ["host: 1 thread", "host: 2 threads (row blocks)"]
        assert any("piz daint" in n for n in names)
        assert any("grand tave" in n for n in names)

    def test_baseline_speedup_is_one(self, result):
        assert result.variant("host: 1 thread").speedup == pytest.approx(1.0)

    def test_modeled_knl_anchor(self, result):
        """The Grand Tave entry carries the paper's ~96x own-thread speedup."""
        knl = [v for v in result.variants if "grand tave: KNL" in v.name][0]
        assert knl.speedup == pytest.approx(
            PAPER_FIG7["grand_tave_node_speedup_own_thread"], rel=0.05
        )

    def test_modeled_daint_gpu_faster_than_cpu_only(self, result):
        cpu = [v for v in result.variants if "all CPU cores" in v.name][0]
        gpu = [v for v in result.variants if "CPU + GPU" in v.name][0]
        assert gpu.speedup >= cpu.speedup

    def test_wall_times_positive(self, result):
        for v in result.variants:
            assert v.wall_time > 0

    def test_total_points_counted(self, result):
        # level-2 grid in d=3 has 2*3+1 = 7 points per state, 2 states
        assert result.total_points == 2 * 7

    def test_saturated_instance_hits_25x_anchor(self):
        """With enough grid points per node, the modeled Piz Daint node speedup
        reaches the paper's ~25x."""
        result = run_fig7(num_generations=6, num_states=4, grid_level=2, num_threads=2)
        gpu = [v for v in result.variants if "CPU + GPU" in v.name][0]
        assert gpu.speedup == pytest.approx(
            PAPER_FIG7["piz_daint_node_speedup"], rel=0.05
        )

    def test_format_output(self, result):
        text = format_fig7(result)
        assert "wall time" in text
        assert "paper anchors" in text


@pytest.mark.parametrize("num_threads", [2, 3, 16])
def test_row_blocks_equal_the_one_pass(num_threads):
    """The N-thread bar's blocks, each on its own model, solve the rows the one call does.

    The blocks run first, so the threads build the shared policy's lazy caches
    between them, with a short switch interval to interleave them.
    """
    cal = small_calibration(num_generations=4, num_states=2, beta=0.8)
    model = OLGModel(cal)
    z, rows, policy = step_rows(model, grid_level=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        blocks = solve_row_blocks([OLGModel(cal) for _ in range(num_threads)], z, rows, policy)
    finally:
        sys.setswitchinterval(interval)
    one_pass = model.solve_points_batch(z, rows, policy)
    assert blocks.shape == one_pass.shape
    np.testing.assert_allclose(blocks, one_pass, rtol=1e-9)


class TestRowBlocks:
    @pytest.fixture(scope="class")
    def step(self):
        cal = small_calibration(num_generations=4, num_states=2, beta=0.8)
        model = OLGModel(cal)
        return cal, model, *step_rows(model, grid_level=2)

    def test_step_rows_are_state_major(self, step):
        _, model, z, rows, policy = step
        X = model.domain.from_unit(policy[0].grid.points)
        np.testing.assert_array_equal(z, np.repeat([0, 1], len(X)))
        np.testing.assert_array_equal(rows, np.vstack([X, X]))

    def test_one_model_is_the_one_pass(self, step):
        cal, model, z, rows, policy = step
        np.testing.assert_array_equal(
            solve_row_blocks([OLGModel(cal)], z, rows, policy),
            model.solve_points_batch(z, rows, policy),
        )

    def test_more_models_than_rows_leaves_the_spare_models_idle(self, step):
        cal, model, z, rows, policy = step
        models = [OLGModel(cal) for _ in range(3)]
        out = solve_row_blocks(models, z[:2], rows[:2], policy)
        one_pass = model.solve_points_batch(z[:2], rows[:2], policy)
        np.testing.assert_allclose(out, one_pass, rtol=1e-9)
        assert [m.solver_totals()["newton_runs"] for m in models] == [1, 1, 0]

    def test_each_block_counts_on_its_own_model(self, step):
        """No solver counter is shared between threads: one Newton run per block's model."""
        cal, _, z, rows, policy = step
        models = [OLGModel(cal) for _ in range(4)]
        solve_row_blocks(models, z, rows, policy)
        assert [m.solver_totals()["newton_runs"] for m in models] == [1, 1, 1, 1]
