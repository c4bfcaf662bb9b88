"""Tests for the Table I experiment harness."""

import json
from dataclasses import asdict

import pytest

from repro.experiments import table1
from repro.experiments.table1 import PAPER_TABLE1, format_table1, run_table1
from repro.scenarios import ResultsStore, ScenarioSpec, solve_batch_and_commit


class TestTable1:
    def test_level3_row_matches_paper_exactly(self):
        """The reproduction hits the paper's Table I numbers for the 7k case."""
        rows = run_table1(levels=(3,))
        row = rows[0]
        assert row.num_points == PAPER_TABLE1[3]["nno"] == 7_081
        assert row.xps_per_state == PAPER_TABLE1[3]["xps_per_state"] == 237
        assert row.dim == 59
        assert row.num_states == 16

    def test_point_counts_without_building(self):
        rows = run_table1(levels=(3, 4), build_grids=False)
        assert rows[0].num_points == 7_081
        assert rows[1].num_points == 281_077
        assert rows[1].paper_num_points == 281_077

    def test_smaller_dimension_variant(self):
        rows = run_table1(dim=10, levels=(3,))
        assert rows[0].paper_num_points is None
        assert rows[0].num_points > 0
        assert rows[0].nfreq == 2

    def test_format_contains_paper_columns(self):
        rows = run_table1(levels=(3,))
        text = format_table1(rows)
        assert "7k" in text
        assert "237" in text
        assert "7081" in text

    def test_zeros_fraction_close_to_paper_quote(self):
        """Sec. IV-B quotes ~96.8% zero content after the re-coding."""
        rows = run_table1(levels=(3,))
        assert rows[0].zeros_fraction == pytest.approx(0.967, abs=0.01)


@pytest.fixture
def cold_statistics():
    """Clear the per-process statistics cache so no test depends on order."""
    table1._grid_statistics.cache_clear()
    yield
    table1._grid_statistics.cache_clear()


@pytest.mark.usefixtures("cold_statistics")
class TestScenarioAdapter:
    def test_a_second_unit_builds_no_grid(self, monkeypatch):
        first = table1.run_scenario({"dim": 2, "levels": [2], "num_states": 3})

        def no_build(*args, **kwargs):
            raise AssertionError("grid built again")

        monkeypatch.setattr(table1, "regular_sparse_grid", no_build)
        monkeypatch.setattr(table1, "compress_grid", no_build)
        second = table1.run_scenario({"dim": 2, "levels": [2], "num_states": 7})
        assert [r["num_states"] for r in second["rows"]] == [7]
        assert {**second["rows"][0], "num_states": 3} == first["rows"][0]

    @pytest.mark.parametrize(
        "params",
        [
            {"dim": 2, "levels": [2], "num_states": 5},
            {"dim": 12, "levels": [2, 3], "num_states": 4},
            {"dim": 12, "levels": [2, 3], "num_states": 4, "build_grids": False},
        ],
    )
    def test_payload_rows_are_the_dataclass_fields(self, params):
        payload = table1.run_scenario(params)
        expected = [asdict(r) for r in run_table1(**{**params, "levels": tuple(params["levels"])})]
        assert json.dumps(payload["rows"]) == json.dumps(expected)

    def test_each_row_carries_its_own_calls_num_states(self):
        for num_states in (1, 9, 4):
            payload = table1.run_scenario({"dim": 3, "levels": [2, 3], "num_states": num_states})
            assert [r["num_states"] for r in payload["rows"]] == [num_states, num_states]
            assert f"{num_states:>8}" in payload["formatted"]

    def test_a_changed_payload_leaves_the_next_one_alone(self):
        params = {"dim": 2, "levels": [2, 3], "num_states": 2}
        first = table1.run_scenario(params)
        expected = json.dumps(first)
        first["rows"][0]["nfreq"] = -99
        first["rows"][1].clear()
        first["rows"].append({})
        assert json.dumps(table1.run_scenario(params)) == expected

    def test_a_scalar_levels_fails_its_unit_by_name(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        spec = ScenarioSpec("scalar-levels", kind="table1", params={"dim": 2, "levels": 3})
        [entry] = solve_batch_and_commit([spec], store)
        assert entry["status"] == "failed"
        assert entry["error"] == "ValueError: table1 levels must be a list of grid levels, got 3"
        assert store.entry(spec)["error"] == entry["error"]
