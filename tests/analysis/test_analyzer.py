"""Fixture tests for the ``repro-analyze`` rule engine and CLI.

Each shipped rule gets a positive fixture (the violation is found), a
negative fixture (the compliant idiom is not flagged) and a suppression
fixture (a reasoned ``# repro: allow`` silences it).  Fixtures are
written under a fake ``src/repro/...`` tree in ``tmp_path`` so the
rules' fnmatch scopes select them exactly as they select the real
package.  The suite ends with the self-scan gate: the shipped ``src/``
tree must analyze clean, which is the same invariant CI's ``analysis``
job enforces with ``repro-analyze src``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_paths
from repro.analysis.engine import META_RULES, parse_suppressions

REPO = Path(__file__).resolve().parents[2]


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _analyze_fixture(tmp_path, relpath: str, source: str, select=None):
    """Write one fixture file under a fake src/repro tree and analyze it."""
    path = tmp_path / "src" / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return analyze_paths([path], select=select)


def _rules_hit(result) -> list:
    return [finding.rule for finding in result.findings]


class TestAtomicWriteRule:
    def test_flags_raw_write_modes_and_incremental_writers(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/writer.py",
            """
            import json

            def persist(path, payload):
                with open(path, "w") as fh:
                    json.dump(payload, fh)
                path.write_text("done")
            """,
            select=["atomic-write"],
        )
        assert _rules_hit(result) == ["atomic-write"] * 3

    def test_read_only_open_and_nonscoped_files_are_clean(self, tmp_path):
        clean = _analyze_fixture(
            tmp_path,
            "repro/scenarios/reader.py",
            """
            def load(path):
                with open(path) as fh:
                    return fh.read()
            """,
            select=["atomic-write"],
        )
        assert clean.clean
        # the same raw write outside the scenario engine is out of scope
        elsewhere = _analyze_fixture(
            tmp_path,
            "repro/grids/io_helper.py",
            """
            def dump(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
            """,
            select=["atomic-write"],
        )
        assert elsewhere.clean

    def test_reasoned_allow_suppresses_and_is_recorded(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/tempfile_writer.py",
            """
            def write_into_temp(fd, data):
                import os
                # repro: allow[atomic-write] -- writes into the unique temp fd
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
            """,
            select=["atomic-write"],
        )
        assert result.clean
        assert len(result.suppressed) == 1
        finding, reason = result.suppressed[0]
        assert finding.rule == "atomic-write"
        assert "temp fd" in reason


class TestEventVocabularyRule:
    def _plant_vocabulary(self, tmp_path):
        tracing = tmp_path / "src" / "repro" / "parallel" / "tracing.py"
        tracing.parent.mkdir(parents=True, exist_ok=True)
        tracing.write_text('EVENT_KINDS = ("claimed", "committed")\n')

    def test_off_vocabulary_kind_is_flagged_in_vocab_case(self, tmp_path):
        self._plant_vocabulary(tmp_path)
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/worker.py",
            """
            def announce(events, worker):
                events.emit("claimed", worker)
                events.emit("comitted", worker)  # typo'd kind
            """,
            select=["event-vocabulary"],
        )
        assert _rules_hit(result) == ["event-vocabulary"]
        assert "comitted" in result.findings[0].message

    def test_kind_keyword_argument_is_also_checked(self, tmp_path):
        self._plant_vocabulary(tmp_path)
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/worker.py",
            """
            def announce(events, worker):
                events.emit(kind="stolen", worker=worker)
            """,
            select=["event-vocabulary"],
        )
        assert _rules_hit(result) == ["event-vocabulary"]


class TestNoNondeterminismRule:
    def test_clock_rng_and_unsorted_json_are_flagged(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/spec.py",
            """
            import json
            import random
            import time

            def content_hash(payload):
                payload["stamp"] = time.time()
                payload["salt"] = random.random()
                return json.dumps(payload)
            """,
            select=["no-nondeterminism"],
        )
        assert _rules_hit(result) == ["no-nondeterminism"] * 3

    def test_pure_sorted_json_is_clean(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/spec.py",
            """
            import json

            def content_hash(payload):
                return json.dumps(payload, sort_keys=True)
            """,
            select=["no-nondeterminism"],
        )
        assert result.clean

    def test_clock_reads_outside_hashed_files_are_out_of_scope(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/runner.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            select=["no-nondeterminism"],
        )
        assert result.clean


class TestBroadExceptRule:
    def test_swallowing_broad_handlers_are_flagged(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/worker.py",
            """
            def run(task):
                try:
                    task()
                except Exception:
                    pass
                try:
                    task()
                except:
                    pass
            """,
            select=["broad-except"],
        )
        assert sorted(_rules_hit(result)) == ["broad-except", "broad-except"]

    def test_reraising_and_narrow_handlers_are_clean(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/worker.py",
            """
            def run(task, log):
                try:
                    task()
                except Exception:
                    log("failed")
                    raise
                try:
                    task()
                except ValueError:
                    pass
            """,
            select=["broad-except"],
        )
        assert result.clean


class TestCacheVersionBumpRule:
    def test_mutator_without_invalidate_is_flagged(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/grids/grid.py",
            """
            class Grid:
                def __init__(self, levels):
                    self.levels = levels
                    self._version = 0

                def _invalidate_caches(self):
                    self._version += 1

                def refine(self, new_levels):
                    self.levels = new_levels  # stale caches!

                def refine_properly(self, new_levels):
                    self.levels = new_levels
                    self._invalidate_caches()
            """,
            select=["cache-version-bump"],
        )
        assert _rules_hit(result) == ["cache-version-bump"]
        assert "refine" in result.findings[0].message

    def test_classes_without_version_caches_are_exempt(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/grids/domain.py",
            """
            class Box:
                def __init__(self, lower):
                    self.lower = lower

                def shift(self, delta):
                    self.lower = self.lower + delta
            """,
            select=["cache-version-bump"],
        )
        assert result.clean


class TestSuppressionEngine:
    def test_allow_without_reason_is_itself_a_finding(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/writer.py",
            """
            def persist(path, text):
                path.write_text(text)  # repro: allow[atomic-write]
            """,
            select=["atomic-write"],
        )
        assert _rules_hit(result) == ["suppression-reason"]

    def test_stale_allow_is_reported_as_unused(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/reader.py",
            """
            def load(path):
                # repro: allow[atomic-write] -- nothing to allow anymore
                return path.read_bytes()
            """,
            select=["atomic-write"],
        )
        assert _rules_hit(result) == ["unused-suppression"]

    def test_standalone_comment_covers_the_next_code_line(self, tmp_path):
        result = _analyze_fixture(
            tmp_path,
            "repro/scenarios/writer.py",
            """
            def persist(path, text):
                # repro: allow[atomic-write] -- fixture exercises coverage
                path.write_text(text)
            """,
            select=["atomic-write"],
        )
        assert result.clean and len(result.suppressed) == 1

    def test_string_literals_are_not_mistaken_for_suppressions(self):
        source = 'MESSAGE = "use # repro: allow[atomic-write] -- like this"\n'
        assert parse_suppressions(source) == []

    def test_meta_rule_ids_stay_out_of_the_registry(self):
        assert not set(META_RULES) & set(RULES)


class TestSelfScan:
    def test_shipped_src_tree_analyzes_clean(self):
        # the same gate CI's analysis job enforces with `repro-analyze src`
        result = analyze_paths([REPO / "src"], root=REPO)
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.clean, f"shipped src/ has findings:\n{rendered}"
        assert result.files_scanned >= 40
        # every recorded suppression in shipped code carries its reason
        assert all(reason for _finding, reason in result.suppressed)


class TestCommandLine:
    def _run(self, *argv: str, cwd: Path | None = None):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv],
            cwd=cwd or REPO, env=_env_with_src(),
            capture_output=True, text=True,
        )

    def test_exit_zero_and_clean_banner_on_compliant_tree(self, tmp_path):
        target = tmp_path / "src" / "repro" / "scenarios"
        target.mkdir(parents=True)
        (target / "ok.py").write_text("def load(path):\n    return path.read_bytes()\n")
        proc = self._run(str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "clean:" in proc.stderr

    def test_exit_one_with_file_line_rule_findings(self, tmp_path):
        target = tmp_path / "src" / "repro" / "scenarios"
        target.mkdir(parents=True)
        (target / "bad.py").write_text("def save(path):\n    path.write_text('x')\n")
        proc = self._run(str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 1
        assert "src/repro/scenarios/bad.py:2:atomic-write:" in proc.stdout

    def test_exit_two_on_unknown_rule_and_missing_path(self):
        assert self._run("--select", "no-such-rule").returncode == 2
        assert self._run("definitely/not/a/path").returncode == 2

    def test_version_flag_reports_the_package_version(self):
        from repro.analysis import __version__

        proc = self._run("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"repro-analyze {__version__}"

    def test_json_envelope_schema(self, tmp_path):
        target = tmp_path / "src" / "repro" / "scenarios"
        target.mkdir(parents=True)
        (target / "bad.py").write_text("def save(path):\n    path.write_text('x')\n")
        proc = self._run("--json", str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 1
        envelope = json.loads(proc.stdout)
        assert envelope["tool"] == "repro-analyze"
        assert envelope["files_scanned"] == 1
        assert set(envelope["rules_run"]) == set(RULES)
        (finding,) = envelope["findings"]
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] == "atomic-write" and finding["line"] == 2
        assert envelope["suppressed"] == []

    def test_select_restricts_the_rules_run(self, tmp_path):
        target = tmp_path / "src" / "repro" / "scenarios"
        target.mkdir(parents=True)
        # an atomic-write violation, invisible to a broad-except-only run
        (target / "bad.py").write_text("def save(path):\n    path.write_text('x')\n")
        proc = self._run("--select", "broad-except", "--json", str(tmp_path), cwd=tmp_path)
        assert proc.returncode == 0
        envelope = json.loads(proc.stdout)
        assert envelope["rules_run"] == ["broad-except"]
        assert envelope["findings"] == []


class TestMypyLadder:
    def test_strict_modules_pass_the_configured_ladder(self):
        pytest.importorskip("mypy", reason="mypy is a CI-only install")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
