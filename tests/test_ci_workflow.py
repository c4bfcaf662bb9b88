"""Local validation of the CI pipeline definition (act-style).

CI only helps if the workflow file itself is kept honest: valid YAML,
jobs that exist, commands that reference scripts actually in the repo,
and a test matrix that really covers two python versions.  These tests
run in tier-1, so a PR that breaks the pipeline definition fails before
it ever reaches GitHub.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

REPO = Path(__file__).resolve().parents[1]
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow() -> dict:
    assert WORKFLOW.exists(), "the CI workflow file is missing"
    return yaml.safe_load(WORKFLOW.read_text())


def _run_commands(job: dict) -> list:
    return [step["run"] for step in job["steps"] if "run" in step]


class TestWorkflowStructure:
    def test_valid_yaml_with_required_jobs(self, workflow):
        assert workflow["name"] == "CI"
        assert set(workflow["jobs"]) >= {"tests", "bench", "lint"}

    def test_triggers_cover_push_and_pr(self, workflow):
        # YAML 1.1 parses the bare key `on` as boolean True
        triggers = workflow.get("on", workflow.get(True))
        assert "pull_request" in triggers and "push" in triggers

    def test_matrix_covers_two_python_versions(self, workflow):
        versions = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
        assert len(set(versions)) >= 2

    def test_every_job_checks_out_and_sets_up_python(self, workflow):
        for name, job in workflow["jobs"].items():
            uses = [step.get("uses", "") for step in job["steps"]]
            assert any(u.startswith("actions/checkout@") for u in uses), name
            assert any(u.startswith("actions/setup-python@") for u in uses), name


class TestJobsReferenceRealThings:
    def test_tests_job_runs_tier1_command(self, workflow):
        commands = " && ".join(_run_commands(workflow["jobs"]["tests"]))
        assert "PYTHONPATH=src" in commands
        assert re.search(r"python -m pytest -x -q", commands)

    def test_bench_job_script_exists_and_is_executable(self, workflow):
        commands = " && ".join(_run_commands(workflow["jobs"]["bench"]))
        match = re.search(r"bash (\S+\.sh)", commands)
        assert match, "bench job must invoke a shell script"
        script = REPO / match.group(1)
        assert script.exists(), f"{script} referenced by ci.yml does not exist"
        assert os.access(script, os.X_OK) or script.suffix == ".sh"

    def test_bench_script_gates_perf_and_resume(self):
        script = (REPO / "benchmarks" / "run_quick.sh").read_text()
        assert "--interrupt-after" in script  # the kill/resume smoke sweep

    def test_lint_job_runs_ruff_and_config_exists(self, workflow):
        commands = " && ".join(_run_commands(workflow["jobs"]["lint"]))
        assert "ruff check" in commands
        assert "ruff format --check" in commands
        assert "[tool.ruff]" in (REPO / "pyproject.toml").read_text()

    def test_repo_respects_configured_line_length(self, workflow):
        # the lint job enforces E501 at line-length 100 in CI; catch
        # violations locally so the PR does not bounce there
        config = (REPO / "pyproject.toml").read_text()
        limit = int(re.search(r"line-length = (\d+)", config).group(1))
        offenders = []
        for folder in ("src", "tests", "examples", "benchmarks"):
            for path in sorted((REPO / folder).rglob("*.py")):
                for lineno, line in enumerate(path.read_text().splitlines(), 1):
                    if len(line) > limit and "noqa" not in line:  # ruff honours noqa
                        offenders.append(f"{path.relative_to(REPO)}:{lineno} ({len(line)})")
        assert not offenders, f"lines over {limit} chars: " + ", ".join(offenders[:10])


class TestPipelineExtensions:
    """PR 4 additions: pip caching, mem:// leg, file:// + s3:// sweeps."""

    def test_every_setup_python_caches_pip(self, workflow):
        # pip installs are cached keyed on pyproject.toml in every job
        for name, job in workflow["jobs"].items():
            setups = [
                step for step in job["steps"]
                if step.get("uses", "").startswith("actions/setup-python@")
            ]
            assert setups, name
            for step in setups:
                assert step["with"].get("cache") == "pip", name
                assert step["with"].get("cache-dependency-path") == "pyproject.toml", name

    def test_matrix_has_mem_store_leg(self, workflow):
        matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
        legs = matrix.get("include", [])
        mem = [leg for leg in legs if leg.get("store-url") == "mem://"]
        assert mem, "tests matrix needs a REPRO_STORE_URL=mem:// leg"
        commands = " && ".join(_run_commands(workflow["jobs"]["tests"]))
        assert "REPRO_STORE_URL" in commands
        assert "tests/scenarios" in commands

    def test_bench_script_sweeps_file_and_object_store(self):
        # the kill/resume + diff smoke sweep must run against both a
        # file:// URL and an object-store URL (acceptance criterion)
        script = (REPO / "benchmarks" / "run_quick.sh").read_text()
        assert 'smoke_sweep "file://' in script
        assert 'smoke_sweep "s3://' in script
        assert "--store-b" in script  # cross-backend diff leg


class TestCompactionAndFixtureCache:
    """PR 5 additions: compaction smoke leg + grid-fixture caching."""

    def test_bench_script_compacts_the_object_store_sweep(self):
        # the s3:// sweep is compacted, then show/diff re-run against the
        # compacted store (commit-log lifecycle acceptance)
        script = (REPO / "benchmarks" / "run_quick.sh").read_text()
        compact_at = script.index("scenarios compact")
        assert "--grace 0" in script
        # show and diff run again AFTER the compaction
        assert "scenarios show" in script[compact_at:]
        assert "scenarios diff" in script[compact_at:]
        assert "COMMIT_LOG_PREFIX" in script  # asserts the fold actually happened

    def test_jobs_cache_session_scope_grid_fixtures(self, workflow):
        # the expensive session fixtures are cached across CI runs, keyed
        # on src/ so the cache dies with the code that produced it
        for name in ("tests", "bench"):
            job = workflow["jobs"][name]
            caches = [
                step for step in job["steps"]
                if step.get("uses", "").startswith("actions/cache@")
            ]
            assert caches, f"{name} job must restore the fixture cache"
            assert "repro-fixtures" in caches[0]["with"]["path"], name
            assert "hashFiles('src/**'" in caches[0]["with"]["key"], name
            # unpinned deps (numpy) change the bit-exact fixture values;
            # the key must carry the resolved-environment fingerprint too
            assert "steps.deps.outputs.hash" in caches[0]["with"]["key"], name
            commands = " && ".join(_run_commands(job))
            assert "pip freeze" in commands, name
            assert "REPRO_TEST_FIXTURE_CACHE" in commands, name

    def test_conftest_honours_the_fixture_cache_variable(self):
        conftest = (REPO / "tests" / "conftest.py").read_text()
        assert "REPRO_TEST_FIXTURE_CACHE" in conftest


class TestObservability:
    """PR 7 additions: fleet run report generated + uploaded per run."""

    def test_bench_script_reports_on_the_fleet_drain(self):
        # the SIGKILL-steal fleet leg must render the HTML run report and
        # assert the telemetry recorded >= 1 steal and every completion
        script = (REPO / "benchmarks" / "run_quick.sh").read_text()
        assert "scenarios report" in script
        assert "--format html" in script
        assert 'QUICK_REPORT_OUT="${QUICK_REPORT_OUT:-' in script  # overridable
        assert 'data["steals"] >= 1' in script
        assert "committed == expected" in script

    def test_bench_job_uploads_fleet_report_artifact(self, workflow):
        job = workflow["jobs"]["bench"]
        uploads = [
            step for step in job["steps"]
            if step.get("uses", "").startswith("actions/upload-artifact@")
        ]
        report_uploads = [
            step for step in uploads if "fleet-report.html" in step["with"]["path"]
        ]
        assert report_uploads, "bench job must upload the fleet run report"
        assert report_uploads[0]["with"]["if-no-files-found"] == "ignore"
        commands = " && ".join(_run_commands(job))
        assert "QUICK_REPORT_OUT" in commands


class TestBatchedSolveGate:
    """PR 8's batched-solve gate, retired for the layered ledger, plus its workflow hygiene."""

    def test_bench_job_runs_the_ledger_self_checks(self, workflow):
        # the ledger wraps model/solver/driver/store entry points from
        # outside; its smoke tests fail loudly when one disappears
        commands = _run_commands(workflow["jobs"]["bench"])
        assert "PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q" in commands
        assert (REPO / "benchmarks" / "ledger" / "test_ledger.py").exists()
        assert (REPO / "BENCHMARK.json").exists()

    def test_bench_job_runs_the_fast_examples(self, workflow):
        # nothing else runs examples/, so a default 35x slower than it had to be went unseen
        commands = _run_commands(workflow["jobs"]["bench"])
        for example in ("convergence_study.py", "olg_public_finance.py"):
            assert any(f"PYTHONPATH=src python examples/{example} --fast" in c for c in commands)
            source = (REPO / "examples" / example).read_text()
            assert '"--fast"' in source and "--threads" not in source

    def test_bench_job_guards_the_point_solve_call_counts(self, workflow):
        # exact counts from a traced smoke run of the level-3 sweep: no
        # scipy call, no stalled row, few residual calls per Newton run
        guard = [
            c for c in _run_commands(workflow["jobs"]["bench"]) if "benchmarks/ledger/run.py" in c
        ]
        assert len(guard) == 1
        assert "--workload batched-sweep-l3 --scale smoke --traced" in guard[0]
        assert 'result["failed"] == 0' in guard[0]
        assert 'value["olg.solver.polish.calls"] == 0' in guard[0]
        assert 'value["olg.solver.stalled_rows"] == 0' in guard[0]
        assert 'value["olg.solver.residual_evals_per_solve"] <= 15' in guard[0]
        # one basis pass per residual call serves every successor state: what
        # is left over is a fixed number of kernel calls per pass
        assert 'passes = value["olg.solver.calls"]' in guard[0]
        calls = 'value["olg.solver.residual_evals_per_solve"] * passes'
        assert f"residual_calls = {calls}" in guard[0]
        assert 'value["core.kernels.calls"] - residual_calls <= 10 * passes' in guard[0]
        # a solve shorter than one checkpoint interval serialises its result only
        assert 'value["scenarios.checkpoint.writes"] == 0' in guard[0]
        assert 'value["scenarios.serialize.calls"] == 4' in guard[0]
        # ... and the bytes put and objects deleted per drained unit of the
        # store workload: one event flush and one lease delete each
        assert "--workload store-write --scale smoke --traced" in guard[0]
        assert guard[0].count('result["failed"] == 0') == 2
        assert 'value["scenarios.backends.put_kib"] / 40 <= 12' in guard[0]
        assert 'value["scenarios.backends.delete_calls"] == 40' in guard[0]

    def test_only_the_bench_job_installs_scipy(self, workflow):
        # traced ledger runs import scipy.optimize; everywhere else the
        # runtime's numpy-only import guard must run without scipy present
        for name, job in workflow["jobs"].items():
            installs = [c for c in _run_commands(job) if "pip install -e" in c]
            if name == "bench":
                assert any('pip install -e ".[bench]"' in c for c in installs)
            else:
                assert not any("bench" in c or "scipy" in c for c in installs), name
        extras = (REPO / "pyproject.toml").read_text()
        assert 'dependencies = ["numpy>=1.23"]' in extras and 'bench = ["scipy>=1.9"]' in extras

    def test_batched_over_sequential_guard_is_gone(self, workflow):
        # the default solve is a batch of one now, so batched / sequential
        # on a 7-point grid measures cross-scenario stacking only
        script = (REPO / "benchmarks" / "run_quick.sh").read_text()
        assert "bench_solve" not in script and "BENCH_SOLVE_OUT" not in script
        assert not (REPO / "benchmarks" / "bench_solve.py").exists()
        assert not (REPO / "BENCH_solve.json").exists()
        assert "bench_solve" not in (REPO / ".github" / "workflows" / "ci.yml").read_text()

    def test_concurrency_cancels_superseded_pr_runs(self, workflow):
        group = workflow["concurrency"]
        assert "github.ref" in group["group"]
        # PR pushes cancel the in-flight run; main pushes run to completion
        assert "pull_request" in str(group["cancel-in-progress"])

    def test_matrix_covers_python_313(self, workflow):
        versions = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
        assert "3.13" in versions
        assert len(set(versions)) >= 3

    def test_format_check_is_blocking(self, workflow):
        steps = workflow["jobs"]["lint"]["steps"]
        format_steps = [s for s in steps if "ruff format --check" in s.get("run", "")]
        assert format_steps, "lint job must run ruff format --check"
        assert not format_steps[0].get("continue-on-error", False), (
            "the format check must be blocking, not advisory"
        )

    def test_bytecode_is_ignored_and_untracked(self):
        gitignore = (REPO / ".gitignore").read_text()
        assert "__pycache__/" in gitignore
        assert "*.pyc" in gitignore
        assert "fleet-report.html" in gitignore
        import subprocess

        tracked = subprocess.run(
            ["git", "ls-files", "*.pyc", "**/__pycache__/*"],
            cwd=REPO, capture_output=True, text=True,
        )
        if tracked.returncode == 0:  # not all environments have the repo's git
            assert tracked.stdout.strip() == "", (
                f"bytecode files are tracked: {tracked.stdout}"
            )


class TestQueryIndexPipeline:
    """PR 9 additions: MinIO conformance job + store-query smoke leg."""

    def test_minio_job_runs_conformance_against_real_s3(self, workflow):
        job = workflow["jobs"].get("minio")
        assert job, "CI needs the containerized-MinIO conformance job"
        services = job.get("services", {})
        minio = services.get("minio", {})
        assert "minio" in minio.get("image", ""), minio
        assert "9000:9000" in [str(p) for p in minio.get("ports", [])]
        env = job.get("env", {})
        assert env.get("REPRO_S3_ENDPOINT", "").startswith("http://"), env
        assert "AWS_ACCESS_KEY_ID" in env and "AWS_SECRET_ACCESS_KEY" in env
        commands = " && ".join(_run_commands(job))
        # boto3 is a CI-only install: the library itself must not need it
        assert "boto3" in commands
        assert "boto3" not in (REPO / "pyproject.toml").read_text(), (
            "boto3 must stay a CI-only install, not a package dependency"
        )
        assert "create_bucket" in commands, "the test bucket must be created up front"
        assert "tests/scenarios/test_backend_contract.py" in commands

    def test_conftest_reroutes_s3_urls_onto_live_endpoint(self):
        conftest = (REPO / "tests" / "scenarios" / "conftest.py").read_text()
        assert "REPRO_S3_ENDPOINT" in conftest
        assert "test-bucket" in conftest

    def test_bench_script_queries_the_compacted_sweep(self):
        # the query smoke leg must run over the already-compacted s3://
        # sweep so the answer provably comes out of the folded snapshot
        script = (REPO / "benchmarks" / "run_quick.sh").read_text()
        compact_at = script.index("scenarios compact")
        query_at = script.index("scenarios query")
        assert query_at > compact_at, "query smoke must follow compaction"
        assert "tau_labor>0.15" in script
        assert "--status completed" in script
        assert "len(matches) == 1" in script


class TestStaticAnalysisGate:
    """PR 10 additions: invariant analyzer job, mypy ladder, s3:// leg."""

    def test_analysis_job_runs_analyzer_and_mypy(self, workflow):
        job = workflow["jobs"].get("analysis")
        assert job, "CI needs the blocking invariant-analyzer job"
        commands = " && ".join(_run_commands(job))
        assert "repro-analyze src" in commands, "the analyzer must scan src/"
        assert "repro-analyze --version" in commands
        assert "mypy" in commands, "the job must run the mypy ladder"
        # blocking: no step may be advisory
        assert not any(step.get("continue-on-error") for step in job["steps"])

    def test_analyzer_console_script_is_declared(self):
        config = (REPO / "pyproject.toml").read_text()
        # :run wraps main() with SIGPIPE tolerance for `--list-rules | head`
        assert 'repro-analyze = "repro.analysis.__main__:run"' in config

    def test_mypy_ladder_is_configured(self):
        config = (REPO / "pyproject.toml").read_text()
        assert "[tool.mypy]" in config
        # the strict rung must cover the concurrent store/lease stack
        for module in (
            "repro.scenarios.backends",
            "repro.scenarios.lease",
            "repro.scenarios.store",
            "repro.scenarios.spec",
        ):
            assert module in config, f"mypy strict rung must include {module}"
        assert "disallow_untyped_defs = true" in config
        assert "strict_equality = true" in config

    def test_matrix_has_s3_store_leg_with_ttl_override(self, workflow):
        matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
        legs = matrix.get("include", [])
        s3 = [leg for leg in legs if leg.get("store-url") == "s3://"]
        assert s3, "tests matrix needs a REPRO_STORE_URL=s3:// leg"
        assert float(s3[0].get("lease-ttl", 0)) > 30.0, (
            "the s3 leg must raise the lease TTL for object-store latency"
        )
        commands = " && ".join(_run_commands(workflow["jobs"]["tests"]))
        assert "REPRO_LEASE_TTL" in commands

    def test_invariants_doc_covers_every_shipped_rule(self):
        # every rule the analyzer ships must be documented with its
        # motivating incident; a rule without a documented rationale is
        # unreviewable when it fires
        import subprocess
        import sys

        doc = (REPO / "docs" / "INVARIANTS.md").read_text()
        listing = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            cwd=REPO, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert listing.returncode == 0, listing.stderr
        rule_ids = [
            line.split()[0]
            for line in listing.stdout.splitlines()
            if line.strip() and not line[0].isspace()
        ]
        assert len(rule_ids) >= 5
        # retry is structural (StorageBackend's public ops), not a lint rule
        assert "retry-wrapped" not in rule_ids
        for rule_id in rule_ids:
            assert f"`{rule_id}`" in doc, f"docs/INVARIANTS.md must document {rule_id}"
