#!/usr/bin/env bash
# Quick verification: tier-1 tests followed by a 2-scenario CLI smoke sweep
# (with a kill/resume leg) run against BOTH a file:// store and an s3://
# object-store URL (bundled in-process fake server) and a worker-fleet
# stress, so scenario-engine and storage-backend regressions surface
# alongside correctness failures.  Performance is tracked by the layered
# ledger (benchmarks/ledger/), whose self-checks CI runs as its own step.
# Usage: benchmarks/run_quick.sh
#   QUICK_REPORT_OUT=<path> overrides where the fleet run report lands
#   (CI sets it to a persistent path and uploads it per run).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest -q

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# --- scenario-engine smoke sweep through the CLI ------------------------- #
# The same sweep must work unchanged against any store URL; run it once on
# the local-filesystem backend and once on the object-store backend.
smoke_sweep() {
    local store_url="$1" fresh_url="$2"
    echo "=== smoke sweep against $store_url ==="
    python -m repro.scenarios run smoke --store "$store_url" --dry-run
    # first pass is killed after one iteration (checkpoint survives) ...
    python -m repro.scenarios run smoke --store "$store_url" --interrupt-after 1 || true
    # ... the resumable checkpoints show up in the resume listing ...
    python -m repro.scenarios resume --store "$store_url"
    # ... and the identical re-invocation resumes from them and completes
    python -m repro.scenarios run smoke --store "$store_url"
    python -m repro.scenarios show --store "$store_url"
    # the two smoke entries differ only in tau_labor; diff must say so
    python -m repro.scenarios diff \
        "$(python -c 'from repro.scenarios import get_preset; print(get_preset("smoke")[0].content_hash())')" \
        "$(python -c 'from repro.scenarios import get_preset; print(get_preset("smoke")[1].content_hash())')" \
        --store "$store_url"

    SCENARIO_STORE_URL="$store_url" SCENARIO_FRESH_URL="$fresh_url" python - <<'EOF'
import os, numpy as np
from repro.scenarios import ResultsStore, get_preset, run_suite

store = ResultsStore.open(os.environ["SCENARIO_STORE_URL"])
suite = get_preset("smoke")
entries = [store.entry(s) for s in suite]
assert all(e and e["status"] == "completed" for e in entries), entries
assert all(e["resumed"] for e in entries), "smoke sweep should have resumed from checkpoints"

# resumed results must match uninterrupted solves of the same specs
fresh = ResultsStore.open(os.environ["SCENARIO_FRESH_URL"])
run_suite(suite, fresh)
for spec in suite:
    a, b = store.load_result(spec), fresh.load_result(spec)
    assert a.iterations == b.iterations
    X = spec.build_model().domain.sample(20, rng=0)
    diff = max(
        float(np.max(np.abs(a.policy.evaluate(z, X) - b.policy.evaluate(z, X))))
        for z in range(len(a.policy))
    )
    assert diff <= 1e-12, f"{spec.name}: resumed vs uninterrupted policy diff {diff}"
print(f"scenario smoke OK on {store.url}: killed sweep resumed bit-for-bit "
      "and was skipped-by-hash safe")
EOF
}

smoke_sweep "file://$SCRATCH/store" "file://$SCRATCH/store-fresh"
smoke_sweep "s3://quick-bench/sweep?endpoint=$SCRATCH/object-store" \
            "s3://quick-bench/sweep-fresh?endpoint=$SCRATCH/object-store"

# --- cross-backend diff: file:// entry vs object-store entry ------------- #
python -m repro.scenarios diff \
    "$(python -c 'from repro.scenarios import get_preset; print(get_preset("smoke")[0].content_hash())')" \
    "$(python -c 'from repro.scenarios import get_preset; print(get_preset("smoke")[1].content_hash())')" \
    --store "file://$SCRATCH/store" \
    --store-b "s3://quick-bench/sweep?endpoint=$SCRATCH/object-store"

# --- commit-log compaction smoke ------------------------------------------ #
# Fold the s3:// sweep's per-commit objects into a snapshot checkpoint,
# then re-run show/diff against the compacted store: every answer must
# come out of one snapshot object plus the (empty) un-folded tail.
S3_STORE="s3://quick-bench/sweep?endpoint=$SCRATCH/object-store"
python -m repro.scenarios compact --store "$S3_STORE" --grace 0
python -m repro.scenarios show --store "$S3_STORE"
python -m repro.scenarios diff \
    "$(python -c 'from repro.scenarios import get_preset; print(get_preset("smoke")[0].content_hash())')" \
    "$(python -c 'from repro.scenarios import get_preset; print(get_preset("smoke")[1].content_hash())')" \
    --store "$S3_STORE"

SCENARIO_STORE_URL="$S3_STORE" python - <<'EOF'
import os
from repro.scenarios import ResultsStore, get_preset
from repro.scenarios.backends import COMMIT_LOG_PREFIX, SNAPSHOT_PREFIX

store = ResultsStore.open(os.environ["SCENARIO_STORE_URL"])
assert store.backend.list(COMMIT_LOG_PREFIX) == [], "compaction left per-commit objects"
assert len(store.backend.list(SNAPSHOT_PREFIX)) == 1, "expected exactly one snapshot"
suite = get_preset("smoke")
assert set(store.index()) == set(suite.hashes())
assert all(store.has(s) for s in suite)
print(f"compaction smoke OK on {store.url}: one snapshot answers index/show/diff")
EOF

# --- store-query smoke ----------------------------------------------------- #
# Commit records carry the spec fields, so a calibration-field predicate
# over the CLI must answer out of the snapshot the sweep above was just
# folded into.  The smoke preset's two scenarios differ only in tau_labor
# (0.10 vs 0.20), so tau_labor>0.15 selects exactly the high-tax one.
python -m repro.scenarios query --store "$S3_STORE" \
    --where "tau_labor>0.15" --status completed
python -m repro.scenarios query --store "$S3_STORE" \
    --where "tau_labor>0.15" --status completed --json > "$SCRATCH/query.json"
QUERY_JSON="$SCRATCH/query.json" python - <<'EOF'
import json, os

matches = json.load(open(os.environ["QUERY_JSON"]))
assert len(matches) == 1, f"expected exactly 1 high-tax match, got {len(matches)}"
record = matches[0]
assert record["status"] == "completed", record
assert record["calibration.tau_labor"] > 0.15, record
print(f"store-query smoke OK: tau_labor>0.15 matched {record['name']} "
      "out of the folded commit log")
EOF

# --- worker-fleet stress: lease-coordinated drain with a SIGKILL --------- #
# One worker starts draining the 8-scenario fleet suite and is SIGKILLed
# mid-solve (lease + checkpoint left behind); two late-joining workers
# must steal the expired lease, resume the dead worker's checkpoint and
# finish the drain — every scenario completed exactly-once-effective,
# zero lease objects remaining.
FLEET_STORE="s3://quick-bench/fleet?endpoint=$SCRATCH/object-store"
echo "=== worker-fleet stress against $FLEET_STORE ==="
python -m repro.scenarios work fleet --store "$FLEET_STORE" \
    --ttl 2 --poll 0.2 --worker-id victim &
VICTIM=$!
# SIGKILL the victim the moment it holds a lease: its import alone takes
# ~1 s, and a victim killed before its first claim leaves no steal to assert
FLEET_STORE_URL="$FLEET_STORE" VICTIM_PID="$VICTIM" python - <<'EOF'
import os, signal, sys, time
from repro.scenarios import ResultsStore

store = ResultsStore.open(os.environ["FLEET_STORE_URL"])
deadline = time.monotonic() + 20.0
claimed = False
while not claimed and time.monotonic() < deadline:
    time.sleep(0.1)
    claimed = any(lease.get("worker") == "victim" for lease in store.leases())
os.kill(int(os.environ["VICTIM_PID"]), signal.SIGKILL)
if not claimed:
    sys.exit("worker-fleet stress: the victim never claimed a lease in 20 s")
EOF
wait "$VICTIM" 2>/dev/null || true
python -m repro.scenarios work fleet --store "$FLEET_STORE" \
    --ttl 2 --poll 0.2 --worker-id survivor-1 &
W1=$!
python -m repro.scenarios work fleet --store "$FLEET_STORE" \
    --ttl 2 --poll 0.2 --worker-id survivor-2 &
W2=$!
wait "$W1"
wait "$W2"
python -m repro.scenarios status --store "$FLEET_STORE"
FLEET_STORE_URL="$FLEET_STORE" python - <<'EOF'
import os
from repro.scenarios import ResultsStore, get_preset

store = ResultsStore.open(os.environ["FLEET_STORE_URL"])
suite = get_preset("fleet")
index = store.index()
assert set(index) == set(suite.hashes()), (
    f"drained {len(index)}/{len(set(suite.hashes()))} scenarios"
)
assert all(e["status"] == "completed" for e in index.values()), index
assert store.leases() == [], f"lease objects left behind: {store.leases()}"
assert store.parked() == [], f"scenarios parked: {store.parked()}"
print(f"worker-fleet stress OK on {store.url}: {len(index)} scenario(s) drained "
      "exactly-once-effective after SIGKILL; zero lease objects remain")
EOF

# --- run report over the fleet drain -------------------------------------- #
# Render the self-contained HTML run report from the stressed store's event
# feed and verify the telemetry recorded the drain faithfully: the SIGKILL
# must show up as >= 1 steal, and every scenario's completion must appear
# as a committed event.  CI sets QUICK_REPORT_OUT to a persistent path and
# uploads the report as a per-run artifact.
export QUICK_REPORT_OUT="${QUICK_REPORT_OUT:-$SCRATCH/fleet-report.html}"
python -m repro.scenarios report --store "$FLEET_STORE" \
    --format html -o "$QUICK_REPORT_OUT"
FLEET_STORE_URL="$FLEET_STORE" python - <<'EOF'
import os
from repro.scenarios import ResultsStore, get_preset
from repro.scenarios.report import gather_run_data

store = ResultsStore.open(os.environ["FLEET_STORE_URL"])
data = gather_run_data(store)
assert data["steals"] >= 1, (
    "the SIGKILLed victim's lease was never stolen "
    f"(event counts: {data['event_counts']})"
)
committed = {
    e.get("scenario") for e in store.events() if e.get("kind") == "committed"
}
expected = {store.scenario_key(s) for s in get_preset("fleet")}
assert committed == expected, (
    f"committed events cover {len(committed)}/{len(expected)} scenarios"
)
html = open(os.environ["QUICK_REPORT_OUT"]).read()
assert html.startswith("<!DOCTYPE html>") and "<svg" in html
assert "<script" not in html and "href=" not in html, "report is not self-contained"
print(f"run report OK: {os.environ['QUICK_REPORT_OUT']} records "
      f"{data['steals']} steal(s) and {len(committed)} completion(s)")
EOF
