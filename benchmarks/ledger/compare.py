"""Compare two sets of ledger runs: `compare.py A/ B/`.

``A`` is the base (parent commit, or the first set of a same-code check),
``B`` the candidate.  Each directory holds the ``<workload>.run<k>.json``
records that ``run.py --out`` writes, several runs per workload.  For every
workload x end-to-end metric this prints both medians and quartiles, the
candidate/base ratio, the share of run pairs the candidate wins and a
verdict under the rules of the metrics guide:

* ``regressed``  — the candidate's median is worse than the base's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — not regressed, but the base's own quartile spread is
  wider than the bound and the candidate does not beat the base on every run;
* ``improved``   — the candidate wins at least nine tenths of the pairs and
  the medians differ by more than the base's quartile spread;
* ``unchanged``  — everything else.

Exit code 1 when any pairing regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """workload -> its untraced run records, in file order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.run*.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], cand: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(cand)
    worse_by = sign * (c2 - b2) / abs(b2)
    spread = (b3 - b1) / abs(b2)
    pairs = [(b, c) for b in base for c in cand]
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_share = wins / len(pairs)
    if worse_by > bound:
        word = "regressed"
    elif spread > bound and losses:
        word = "unresolved"
    elif win_share >= 0.9 and abs(c2 - b2) > (b3 - b1):
        word = "improved"
    else:
        word = "unchanged"
    return {
        "base": (b1, b2, b3),
        "candidate": (c1, c2, c3),
        "ratio": c2 / b2,
        "spread": spread,
        "win_share": win_share,
        "verdict": word,
    }


def compare(base_dir: Path, cand_dir: Path, definition: dict) -> list[dict]:
    base_runs, cand_runs = load_runs(base_dir), load_runs(cand_dir)
    rows = []
    for workload in (w["name"] for w in definition["workloads"]):
        if workload not in base_runs or workload not in cand_runs:
            continue
        for metric in definition["end_to_end"]:
            name = metric["name"]
            values = [
                [run["metrics"][name]["value"] for run in runs[workload]]
                for runs in (base_runs, cand_runs)
            ]
            row = verdict(*values, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"], **row})
        for label, runs in (("base", base_runs), ("candidate", cand_runs)):
            failed = sum(run["failed"] for run in runs[workload])
            if failed:
                rows.append(
                    {"workload": workload, "metric": f"failed checks ({label})", "failed": failed}
                )
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(Path(args[0]), Path(args[1]), definition)
    if not rows:
        print("no workload has runs in both directories", file=sys.stderr)
        return 2
    regressed = False
    for row in rows:
        if "failed" in row:
            print(f"{row['workload']:<18} {row['metric']}: {row['failed']}")
            regressed = True
            continue
        b1, b2, b3 = row["base"]
        c1, c2, c3 = row["candidate"]
        print(
            f"{row['workload']:<18} {row['metric']:<20} "
            f"base {b2:.6g} [{b1:.6g}, {b3:.6g}] {row['unit']}  "
            f"candidate {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"ratio {row['ratio']:.4f} of base {b2:.6g}  spread {row['spread']:.3f}  "
            f"wins {row['win_share']:.2f}  {row['verdict']}"
        )
        regressed = regressed or row["verdict"] == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
