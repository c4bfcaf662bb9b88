"""Scenario diffing: compare two store entries side by side.

``repro-scenarios diff HASH1 HASH2`` answers the reform-analysis question
the presets are built for — *what changed between these two runs, and what
did it do to the solution?* — in three layers:

* **spec deltas** — added/removed/changed keys of the calibration, solver
  and experiment-parameter dictionaries;
* **aggregate deltas** — wall time, iteration count, final error,
  convergence, points per state, straight from the committed entries;
* **policy deltas** (both entries completed solves) — the two stored
  policy sets evaluated on a common sample of the first scenario's state
  space (max/mean absolute difference per discrete state) plus
  surplus-norm summaries and, when the two scenarios share identical
  grids, the direct L-infinity distance between their surplus vectors.

Everything is computed into one plain dictionary
(:func:`diff_entries`) that serializes as the CLI's ``--json`` output;
:func:`format_diff` renders the human-readable report.

The two entries may live in *different stores on different storage
backends* (``--store-b`` in the CLI / ``store_b=`` here): comparing a
local ``file://`` run against an archived ``s3://`` entry is the
storage-backend redesign's reform-vs-baseline workflow.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.store import ResultsStore

__all__ = ["diff_entries", "format_diff"]

#: entry fields surfaced in the aggregate section (numeric -> delta)
_AGGREGATE_FIELDS = ("wall_time", "iterations", "final_error")
#: seed of the state-space sample the policy diff reads both solutions on
SAMPLE_SEED = 0


def _dict_diff(a: dict, b: dict) -> dict:
    """Key-wise diff of two flat dicts: added/removed/changed (sorted)."""
    added = {k: b[k] for k in sorted(set(b) - set(a))}
    removed = {k: a[k] for k in sorted(set(a) - set(b))}
    changed = {
        k: {"a": a[k], "b": b[k]}
        for k in sorted(set(a) & set(b))
        if a[k] != b[k]
    }
    return {"added": added, "removed": removed, "changed": changed}


def _aggregates(entry_a: dict, entry_b: dict) -> dict:
    out = {}
    for key in _AGGREGATE_FIELDS:
        va, vb = entry_a.get(key), entry_b.get(key)
        item = {"a": va, "b": vb}
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            item["delta"] = vb - va
        out[key] = item
    out["converged"] = {"a": entry_a.get("converged"), "b": entry_b.get("converged")}
    out["status"] = {"a": entry_a.get("status"), "b": entry_b.get("status")}
    out["points_per_state"] = {
        "a": entry_a.get("points_per_state"),
        "b": entry_b.get("points_per_state"),
    }
    return out


def _policy_diff(
    store_a: ResultsStore,
    store_b: ResultsStore,
    spec_a,
    hash_a: str,
    hash_b: str,
    samples: int,
) -> dict:
    result_a = store_a.load_result(hash_a)
    result_b = store_b.load_result(hash_b)
    if result_a.policy.state_dim != result_b.policy.state_dim:
        return {
            "skipped": (
                f"state-space dimensions differ "
                f"({result_a.policy.state_dim} vs {result_b.policy.state_dim}); "
                "the policies live on incomparable domains"
            )
        }
    policies_a = list(result_a.policy)
    policies_b = list(result_b.policy)
    states = min(len(policies_a), len(policies_b))
    # evaluate both solutions on one common sample of scenario A's state
    # space (the domains usually coincide; when they differ the comparison
    # is "B's policy read on A's states", which is the reform question)
    X = spec_a.build_model().domain.sample(samples, rng=SAMPLE_SEED)
    per_state = []
    for z in range(states):
        va = result_a.policy.evaluate(z, X)
        vb = result_b.policy.evaluate(z, X)
        diff = np.abs(np.asarray(va, dtype=float) - np.asarray(vb, dtype=float))
        sa = np.asarray(policies_a[z].interpolant.surplus, dtype=float)
        sb = np.asarray(policies_b[z].interpolant.surplus, dtype=float)
        same_grid = np.array_equal(
            policies_a[z].grid.levels, policies_b[z].grid.levels
        ) and np.array_equal(policies_a[z].grid.indices, policies_b[z].grid.indices)
        state_diff = {
            "state": z,
            "max_abs_policy_diff": float(diff.max()),
            "mean_abs_policy_diff": float(diff.mean()),
            "surplus_linf": {
                "a": float(np.max(np.abs(sa))),
                "b": float(np.max(np.abs(sb))),
            },
            "points": {"a": int(policies_a[z].num_points), "b": int(policies_b[z].num_points)},
            "same_grid": bool(same_grid),
        }
        if same_grid and sa.shape == sb.shape:
            state_diff["surplus_delta_linf"] = float(np.max(np.abs(sa - sb)))
        else:
            # e.g. different solver.grid_level: the surplus vectors live on
            # different grids and elementwise subtraction would be a raw
            # broadcast error — degrade to the common state-space sample
            # comparison above and say so, explicitly, in the JSON
            state_diff["surplus_delta_linf"] = None
            state_diff["surplus_note"] = (
                f"grids differ ({int(policies_a[z].num_points)} vs "
                f"{int(policies_b[z].num_points)} points); surplus vectors are "
                "not comparable elementwise — see the common-sample policy "
                "diff instead"
            )
        per_state.append(state_diff)
    return {
        "samples": int(np.asarray(X).shape[0]),
        "states_compared": states,
        "state_count_mismatch": len(policies_a) != len(policies_b),
        "max_abs_policy_diff": max((s["max_abs_policy_diff"] for s in per_state), default=0.0),
        "per_state": per_state,
    }


def diff_entries(
    store: ResultsStore,
    ref_a: str,
    ref_b: str,
    samples: int = 64,
    store_b: ResultsStore | None = None,
) -> dict:
    """Full diff of two store entries (referenced by hash or unique prefix).

    ``store_b`` resolves the second reference in a *different* store —
    possibly on a different storage backend (a local ``file://`` run
    against an ``s3://`` archive is the motivating case); it defaults to
    ``store``.  Raises ``KeyError`` for unknown/ambiguous hashes and
    ``ValueError`` for ``samples < 1``.  Policy comparison requires both
    entries to be *completed solves*; otherwise the ``policy`` section
    carries a ``skipped`` reason instead.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1 (got {samples}): the policy diff needs a point")
    store_b = store_b if store_b is not None else store
    hash_a = store.resolve_hash(ref_a)
    hash_b = store_b.resolve_hash(ref_b)
    entry_a, entry_b = store.entry(hash_a), store_b.entry(hash_b)
    if entry_a is None:
        raise KeyError(f"no committed entry for {hash_a[:16]}")
    if entry_b is None:
        raise KeyError(f"no committed entry for {hash_b[:16]}")
    try:
        spec_a, spec_b = store.load_spec(hash_a), store_b.load_spec(hash_b)
    except FileNotFoundError as exc:
        # only possible for failure entries migrated from a legacy store;
        # workers now save the spec before executing anything
        raise KeyError(f"no spec recorded for one of the entries ({exc})") from exc
    out = {
        "a": {"spec_hash": hash_a, "name": entry_a.get("name"), "kind": entry_a.get("kind")},
        "b": {"spec_hash": hash_b, "name": entry_b.get("name"), "kind": entry_b.get("kind")},
        "calibration": _dict_diff(spec_a.calibration, spec_b.calibration),
        "solver": _dict_diff(spec_a.solver, spec_b.solver),
        "params": _dict_diff(spec_a.params, spec_b.params),
        "aggregates": _aggregates(entry_a, entry_b),
    }
    if store_b is not store:
        out["a"]["store"] = store.url
        out["b"]["store"] = store_b.url
    both_solves = spec_a.kind == "solve" and spec_b.kind == "solve"
    both_complete = store.entry_is_complete(entry_a) and store_b.entry_is_complete(entry_b)
    if both_solves and both_complete:
        out["policy"] = _policy_diff(store, store_b, spec_a, hash_a, hash_b, samples)
    else:
        reason = "kinds are not both 'solve'" if not both_solves else "not both completed"
        out["policy"] = {"skipped": reason}
    return out


def _format_dict_diff(title: str, diff: dict, lines: list) -> None:
    if not (diff["added"] or diff["removed"] or diff["changed"]):
        return
    lines.append(f"{title}:")
    for key, value in diff["removed"].items():
        lines.append(f"  - {key} = {value}  (only in A)")
    for key, value in diff["added"].items():
        lines.append(f"  + {key} = {value}  (only in B)")
    for key, pair in diff["changed"].items():
        lines.append(f"  ~ {key}: {pair['a']} -> {pair['b']}")


def format_diff(diff: dict) -> str:
    """Human-readable rendering of a :func:`diff_entries` dictionary."""
    a, b = diff["a"], diff["b"]
    lines = [
        f"A: {a['name']} [{a['spec_hash'][:12]}] ({a['kind']})"
        + (f" @ {a['store']}" if "store" in a else ""),
        f"B: {b['name']} [{b['spec_hash'][:12]}] ({b['kind']})"
        + (f" @ {b['store']}" if "store" in b else ""),
    ]
    _format_dict_diff("calibration", diff["calibration"], lines)
    _format_dict_diff("solver", diff["solver"], lines)
    _format_dict_diff("params", diff["params"], lines)
    if len(lines) == 2:
        lines.append("specs: identical computation-defining content")

    agg = diff["aggregates"]
    lines.append("aggregates:")
    for key in _AGGREGATE_FIELDS:
        item = agg[key]
        if item["a"] is None and item["b"] is None:
            continue
        delta = f"  (delta {item['delta']:+.6g})" if "delta" in item else ""
        lines.append(f"  {key}: {item['a']} -> {item['b']}{delta}")
    lines.append(f"  converged: {agg['converged']['a']} -> {agg['converged']['b']}")
    if agg["points_per_state"]["a"] or agg["points_per_state"]["b"]:
        lines.append(
            f"  points_per_state: {agg['points_per_state']['a']} -> "
            f"{agg['points_per_state']['b']}"
        )

    policy = diff["policy"]
    if "skipped" in policy:
        lines.append(f"policy: comparison skipped ({policy['skipped']})")
    else:
        lines.append(
            f"policy ({policy['samples']} sample points, "
            f"{policy['states_compared']} state(s)): "
            f"max |A-B| = {policy['max_abs_policy_diff']:.6g}"
        )
        for s in policy["per_state"]:
            surplus = (
                f", surplus delta Linf {s['surplus_delta_linf']:.6g}"
                if s.get("surplus_delta_linf") is not None
                else f", {s.get('surplus_note', 'surplus delta n/a')}"
            )
            lines.append(
                f"  state {s['state']}: max {s['max_abs_policy_diff']:.6g}, "
                f"mean {s['mean_abs_policy_diff']:.6g}{surplus}"
            )
        if policy["state_count_mismatch"]:
            lines.append("  note: the scenarios have different discrete state counts")
    return "\n".join(lines)
