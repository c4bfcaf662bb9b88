"""Round-trip serialization of grids, policies and solve results.

Everything is written as a single ``.npz`` file whose arrays carry the
numerical state (float64, hence bit-exact round trips) plus one embedded
JSON document (``__meta__``) for the structural metadata — records, solver
configuration, domains.  Files are written atomically (temp file +
``os.replace``), so a solve killed mid-checkpoint never leaves a corrupt
file behind; the previous checkpoint survives.

Deserialized :class:`~repro.grids.grid.SparseGrid` objects start a fresh
cache epoch (derived caches dropped, rebuilt on demand), and state policies
that shared one grid object when saved — the non-adaptive time iteration
hands every discrete state the same cached regular grid — share one
reconstructed grid object again, preserving the cross-state cache-sharing
performance property described in :mod:`repro.core.policy`.

Policies are rebuilt from the stored *surpluses* via
:meth:`repro.core.policy.StatePolicy.from_surplus` (no re-hierarchization),
which is what makes checkpoint/resume bit-for-bit.

Files written before the solver stopped taking a kernel name are read
unchanged under the same :data:`FORMAT_VERSION`: their per-state kernel
name is ignored (every policy evaluates with the one production kernel)
and :func:`config_from_dict` drops the retired configuration fields, so
stored results load and checkpoints resume.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.policy import PolicySet, StatePolicy
from repro.core.time_iteration import (
    IterationRecord,
    TimeIterationConfig,
    TimeIterationResult,
)
from repro.grids.domain import BoxDomain
from repro.grids.grid import SparseGrid

__all__ = [
    "FORMAT_VERSION",
    "atomic_write",
    "is_blob_target",
    "save_grid",
    "load_grid",
    "save_policy_set",
    "load_policy_set",
    "save_result",
    "load_result",
    "record_to_dict",
    "record_from_dict",
    "config_to_dict",
    "config_from_dict",
]

FORMAT_VERSION = 1

#: :class:`TimeIterationConfig` fields older files carry that no longer exist
_RETIRED_CONFIG_FIELDS = ("kernel", "warm_start", "verbose", "damping")


def is_blob_target(target: object) -> bool:
    """Whether a save/load target is a storage-backend blob handle.

    Every writer/reader here accepts either a filesystem path or a
    :class:`repro.scenarios.backends.BlobRef`-shaped object (anything
    non-path exposing ``read_bytes``/``write_bytes``), so checkpoints and
    results flow through whichever storage backend the store selected.
    Duck-typed rather than an isinstance check to keep this module free
    of a backends import (backends build on the atomic writers below).
    """
    return (
        not isinstance(target, (str, os.PathLike))
        and hasattr(target, "read_bytes")
        and hasattr(target, "write_bytes")
    )


# --------------------------------------------------------------------------- #
# low-level npz + embedded-JSON helpers
# --------------------------------------------------------------------------- #
def atomic_write(
    path: str | os.PathLike[str], write_fn: Callable[[Any], object], text: bool = False
) -> None:
    """Write a file atomically: ``write_fn(fh)`` into a temp file, then replace.

    The temp file gets a *unique* name (``mkstemp``) in the target
    directory: concurrent writers of the same target can never append to
    each other's half-written file or unlink it — the last ``os.replace``
    wins whole.  Shared by the npz writer here and the store's JSON writer.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    tmp = Path(tmp_name)
    try:
        # repro: allow[atomic-write] -- this IS the atomic writer: the fd is a
        # unique temp file and os.replace below is the only publication step
        with os.fdopen(fd, "w" if text else "wb", **({"encoding": "utf-8"} if text else {})) as fh:
            write_fn(fh)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on failure paths
            tmp.unlink()


def _atomic_savez(path, arrays: dict, meta: dict) -> None:
    meta = dict(meta)
    meta.setdefault("format_version", FORMAT_VERSION)

    def write(fh):
        # sort_keys keeps the embedded metadata bytes independent of dict
        # insertion order, so equal results serialize bit-identically
        # repro: allow[atomic-write] -- writes into the atomic temp handle /
        # in-memory buffer handed in below, never into a final path
        np.savez_compressed(fh, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)

    if is_blob_target(path):
        buf = io.BytesIO()
        write(buf)
        # repro: allow[atomic-write] -- BlobRef.write_bytes is a wholesale
        # backend put: the object appears all-or-nothing on every backend
        path.write_bytes(buf.getvalue())
    else:
        atomic_write(path, write)


def _load_npz(path) -> tuple:
    source = io.BytesIO(path.read_bytes()) if is_blob_target(path) else Path(path)
    with np.load(source, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
        meta = json.loads(str(data["__meta__"]))
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported serialization format {version!r} in {path}")
    return arrays, meta


# --------------------------------------------------------------------------- #
# grids
# --------------------------------------------------------------------------- #
def save_grid(path, grid: SparseGrid) -> None:
    """Write a grid to ``path`` (npz; derived caches are dropped)."""
    _atomic_savez(path, grid.to_arrays(), {"payload": "grid", "dim": grid.dim})


def load_grid(path) -> SparseGrid:
    """Read a grid written by :func:`save_grid`."""
    arrays, meta = _load_npz(path)
    if meta.get("payload") != "grid":
        raise ValueError(f"{path} does not contain a grid payload")
    return SparseGrid.from_arrays(arrays["levels"], arrays["indices"])


# --------------------------------------------------------------------------- #
# policies
# --------------------------------------------------------------------------- #
def _policy_set_payload(policy: PolicySet) -> tuple:
    arrays: dict[str, np.ndarray] = {}
    states = []
    grid_slot: dict[int, int] = {}  # id(grid) -> slot of the arrays it was stored under
    for slot, sp in enumerate(policy):
        interp = sp.interpolant
        shared = grid_slot.get(id(sp.grid))
        if shared is None:
            grid_slot[id(sp.grid)] = slot
            arrays[f"levels_{slot}"] = sp.grid.levels
            arrays[f"indices_{slot}"] = sp.grid.indices
        surplus = interp.surplus
        arrays[f"surplus_{slot}"] = surplus
        arrays[f"nodal_{slot}"] = sp.nodal_values
        arrays[f"lower_{slot}"] = interp.domain.lower
        arrays[f"upper_{slot}"] = interp.domain.upper
        states.append(
            {
                "state": int(sp.state),
                "scalar_surplus": surplus.ndim == 1,
                "grid_slot": shared if shared is not None else slot,
            }
        )
    return arrays, {"payload": "policy_set", "states": states}


def _policy_set_from_payload(arrays: dict, meta: dict) -> PolicySet:
    grids: dict[int, SparseGrid] = {}
    policies = []
    for slot, state_meta in enumerate(meta["states"]):
        grid_key = int(state_meta["grid_slot"])
        grid = grids.get(grid_key)
        if grid is None:
            grid = SparseGrid.from_arrays(
                arrays[f"levels_{grid_key}"], arrays[f"indices_{grid_key}"]
            )
            grids[grid_key] = grid
        surplus = arrays[f"surplus_{slot}"]
        if state_meta.get("scalar_surplus"):
            surplus = surplus.reshape(-1)
        policies.append(
            StatePolicy.from_surplus(
                state=int(state_meta["state"]),
                grid=grid,
                surplus=surplus,
                nodal_values=arrays[f"nodal_{slot}"],
                domain=BoxDomain(arrays[f"lower_{slot}"], arrays[f"upper_{slot}"]),
            )
        )
    return PolicySet(policies)


def save_policy_set(path, policy: PolicySet) -> None:
    """Write a :class:`PolicySet` to ``path`` (single npz, shared grids kept shared)."""
    arrays, meta = _policy_set_payload(policy)
    _atomic_savez(path, arrays, meta)


def load_policy_set(path) -> PolicySet:
    """Read a policy set written by :func:`save_policy_set`."""
    arrays, meta = _load_npz(path)
    if meta.get("payload") != "policy_set":
        raise ValueError(f"{path} does not contain a policy-set payload")
    return _policy_set_from_payload(arrays, meta)


# --------------------------------------------------------------------------- #
# iteration records and solver configs
# --------------------------------------------------------------------------- #
def record_to_dict(record: IterationRecord) -> dict:
    data = dataclasses.asdict(record)
    data["points_per_state"] = [int(p) for p in data["points_per_state"]]
    return data


def record_from_dict(data: dict) -> IterationRecord:
    return IterationRecord(**data)


def config_to_dict(config: TimeIterationConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> TimeIterationConfig:
    return TimeIterationConfig(**{k: v for k, v in data.items() if k not in _RETIRED_CONFIG_FIELDS})


# --------------------------------------------------------------------------- #
# full results (also the checkpoint payload)
# --------------------------------------------------------------------------- #
def save_result(path, result: TimeIterationResult, extra_meta: dict | None = None) -> None:
    """Write a :class:`TimeIterationResult` (policy + records + config) to npz."""
    arrays, meta = _policy_set_payload(result.policy)
    meta.update(
        {
            "payload": "result",
            "records": [record_to_dict(r) for r in result.records],
            "config": config_to_dict(result.config),
            "converged": bool(result.converged),
        }
    )
    if extra_meta:
        meta["extra"] = dict(extra_meta)
    _atomic_savez(path, arrays, meta)


def load_result(path) -> TimeIterationResult:
    """Read a result written by :func:`save_result`."""
    arrays, meta = _load_npz(path)
    if meta.get("payload") != "result":
        raise ValueError(f"{path} does not contain a result payload")
    return TimeIterationResult(
        policy=_policy_set_from_payload(arrays, meta),
        records=[record_from_dict(r) for r in meta["records"]],
        converged=bool(meta["converged"]),
        config=config_from_dict(meta["config"]),
    )
