"""Round-trip serialization of grids, policies and solve results.

Everything is written as a single ``.npz`` file (a zip archive of ``.npy``
members, readable by :func:`numpy.load`) whose arrays carry the numerical
state plus one embedded UTF-8 JSON document (``__meta__``) for the
structural metadata — records, solver configuration, state layout.  Files
are written atomically (temp file + ``os.replace``), so a solve killed
mid-checkpoint never leaves a corrupt file behind; the previous checkpoint
survives.

Each number is stored once.  A state policy stores its nodal values only:
the reader re-derives the surpluses with
:func:`~repro.grids.hierarchize.hierarchize` and rebuilds the policy via
:meth:`repro.core.policy.StatePolicy.from_surplus`.  That is bit-for-bit
the surplus the solver fitted, because ``hierarchize`` is column-separable
(a column's surplus does not depend on the columns fitted beside it), so
checkpoint/resume stays bit-exact.  Grids and boxes shared by several
states are stored once.  float64 members are stored raw — deflate barely
shrinks them and runs at a few MB/s — while grid levels, indices and the
metadata are deflated; member timestamps are fixed, so equal results
serialize to equal bytes.

Deserialized :class:`~repro.grids.grid.SparseGrid` objects start a fresh
cache epoch (derived caches dropped, rebuilt on demand), and state policies
that shared one grid object when saved — the non-adaptive time iteration
hands every discrete state the same cached regular grid — share one
reconstructed grid object again, preserving the cross-state cache-sharing
performance property described in :mod:`repro.core.policy`.

The reader reads format :data:`FORMAT_VERSION` only: a file of any other
version — including version 1, whose metadata was a ``__meta__.npy``
array beside stored surpluses — is refused with a ``ValueError`` naming
the file and its version.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import tempfile
import zipfile
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
from repro.grids.hierarchize import hierarchize

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
    "load_meta",
    "record_to_dict",
    "record_from_dict",
    "config_to_dict",
    "config_from_dict",
]

FORMAT_VERSION = 2

#: every member's timestamp (the earliest a zip entry can carry)
_EPOCH = (1980, 1, 1, 0, 0, 0)


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


def _member(archive: zipfile.ZipFile, name: str, data: bytes, deflate: bool) -> None:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED
    archive.writestr(info, data)


def _atomic_savez(path, arrays: dict, meta: dict) -> None:
    meta = dict(meta)
    meta.setdefault("format_version", FORMAT_VERSION)
    # sort_keys keeps the embedded metadata bytes independent of dict
    # insertion order, so equal results serialize bit-identically
    text = json.dumps(meta, sort_keys=True).encode("utf-8")

    def write(fh):
        with zipfile.ZipFile(fh, "w") as archive:
            _member(archive, "__meta__", text, deflate=True)
            for name, array in arrays.items():
                npy = io.BytesIO()
                np.lib.format.write_array(npy, array, allow_pickle=False)
                _member(archive, f"{name}.npy", npy.getvalue(), deflate=array.dtype.kind != "f")

    if is_blob_target(path):
        buf = io.BytesIO()
        write(buf)
        # repro: allow[atomic-write] -- BlobRef.write_bytes is a wholesale
        # backend put: the object appears all-or-nothing on every backend
        path.write_bytes(buf.getvalue())
    else:
        atomic_write(path, write)


def _open_npz(path) -> zipfile.ZipFile:
    return zipfile.ZipFile(io.BytesIO(path.read_bytes()) if is_blob_target(path) else path)


def _read_meta(archive: zipfile.ZipFile, path) -> dict:
    names = archive.namelist()
    if "__meta__" in names:
        meta = json.loads(archive.read("__meta__").decode("utf-8"))
    else:  # version 1 kept its metadata in a ``__meta__.npy`` array
        meta = {"format_version": 1 if "__meta__.npy" in names else None}
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path} is serialization format {version!r}; this reader reads "
            f"format {FORMAT_VERSION} only"
        )
    return meta


def _load_npz(path) -> tuple:
    with _open_npz(path) as archive:
        meta = _read_meta(archive, path)
        arrays: dict[str, np.ndarray] = {}
        for name in archive.namelist():
            if name.endswith(".npy"):
                with archive.open(name) as fh:
                    arrays[name[: -len(".npy")]] = np.lib.format.read_array(fh, allow_pickle=False)
    return arrays, meta


def load_meta(path) -> dict:
    """The metadata document of a file this module wrote, without reading its arrays."""
    with _open_npz(path) as archive:
        return _read_meta(archive, path)


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
    box_slot: dict[tuple, int] = {}  # the box's bytes -> slot of the arrays it was stored under
    for slot, sp in enumerate(policy):
        domain = sp.interpolant.domain
        grid_key = grid_slot.setdefault(id(sp.grid), slot)
        if grid_key == slot:
            arrays[f"levels_{slot}"] = sp.grid.levels
            arrays[f"indices_{slot}"] = sp.grid.indices
        box_key = box_slot.setdefault((domain.lower.tobytes(), domain.upper.tobytes()), slot)
        if box_key == slot:
            arrays[f"lower_{slot}"] = domain.lower
            arrays[f"upper_{slot}"] = domain.upper
        arrays[f"nodal_{slot}"] = sp.nodal_values
        states.append(
            {
                "state": int(sp.state),
                "scalar_surplus": sp.interpolant.surplus.ndim == 1,
                "grid_slot": grid_key,
                "box_slot": box_key,
            }
        )
    return arrays, {"payload": "policy_set", "states": states}


def _policy_set_from_payload(arrays: dict, meta: dict) -> PolicySet:
    grids: dict[int, SparseGrid] = {}
    boxes: dict[int, BoxDomain] = {}
    policies = []
    for slot, state_meta in enumerate(meta["states"]):
        grid_key = int(state_meta["grid_slot"])
        grid = grids.get(grid_key)
        if grid is None:
            grid = grids[grid_key] = SparseGrid.from_arrays(
                arrays[f"levels_{grid_key}"], arrays[f"indices_{grid_key}"]
            )
        box_key = int(state_meta["box_slot"])
        domain = boxes.get(box_key)
        if domain is None:
            domain = boxes[box_key] = BoxDomain(
                arrays[f"lower_{box_key}"], arrays[f"upper_{box_key}"]
            )
        nodal = arrays[f"nodal_{slot}"]
        surplus = hierarchize(grid, nodal)
        if state_meta.get("scalar_surplus"):
            surplus = surplus.reshape(-1)
        policies.append(
            StatePolicy.from_surplus(
                state=int(state_meta["state"]),
                grid=grid,
                surplus=surplus,
                nodal_values=nodal,
                domain=domain,
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
    # field by field: ``dataclasses.asdict`` would deep-copy every record on every save
    return {
        "iteration": record.iteration,
        "policy_change_linf": record.policy_change_linf,
        "policy_change_l2": record.policy_change_l2,
        "points_per_state": [int(p) for p in record.points_per_state],
        "wall_time": record.wall_time,
        "policy_change_rel_linf": record.policy_change_rel_linf,
        "policy_change_rel_l2": record.policy_change_rel_l2,
        "sections": dict(record.sections),
        "equilibrium_errors": dict(record.equilibrium_errors),
    }


def record_from_dict(data: dict) -> IterationRecord:
    return IterationRecord(**data)


def config_to_dict(config: TimeIterationConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> TimeIterationConfig:
    return TimeIterationConfig(**data)


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
