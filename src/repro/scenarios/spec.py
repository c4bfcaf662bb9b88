"""Declarative scenario specifications and sweep builders.

A :class:`ScenarioSpec` is a pure-data description of one run: which
calibration to build (overrides on top of
:func:`repro.olg.calibration.small_calibration`), how to configure the
time-iteration solver (:class:`repro.core.time_iteration.TimeIterationConfig`
overrides), and free-form tags.  Because the spec is plain data it can be
hashed (:meth:`ScenarioSpec.content_hash`), serialized to JSON, shipped to a
worker process and looked up in a :class:`repro.scenarios.store.ResultsStore`
— the hash is the identity the runner uses to skip already-solved scenarios.

Besides economic solves, a spec can describe one of the repo's experiment
harnesses (``kind`` in :data:`EXPERIMENT_KINDS`); those are dispatched by
the runner through thin ``run_scenario`` adapters in
:mod:`repro.experiments`, so paper tables/figures flow through the same
store and provenance machinery as solves.

:class:`ScenarioSuite` groups specs and offers sweep builders: a cartesian
product over dotted parameter axes and named presets (tax reforms,
demographic shifts, shock-process variants) mirroring the scenario
diversity the source paper targets.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

import numpy as np

from repro.core.time_iteration import TimeIterationConfig
from repro.grids.regular import regular_grid_size

__all__ = [
    "EXPERIMENT_ADAPTERS",
    "EXPERIMENT_KINDS",
    "KNOWN_KINDS",
    "ScenarioSpec",
    "ScenarioSuite",
    "canonical_json",
    "flatten_index_fields",
    "preset_names",
    "get_preset",
    "smoke_suite",
    "fleet_suite",
    "tax_reform_suite",
    "demographic_suite",
    "shock_process_suite",
]

#: Experiment kind -> ``"module:function"`` of its ``run_scenario(params)``
#: adapter, the kinds the runner dispatches besides ``"solve"`` (resolved
#: lazily, so importing the scenarios package stays cheap and cycle-free).
EXPERIMENT_ADAPTERS = {
    "table1": "repro.experiments.table1:run_scenario",
    "table2": "repro.experiments.table2_fig6:run_scenario",
    "fig7": "repro.experiments.fig7:run_scenario",
    "fig8": "repro.experiments.fig8:run_scenario",
    "fig9": "repro.experiments.fig9:run_scenario",
    "ablations": "repro.experiments.ablations:run_scenario",
}

EXPERIMENT_KINDS = tuple(EXPERIMENT_ADAPTERS)

KNOWN_KINDS = ("solve",) + EXPERIMENT_KINDS


def _calibration_keys() -> frozenset[str]:
    from repro.olg.calibration import small_calibration

    return frozenset(inspect.signature(small_calibration).parameters)


def _solver_keys() -> frozenset[str]:
    return frozenset(f.name for f in dataclasses.fields(TimeIterationConfig))


def _plain(value: object) -> Any:
    """Convert numpy scalars/arrays and nested containers to JSON-able data."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"scenario parameter of unsupported type {type(value).__name__}: {value!r}")


def canonical_json(data: object) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace drift)."""
    return json.dumps(_plain(data), sort_keys=True, separators=(",", ":"))


def flatten_index_fields(
    calibration: Mapping[str, Any], solver: Mapping[str, Any], params: Mapping[str, Any]
) -> dict[str, Any]:
    """Dotted-key flat dict of the spec fields a commit record carries.

    Only scalar leaves are indexable — a list- or dict-valued override
    (e.g. an explicit shock grid) is dropped rather than flattened, since
    range predicates over it would be meaningless.
    """
    flat: dict[str, Any] = {}
    for group, mapping in (
        ("calibration", calibration),
        ("solver", solver),
        ("params", params),
    ):
        for key, value in dict(mapping).items():
            if value is None or isinstance(value, (bool, int, float, str)):
                flat[f"{group}.{key}"] = value
    return flat


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: a named, hashable bundle of run parameters.

    Parameters
    ----------
    name
        Human-readable label (not part of the content hash, so renaming a
        scenario does not invalidate stored results).
    kind
        ``"solve"`` (an OLG time-iteration solve, the default) or one of
        :data:`EXPERIMENT_KINDS`.
    calibration
        Keyword overrides for :func:`repro.olg.calibration.small_calibration`
        (solve scenarios only).
    solver
        Keyword overrides for :class:`TimeIterationConfig` (solve scenarios
        only).
    params
        Keyword arguments of the experiment harness (experiment scenarios
        only).
    tags
        Free-form labels for filtering/reporting; not hashed.

    The three groups are stored as read-only views: the content hash is
    computed once per object and every store/lease key is derived from it,
    so a spec must not change under its identity.  ``spec.params["x"] = 1``
    raises; derive a variant with :meth:`with_overrides`.
    """

    name: str
    kind: str = "solve"
    calibration: Mapping[str, Any] = field(default_factory=dict)
    solver: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.kind not in KNOWN_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; expected one of {KNOWN_KINDS}")
        for group in ("calibration", "solver", "params"):
            object.__setattr__(self, group, MappingProxyType(_plain(dict(getattr(self, group)))))
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))
        if self.kind == "solve":
            if self.params:
                raise ValueError("solve scenarios take calibration/solver, not params")
            unknown = set(self.calibration) - _calibration_keys()
            if unknown:
                raise ValueError(f"unknown calibration override(s) {sorted(unknown)}")
            unknown = set(self.solver) - _solver_keys()
            if unknown:
                raise ValueError(f"unknown solver override(s) {sorted(unknown)}")
        else:
            if self.calibration or self.solver:
                raise ValueError(
                    f"{self.kind!r} scenarios take params, not calibration/solver overrides"
                )

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def content_hash(self) -> str:
        """Stable SHA-256 over the computation-defining content.

        ``name`` and ``tags`` are excluded: two scenarios that request the
        same computation share a hash (and therefore stored results), no
        matter what they are called.  A solve's hash also carries
        :data:`repro.olg.euler.STATE_CONVENTION`, the coordinates its stored
        policy lives on.  Computed once per object (the groups
        are read-only, so it cannot go stale).
        """
        return self._content_hash

    @functools.cached_property
    def _content_hash(self) -> str:
        payload: dict[str, Any] = {
            "kind": self.kind,
            "calibration": self.calibration,
            "solver": self.solver,
            "params": self.params,
        }
        if self.kind == "solve":
            # a stored policy lives on the model's state coordinates: entries
            # written under another convention are other scenarios
            from repro.olg.euler import STATE_CONVENTION

            payload["state_convention"] = STATE_CONVENTION
        return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()

    @property
    def short_hash(self) -> str:
        return self.content_hash()[:12]

    def estimated_cost(self) -> float:
        """Relative cost estimate for suite scheduling (arbitrary units).

        Used by the drain's longest-first claim order as the fallback for
        hashes the store has no recorded wall time for.  For solves the
        proxy is (sparse-grid points) x (iteration cap) x (discrete
        states): the points per state are the regular grid's exact count
        (:func:`~repro.grids.regular.regular_grid_size`) in the savers'
        dimension ``d = num_generations - 1``, and each iteration solves
        every point of every state once.  Experiment
        kinds have no comparable structure; their spec size is used as a
        weak tie-breaker.  Only *relative* order matters — the scheduler
        rescales these against recorded wall times when it has any.
        """
        return self._estimated_cost

    @functools.cached_property
    def _estimated_cost(self) -> float:
        if self.kind != "solve":
            return 1.0 + len(canonical_json(self.params))
        from repro.olg.calibration import small_calibration

        sig = inspect.signature(small_calibration).parameters
        gens = int(self.calibration.get("num_generations", sig["num_generations"].default))
        states = int(self.calibration.get("num_states", sig["num_states"].default))
        # read off the overrides, not a built config: a spec whose config
        # does not build must still sort, to fail where failures are recorded
        level = max(int(self.solver.get("grid_level", TimeIterationConfig.grid_level)), 1)
        iterations = int(self.solver.get("max_iterations", TimeIterationConfig.max_iterations))
        points = regular_grid_size(max(gens - 1, 1), level)
        return float(points * max(iterations, 1) * max(states, 1))

    # ------------------------------------------------------------------ #
    # construction of the runnable objects
    # ------------------------------------------------------------------ #
    def build_calibration(self) -> Any:
        """Instantiate the OLG calibration (solve scenarios)."""
        from repro.olg.calibration import small_calibration

        if self.kind != "solve":
            raise ValueError(f"{self.kind!r} scenarios have no calibration")
        return small_calibration(**self.calibration)

    def build_model(self) -> Any:
        """Instantiate the OLG model (solve scenarios)."""
        from repro.olg.model import OLGModel

        return OLGModel(self.build_calibration())

    def build_config(self) -> TimeIterationConfig:
        """Instantiate the time-iteration configuration (solve scenarios)."""
        if self.kind != "solve":
            raise ValueError(f"{self.kind!r} scenarios have no solver config")
        return TimeIterationConfig(**self.solver)

    # ------------------------------------------------------------------ #
    # serialization and derivation
    # ------------------------------------------------------------------ #
    def __reduce__(self) -> tuple[Any, ...]:
        # the read-only group views do not pickle; the plain-data form does
        return (ScenarioSpec.from_dict, (self.to_dict(),))

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "calibration": dict(self.calibration),
            "solver": dict(self.solver),
            "params": dict(self.params),
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            name=data["name"],
            kind=data.get("kind", "solve"),
            calibration=dict(data.get("calibration", {})),
            solver=dict(data.get("solver", {})),
            params=dict(data.get("params", {})),
            tags=tuple(data.get("tags", ())),
        )

    def with_overrides(
        self,
        name: str | None = None,
        calibration: Mapping[str, Any] | None = None,
        solver: Mapping[str, Any] | None = None,
        params: Mapping[str, Any] | None = None,
        tags: Sequence[str] | None = None,
    ) -> "ScenarioSpec":
        """Derived spec with selected fields merged over this one."""
        return ScenarioSpec(
            name=name if name is not None else self.name,
            kind=self.kind,
            calibration={**self.calibration, **dict(calibration or {})},
            solver={**self.solver, **dict(solver or {})},
            params={**self.params, **dict(params or {})},
            tags=tuple(tags) if tags is not None else self.tags,
        )

    def describe(self) -> str:
        """One-line summary used by ``--dry-run`` listings."""
        if self.kind == "solve":
            detail = canonical_json({"cal": self.calibration, "solver": self.solver})
        else:
            detail = canonical_json(self.params)
        tags = f" tags={','.join(self.tags)}" if self.tags else ""
        return f"{self.name:<32} {self.kind:<9} {self.short_hash}  {detail}{tags}"


def _axis_token(key: str, value: object) -> str:
    leaf = key.rsplit(".", 1)[-1]
    if isinstance(value, float):
        return f"{leaf}={value:g}"
    return f"{leaf}={value}"


@dataclass
class ScenarioSuite:
    """An ordered collection of scenarios run (and stored) together."""

    name: str
    scenarios: list[ScenarioSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("suite name must be non-empty")
        self.scenarios = list(self.scenarios)
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError("scenario names within a suite must be unique")

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.scenarios)

    def __getitem__(self, i: int) -> ScenarioSpec:
        return self.scenarios[i]

    def hashes(self) -> list[str]:
        return [s.content_hash() for s in self.scenarios]

    def describe(self) -> str:
        """Multi-line expansion of the suite (the ``--dry-run`` output)."""
        lines = [f"suite {self.name!r}: {len(self)} scenario(s)"]
        lines += [f"  {s.describe()}" for s in self.scenarios]
        return "\n".join(lines)

    @classmethod
    def cartesian(
        cls,
        name: str,
        base: ScenarioSpec,
        axes: Mapping[str, Sequence[Any]],
        tags: Sequence[str] = (),
    ) -> "ScenarioSuite":
        """Cartesian-product sweep over dotted parameter axes.

        ``axes`` maps dotted keys — ``"calibration.tau_labor"``,
        ``"solver.grid_level"``, or ``"params.dim"`` for experiment kinds —
        to the values to sweep.  Scenario names append ``key=value`` tokens
        to the base name.
        """
        axis_items = [(key, list(values)) for key, values in axes.items()]
        if not axis_items:
            degenerate = base.with_overrides(tags=tuple(base.tags) + tuple(tags))
            return cls(name, [degenerate])
        for key, values in axis_items:
            group = key.split(".", 1)[0]
            if group not in ("calibration", "solver", "params"):
                raise ValueError(
                    f"axis {key!r} must start with 'calibration.', 'solver.' or 'params.'"
                )
            if not values:
                raise ValueError(f"axis {key!r} has no values")
        scenarios: list[ScenarioSpec] = []
        for combo in itertools.product(*(values for _, values in axis_items)):
            overrides: dict[str, dict[str, Any]] = {"calibration": {}, "solver": {}, "params": {}}
            tokens: list[str] = []
            for (key, _values), value in zip(axis_items, combo):
                group, leaf = key.split(".", 1)
                overrides[group][leaf] = value
                tokens.append(_axis_token(key, value))
            scenarios.append(
                base.with_overrides(
                    name="-".join([base.name] + tokens),
                    calibration=overrides["calibration"],
                    solver=overrides["solver"],
                    params=overrides["params"],
                    tags=tuple(base.tags) + tuple(tags),
                )
            )
        return cls(name, scenarios)


# --------------------------------------------------------------------------- #
# named presets
# --------------------------------------------------------------------------- #
def _base_solve(name: str, **overrides: Any) -> ScenarioSpec:
    calibration: dict[str, Any] = {"num_generations": 5, "num_states": 2, "beta": 0.85}
    calibration.update(overrides.pop("calibration", {}))
    solver: dict[str, Any] = {"grid_level": 2, "tolerance": 2e-3, "max_iterations": 25}
    solver.update(overrides.pop("solver", {}))
    return ScenarioSpec(name=name, calibration=calibration, solver=solver, **overrides)


def smoke_suite() -> ScenarioSuite:
    """Two tiny solves used by CI and ``benchmarks/run_quick.sh``."""
    base = _base_solve(
        "smoke",
        calibration={"num_generations": 4, "num_states": 1, "beta": 0.8},
        solver={"max_iterations": 12, "tolerance": 1e-3},
        tags=("smoke",),
    )
    return ScenarioSuite.cartesian("smoke", base, {"calibration.tau_labor": [0.10, 0.20]})


def fleet_suite() -> ScenarioSuite:
    """Eight tiny solves for exercising multi-worker suite draining.

    Sized so a small worker fleet has real contention (more scenarios
    than workers, every solve checkpointable) while the whole suite still
    drains in seconds — the worker-fleet stress leg of
    ``benchmarks/run_quick.sh`` and the two-worker example run this.
    """
    base = _base_solve(
        "fleet",
        calibration={"num_generations": 4, "num_states": 1, "beta": 0.8},
        solver={"max_iterations": 12, "tolerance": 1e-3},
        tags=("fleet",),
    )
    return ScenarioSuite.cartesian(
        "fleet",
        base,
        {
            "calibration.tau_labor": [0.05, 0.10, 0.15, 0.20],
            "calibration.beta": [0.78, 0.82],
        },
    )


def tax_reform_suite() -> ScenarioSuite:
    """Labor/capital tax reforms, including a stochastic-tax-regime variant."""
    base = _base_solve("tax", tags=("tax-reform",))
    suite = ScenarioSuite.cartesian(
        "tax-reform",
        base,
        {
            "calibration.tau_labor": [0.10, 0.25],
            "calibration.tau_capital": [0.0, 0.15],
        },
    )
    suite.scenarios.append(
        base.with_overrides(
            name="tax-stochastic-regimes",
            calibration={"stochastic_taxes": True},
            tags=("tax-reform", "stochastic-taxes"),
        )
    )
    return ScenarioSuite("tax-reform", suite.scenarios)


def demographic_suite() -> ScenarioSuite:
    """Demographic shifts: lifecycle length (with retirement re-derived) x patience."""
    base = _base_solve("demo", tags=("demographics",))
    return ScenarioSuite.cartesian(
        "demographics",
        base,
        {
            "calibration.num_generations": [4, 5, 6],
            "calibration.beta": [0.80, 0.90],
        },
    )


def shock_process_suite() -> ScenarioSuite:
    """Shock-process variants: state count x persistence of the productivity chain."""
    base = _base_solve("shocks", tags=("shock-process",))
    return ScenarioSuite.cartesian(
        "shock-process",
        base,
        {
            "calibration.num_states": [1, 2, 4],
            "calibration.persistence": [0.6, 0.9],
        },
    )


def _table1_suite() -> ScenarioSuite:
    from repro.experiments.table1 import scenario_suite

    return scenario_suite()


def _table2_suite() -> ScenarioSuite:
    from repro.experiments.table2_fig6 import scenario_suite

    return scenario_suite()


#: Registry of named preset suites exposed by the CLI.
_PRESETS: dict[str, Callable[[], ScenarioSuite]] = {
    "smoke": smoke_suite,
    "fleet": fleet_suite,
    "tax-reform": tax_reform_suite,
    "demographics": demographic_suite,
    "shock-process": shock_process_suite,
    "table1": _table1_suite,
    "table2": _table2_suite,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def get_preset(name: str) -> ScenarioSuite:
    """Build a preset suite by name (see :func:`preset_names`)."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {preset_names()}") from None
    return factory()
