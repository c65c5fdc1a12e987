"""Declarative campaign descriptions.

A :class:`CampaignSpec` says *what* to measure -- fault model, target
kernel/pipeline, trial count, scenario grid -- and nothing about *how*
it runs (worker count, artifact paths): the same spec therefore hashes
to the same :meth:`~CampaignSpec.content_hash` whether it executes
serially on a laptop or sharded across a pool, which is what makes
resume (:mod:`repro.campaigns.artifacts`) safe.

Specs follow the ``repro.api.config`` conventions: frozen keyword-only
dataclasses, eager ``__post_init__`` validation, and lossless
``to_dict``/``from_dict`` round-tripping so campaigns can live in JSON
next to the pipeline configs they exercise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.partition import _check_no_unknown_keys
from repro.faults.models import (
    FaultModel,
    IntermittentFault,
    PermanentFault,
    TransientFault,
)

#: Prefix a grid axis with this to sweep a fault parameter instead of
#: a target parameter: ``{"fault.probability": (1e-3, 1e-2)}``.
FAULT_AXIS_PREFIX = "fault."


def _build_transient(params: dict, rng) -> FaultModel:
    bit_range = params.get("bit_range")
    return TransientFault(
        params.get("probability", 1e-3),
        rng,
        bit_range=None if bit_range is None else tuple(bit_range),
    )


def _build_intermittent(params: dict, rng) -> FaultModel:
    return IntermittentFault(
        burst_start=params.get("burst_start", 1e-3),
        burst_end=params.get("burst_end", 0.5),
        rng=rng,
    )


def _build_permanent(params: dict, rng) -> FaultModel:
    return PermanentFault(bit=params.get("bit", 30), rng=rng)


#: kind -> (allowed parameter names, builder).  The builder takes the
#: spec's parameter dict and an **explicit** generator -- campaign
#: trials never rely on a fault model's default stream.
FAULT_KINDS: dict[str, tuple[frozenset[str], Any]] = {
    "transient": (
        frozenset({"probability", "bit_range"}), _build_transient
    ),
    "intermittent": (
        frozenset({"burst_start", "burst_end"}), _build_intermittent
    ),
    "permanent": (frozenset({"bit"}), _build_permanent),
}


def _normalise(value: Any) -> Any:
    """Make a parameter value canonical and JSON-stable.

    Tuples/lists become tuples recursively so that equality and
    hashing are insensitive to whether the spec came from Python
    literals or a JSON file.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_normalise(v) for v in value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True, kw_only=True)
class FaultSpec:
    """Serialisable description of a fault model.

    ``kind`` selects from :data:`FAULT_KINDS`; ``params`` are the
    model's constructor arguments.  :meth:`build` requires an explicit
    generator: the engine hands every trial its own spawned stream
    (see :mod:`repro.campaigns.seeding`), so two models built from the
    same spec never share or replay a stream.
    """

    kind: str = "transient"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )
        allowed, _ = FAULT_KINDS[self.kind]
        unknown = set(self.params) - allowed
        if unknown:
            raise ValueError(
                f"fault kind {self.kind!r} does not accept "
                f"{sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        object.__setattr__(
            self,
            "params",
            {key: _normalise(v) for key, v in self.params.items()},
        )
        # Surface bad parameter values (probability out of range, bit
        # out of range, ...) at spec-construction time, not mid-shard.
        # repro: allow[RNG-SEED] -- throwaway validation generator,
        # discarded immediately; trial streams come from
        # campaigns.seeding's spawned SeedSequences.
        self.build(np.random.default_rng(0))

    def build(self, rng: np.random.Generator) -> FaultModel:
        """Instantiate the fault model on an explicit stream."""
        if rng is None:
            raise ValueError(
                "FaultSpec.build requires an explicit Generator; "
                "campaign trials must not share a default stream"
            )
        _, builder = FAULT_KINDS[self.kind]
        return builder(self.params, rng)

    def override(self, **params: Any) -> FaultSpec:
        """A copy with some parameters replaced (grid sweeps)."""
        return replace(self, params={**self.params, **params})

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": {
                key: _jsonable(v) for key, v in sorted(self.params.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> FaultSpec:
        _check_no_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class CampaignCell:
    """One point of a campaign's scenario grid.

    ``overrides`` maps axis names (as written in the spec's grid) to
    this cell's values; ``params`` is the merged target parameter set
    and ``fault`` the merged fault spec.
    """

    index: int
    overrides: dict[str, Any]
    fault: FaultSpec
    params: dict[str, Any]


@dataclass(frozen=True, kw_only=True)
class CampaignSpec:
    """Everything the campaign engine needs to run an experiment.

    Attributes
    ----------
    name:
        Display name, carried into reports and artifact manifests.
    target:
        Key into :data:`repro.api.CAMPAIGN_TARGETS` -- the per-trial
        experiment (``"reliable_conv"``, ``"pipeline"``,
        ``"baseline"``, ``"checkpoint_segment"``, or a registered
        extension).
    fault:
        Base fault model; grid axes prefixed ``"fault."`` override
        its parameters per cell.
    trials:
        Trials **per grid cell**.
    seed:
        Root seed; every trial derives an independent stream from it
        (:func:`repro.campaigns.seeding.trial_seed`).
    grid:
        Scenario axes: ``{axis: (value, ...)}``.  Cells are the cross
        product, enumerated with axis names sorted and values in the
        order given.  Axes without the ``"fault."`` prefix override
        ``target_params``.
    target_params:
        Base keyword parameters for the target runner.
    atol:
        Tolerance handed to outcome classification.
    shard_size:
        Trials per shard -- the unit of parallel dispatch, artifact
        granularity and resume.
    """

    name: str = "campaign"
    target: str = "reliable_conv"
    fault: FaultSpec = field(default_factory=FaultSpec)
    trials: int = 100
    seed: int = 0
    grid: dict[str, tuple] = field(default_factory=dict)
    target_params: dict[str, Any] = field(default_factory=dict)
    atol: float = 0.0
    shard_size: int = 64

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if not self.target:
            raise ValueError("target must be non-empty")
        if not isinstance(self.fault, FaultSpec):
            raise TypeError("fault must be a FaultSpec")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.atol < 0:
            raise ValueError("atol must be non-negative")
        grid = {}
        for axis, values in self.grid.items():
            if not isinstance(axis, str) or not axis:
                raise ValueError("grid axes must be non-empty strings")
            values = _normalise(values)
            if not isinstance(values, tuple) or not values:
                raise ValueError(
                    f"grid axis {axis!r} needs a non-empty sequence "
                    "of values"
                )
            grid[axis] = values
        object.__setattr__(self, "grid", grid)
        object.__setattr__(
            self,
            "target_params",
            {k: _normalise(v) for k, v in self.target_params.items()},
        )
        # Building the cells validates every fault-axis combination.
        self.cells()

    # -- grid -------------------------------------------------------------
    def cells(self) -> tuple[CampaignCell, ...]:
        """The scenario cells, in deterministic enumeration order.

        Computed once and cached on the (frozen, hence immutable)
        spec: every shard execution indexes into this, and rebuilding
        the cross product -- with its eager per-cell fault validation
        -- per shard would cost O(cells) work per lookup.
        """
        cached = getattr(self, "_cells", None)
        if cached is not None:
            return cached
        axes = sorted(self.grid)
        combos = itertools.product(*(self.grid[a] for a in axes))
        cells = []
        for index, combo in enumerate(combos):
            overrides = dict(zip(axes, combo))
            fault = self.fault
            params = dict(self.target_params)
            fault_overrides = {}
            for axis, value in overrides.items():
                if axis.startswith(FAULT_AXIS_PREFIX):
                    key = axis[len(FAULT_AXIS_PREFIX):]
                    fault_overrides[key] = value
                else:
                    params[axis] = value
            if fault_overrides:
                fault = fault.override(**fault_overrides)
            cells.append(
                CampaignCell(
                    index=index,
                    overrides=overrides,
                    fault=fault,
                    params=params,
                )
            )
        object.__setattr__(self, "_cells", tuple(cells))
        return self._cells

    @property
    def n_cells(self) -> int:
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n

    @property
    def total_trials(self) -> int:
        return self.n_cells * self.trials

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "fault": self.fault.to_dict(),
            "trials": self.trials,
            "seed": self.seed,
            "grid": {
                axis: [_jsonable(v) for v in values]
                for axis, values in sorted(self.grid.items())
            },
            "target_params": {
                key: _jsonable(v)
                for key, v in sorted(self.target_params.items())
            },
            "atol": self.atol,
            "shard_size": self.shard_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> CampaignSpec:
        _check_no_unknown_keys(cls, data)
        data = dict(data)
        if "fault" in data and isinstance(data["fault"], dict):
            data["fault"] = FaultSpec.from_dict(data["fault"])
        return cls(**data)

    def content_hash(self) -> str:
        """Stable digest of the experiment's identity.

        Execution knobs (worker count, artifact dir) are not part of
        the spec, so two runs with the same hash are guaranteed the
        same trial set and the same per-trial streams -- the resume
        precondition.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()
