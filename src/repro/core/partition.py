"""Partitioning a CNN into reliable (DCNN) and non-reliable execution.

The paper's insight: "not all classifications may be relevant for
reliability purposes and hence not all layers or portions of layers
need be executed reliably."  A :class:`HybridPartition` names exactly
which filters of which layers form the dependable CNN; everything else
runs natively.  It is also the serialisable description of that
split: :class:`repro.api.PipelineConfig` nests it as ``partition``,
and the hybrid interchange format (:mod:`repro.hybridir`) stores it
through that config.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field, fields

from repro.nn.layers.conv import Conv2D
from repro.nn.network import Sequential
from repro.reliable.operators import operator_kinds, operator_multiplier


def _check_no_unknown_keys(cls, data: dict) -> None:
    """The ``from_dict`` guard of every config dataclass: reject keys
    that name no field of ``cls``."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"{cls.__name__}: unknown keys {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )


def _filter_indices(name: str, filters) -> tuple[int, ...]:
    """Layer ``name``'s filter list as a tuple of ints.  Entries must
    already be integers (NumPy integers too): a float, a bool or a
    string names no filter, so it raises instead of being rounded or
    parsed."""
    if not isinstance(filters, (str, bytes)):
        try:
            if not any(isinstance(f, bool) for f in filters):
                return tuple(operator.index(f) for f in filters)
        except TypeError:
            pass
    raise ValueError(
        f"filters of layer {name!r} must be a list of integers, "
        f"got {filters!r}"
    )


@dataclass(frozen=True)
class HybridPartition:
    """Which portions of the network execute reliably.

    Validates eagerly and round-trips losslessly through
    :meth:`to_dict`/:meth:`from_dict`; JSON-style filter lists
    normalise to tuples, so ``from_dict(to_dict(p)) == p``.

    Attributes
    ----------
    reliable_filters:
        Mapping of convolution-layer name -> filter indices executed
        through qualified operators.  The paper postulates "the
        determination of one (three dimensional) filter in the first
        convolutional layer"; the working default here is *two*
        filters of ``conv1`` (a Sobel-x and a Sobel-y stack) because
        the qualifier needs a direction-free edge magnitude --
        a single directional filter leaves gaps in contours parallel
        to its direction (see
        :meth:`repro.core.qualifier.ShapeQualifier.check_feature_map`).
    bifurcation_layer:
        Name of the layer whose reliable output bifurcates into the
        qualifier path (Figure 2).  Must be a key of
        ``reliable_filters``.
    redundancy:
        Operator kind for the reliable portion: ``"dmr"``, ``"tmr"``,
        or any kind registered with
        :func:`repro.reliable.operators.register_operator`.  The
        reliable portion runs under the reliable conv's engine policy
        (:func:`repro.reliable.executor.resolve_engine`).
    """

    reliable_filters: dict[str, tuple[int, ...]] = field(
        default_factory=lambda: {"conv1": (0, 1)}
    )
    bifurcation_layer: str = "conv1"
    redundancy: str = "dmr"

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "reliable_filters",
            {
                name: _filter_indices(name, filters)
                for name, filters in self.reliable_filters.items()
            },
        )
        if self.bifurcation_layer not in self.reliable_filters:
            raise ValueError(
                f"bifurcation layer {self.bifurcation_layer!r} has no "
                "reliable filters configured"
            )
        if self.redundancy not in operator_kinds():
            raise ValueError(
                f"redundancy must be a registered operator kind "
                f"({operator_kinds()}), got {self.redundancy!r}"
            )
        if operator_multiplier(self.redundancy) < 2:
            # A single-execution operator (e.g. "plain") qualifies its
            # own result by assumption; a partition built on it would
            # certify verdicts with zero fault detection.  The
            # dependable CNN must actually be redundant.
            raise ValueError(
                f"redundancy {self.redundancy!r} executes only once per "
                "operation; the reliable partition requires a redundant "
                "operator (executions_per_op >= 2)"
            )
        for name, filters in self.reliable_filters.items():
            if len(filters) == 0:
                raise ValueError(f"empty filter set for layer {name!r}")
            if len(set(filters)) != len(filters):
                raise ValueError(f"duplicate filters for layer {name!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> HybridPartition:
        _check_no_unknown_keys(cls, data)
        return cls(**data)

    def validate_against(self, model: Sequential) -> None:
        """Check every referenced layer/filter exists in ``model``."""
        for name, filters in self.reliable_filters.items():
            layer = model.layer(name)  # KeyError when absent
            if not isinstance(layer, Conv2D):
                raise TypeError(
                    f"layer {name!r} is not a Conv2D; only convolution "
                    "filters can join the reliable partition"
                )
            bad = [f for f in filters if not 0 <= f < layer.out_channels]
            if bad:
                raise ValueError(
                    f"layer {name!r} has {layer.out_channels} filters; "
                    f"invalid indices {bad}"
                )

    def reliable_operation_count(
        self, model: Sequential, input_shape: tuple[int, ...]
    ) -> int:
        """Scalar multiply-accumulates executed reliably per image."""
        self.validate_against(model)
        total = 0
        shape = input_shape
        for layer in model:
            if layer.name in self.reliable_filters:
                conv: Conv2D = layer  # validated above
                per_filter = conv.operations_per_image(shape)
                per_filter //= conv.out_channels
                total += per_filter * len(self.reliable_filters[layer.name])
            shape = layer.output_shape(shape)
        return total

    def redundancy_multiplier(self) -> int:
        """Executions per qualified operation for the chosen redundancy
        (the registered operator class's ``executions_per_op``)."""
        return operator_multiplier(self.redundancy)
