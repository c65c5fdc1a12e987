"""String-keyed component registries for the pipeline layer.

Every extensible axis of the hybrid pipeline -- architecture,
qualifier, redundancy operator, protection baseline -- is a
:class:`Registry` of named builders.  New scenarios plug in with the
:meth:`Registry.register` decorator instead of editing ``repro.core``:

>>> from repro.api import ARCHITECTURES
>>> @ARCHITECTURES.register("shadow")
... def build_shadow(model, qualifier, config):
...     return ShadowHybrid(model, qualifier, config.safety_class)

after which ``PipelineConfig(architecture="shadow")`` builds through
:func:`repro.api.pipeline.build_pipeline` like the built-ins.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any, TypeVar

T = TypeVar("T", bound=Callable[..., Any])


class RegistryError(KeyError):
    """Unknown or duplicate registry key."""


class Registry:
    """A named mapping from string keys to builder callables.

    Parameters
    ----------
    kind:
        Human-readable name of the axis (``"architecture"``, ...);
        appears in error messages so a typo'd config names the axis it
        failed on.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Callable[..., Any]] = {}

    def register(
        self, name: str, builder: Callable[..., Any] | None = None,
        *, overwrite: bool = False,
    ):
        """Register ``builder`` under ``name``.

        Usable as a decorator (``@REG.register("name")``) or a plain
        call (``REG.register("name", builder)``).  Re-registering an
        existing key raises unless ``overwrite=True`` -- silent
        shadowing of a built-in is almost always a bug.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} key must be a non-empty string")

        def decorate(obj: T) -> T:
            if name in self._entries and not overwrite:
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered; "
                    "pass overwrite=True to replace it"
                )
            self._entries[name] = obj
            return obj

        if builder is None:
            return decorate
        return decorate(builder)

    def get(self, name: str) -> Callable[..., Any]:
        """Look up a builder; unknown keys list the registered names."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; "
                f"registered: {sorted(self._entries)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"


#: Hybrid architectures: ``builder(model, qualifier, config) -> hybrid``.
#: The built-ins (``"parallel"``, ``"integrated"``) are registered in
#: :mod:`repro.api.pipeline`.
ARCHITECTURES = Registry("architecture")

#: Qualifier families: ``builder(qualifier_config) -> qualifier``.
QUALIFIERS = Registry("qualifier")


class _OperatorRegistry(Registry):
    """Live registry *view* over the operator factory table behind
    :func:`repro.reliable.operators.make_operator`, the single source
    of truth for redundancy operators: every read delegates to the
    table and registration funnels into it, so a kind registered
    through either entry point is reachable from every kind-string
    surface -- ``build_operator``, ``ReliableConv2D(operator="<kind>")``
    and ``PartitionConfig(redundancy="<kind>")``.  The table raises
    ``ValueError`` on unknown/duplicate kinds, translated here to
    :class:`RegistryError`.
    """

    def register(self, name, builder=None, *, overwrite=False):
        from repro.reliable.operators import register_operator

        def decorate(cls):
            try:
                register_operator(name, cls, overwrite=overwrite)
            except ValueError as error:
                raise RegistryError(str(error)) from None
            return cls

        if builder is None:
            return decorate
        return decorate(builder)

    def get(self, name: str):
        from repro.reliable.operators import _operator_class

        try:
            return _operator_class(name)
        except ValueError as error:
            raise RegistryError(str(error)) from None

    def names(self) -> list[str]:
        from repro.reliable.operators import operator_kinds

        return operator_kinds()

    def __contains__(self, name: object) -> bool:
        return name in self.names()

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())


#: Redundancy operators: ``builder(unit=None) -> Operator``.  Seeded
#: from :mod:`repro.reliable.operators`; additions propagate back to
#: that module's factory table.
OPERATORS = _OperatorRegistry("operator")

#: Protection baselines the paper compares against:
#: ``builder(model, **kwargs) -> guard``.
BASELINES = Registry("baseline")

#: Campaign targets: per-trial experiment runners for the parallel
#: fault-campaign engine, ``runner(TrialContext) -> TrialRecord``.
#: The built-ins (``"reliable_conv"``, ``"baseline"``, ``"pipeline"``,
#: ``"checkpoint_segment"``) are registered by
#: :mod:`repro.campaigns.targets`, which every engine entry point
#: imports; register extensions with the usual decorator and select
#: them via ``CampaignSpec(target="<name>")``.
CAMPAIGN_TARGETS = Registry("campaign target")


def _seed_builtin_baselines() -> None:
    from repro.baselines import ActivationRangeGuard, OutputCage

    # "ranger" is the activation-range supervision of the paper's
    # ref [28]; "caging" the output-feasibility check of ref [27].
    BASELINES.register("ranger", ActivationRangeGuard)
    BASELINES.register("caging", OutputCage)


_seed_builtin_baselines()
