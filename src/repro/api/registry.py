"""String-keyed component registries for the pipeline layer.

A :class:`Registry` maps names to builders, for an axis whose members
are chosen by a string read from a file.  The one such axis is the
campaign target: a :class:`~repro.campaigns.spec.CampaignSpec` names
its target, and :data:`CAMPAIGN_TARGETS` resolves it.  Extensions
plug in with the :meth:`Registry.register` decorator instead of
editing the engine:

>>> from repro.api import CAMPAIGN_TARGETS
>>> @CAMPAIGN_TARGETS.register("my_kernel")
... def run_my_kernel_trial(ctx):
...     ...

after which ``CampaignSpec(target="my_kernel")`` runs it.  Redundancy
operator kinds have their own table,
:func:`repro.reliable.operators.register_operator`; the hybrid
architectures, the qualifier and the protection baselines are built
directly.
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
        Human-readable name of the axis (``"campaign target"``);
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


#: Campaign targets: per-trial experiment runners for the parallel
#: fault-campaign engine, ``runner(TrialContext) -> TrialRecord``.
#: The built-ins (``"reliable_conv"``, ``"baseline"``, ``"pipeline"``,
#: ``"checkpoint_segment"``) are registered by
#: :mod:`repro.campaigns.targets`, which every engine entry point
#: imports; register extensions with the usual decorator and select
#: them via ``CampaignSpec(target="<name>")``.
CAMPAIGN_TARGETS = Registry("campaign target")
