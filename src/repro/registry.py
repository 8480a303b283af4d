"""One ordered ``name -> spec`` catalogue type for every plane.

The algorithm variants (:data:`repro.core.registry.VARIANTS`), the chaos
scenarios (:data:`repro.chaos.registry.SCENARIOS`) and the lint rules
(:data:`repro.lint.framework.RULES`) are each one :class:`Registry`
instance, filled at import time by their ``register_*`` decorators.
Registration order is enumeration order everywhere.

A stdlib-only leaf module: it imports nothing from the package, so any
plane (including the stdlib-only lint plane) can depend on it.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Tuple, TypeVar

S = TypeVar("S")


class Registry(Generic[S]):
    """An ordered catalogue of specs of one ``kind``, keyed by name."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._specs: Dict[str, S] = {}

    def add(self, name: str, spec: S) -> None:
        """Register ``spec`` under ``name``; duplicates raise ``ValueError``."""
        if name in self._specs:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._specs[name] = spec

    def get(self, name: str) -> S:
        """Look up one spec; ``ValueError`` listing the names on a miss."""
        try:
            return self._specs[name]
        except KeyError:
            registered = ", ".join(self._specs) or "(none)"
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered: {registered}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._specs)

    def __iter__(self) -> Iterator[S]:
        return iter(tuple(self._specs.values()))


__all__ = ["Registry"]
