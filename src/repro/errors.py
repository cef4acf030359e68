"""Errors raised on bad input: unknown registry names and invalid configs."""

from __future__ import annotations

from typing import Iterable


class UnknownNameError(KeyError):
    """A name that a registry does not hold.

    Still a ``KeyError``, so ``except KeyError`` callers keep working.
    The CLI's ``main`` prints the message and exits 1 instead of showing
    a traceback.
    """

    def __init__(self, kind: str, name: str, choices: Iterable[str]):
        super().__init__(
            f"unknown {kind} {name!r}; choose from {list(choices)}")

    def __str__(self) -> str:
        # KeyError's own __str__ would wrap the message in quotes.
        return self.args[0]


class ConstraintError(ValueError):
    """A config violates a dimension contract; raised at construction,
    before any training step."""
