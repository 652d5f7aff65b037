"""Shared helpers for parsing environment variables.

Several runtime knobs (collective timeouts, TCP host grouping, heartbeat
intervals, frame limits, sketch sizes; backend, split-mode, kernel-family
and start-method names) are read from environment variables.  Parsing
them with a bare ``int(raw)`` / ``float(raw)`` / membership test
surfaces a cryptic ``ValueError`` deep inside the engine that never says
which variable was bad; these helpers name the variable and the
offending value so a typo in a deployment manifest fails loudly and
legibly.
"""

from __future__ import annotations

import os
from typing import Sequence

__all__ = ["EnvVarError", "env_choice", "env_int", "env_float"]


class EnvVarError(ValueError):
    """An environment variable holds an unparseable or unknown value."""

    def __init__(self, name: str, raw: str, expected: str) -> None:
        self.name = name
        self.raw = raw
        super().__init__(
            f"environment variable {name}={raw!r} is not {expected}"
        )


def env_int(name: str, default: int | None = None) -> int | None:
    """Parse ``name`` as an integer, or return ``default`` when unset/blank.

    Raises :class:`EnvVarError` (a ``ValueError``) naming the variable and
    the bad value when the content does not parse.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise EnvVarError(name, raw, "an integer") from None


def env_float(name: str, default: float | None = None) -> float | None:
    """Parse ``name`` as a float, or return ``default`` when unset/blank.

    Raises :class:`EnvVarError` (a ``ValueError``) naming the variable and
    the bad value when the content does not parse.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise EnvVarError(name, raw, "a number") from None


def env_choice(name: str, choices: Sequence[str], default: str) -> str:
    """Read ``name`` as one of ``choices``, or return ``default`` when
    unset/blank.

    Raises :class:`EnvVarError` (a ``ValueError``) naming the variable and
    the bad value when the content is not a recognized choice.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    if raw not in choices:
        raise EnvVarError(name, raw, f"one of {tuple(choices)}")
    return raw
