"""Shared helpers for parsing environment variables.

Several runtime knobs (collective timeouts, TCP host grouping, heartbeat
intervals, frame limits, sketch sizes; backend, split-mode and
start-method names; the trace switch and the checkpoint directory) are read from environment variables.  Parsing
them with a bare ``int(raw)`` / ``float(raw)`` / membership test
surfaces a cryptic ``ValueError`` deep inside the engine that never says
which variable was bad — or, for an on/off switch, silently reads a typo
as *off*; these helpers name the variable and the offending value so a
typo in a deployment manifest fails loudly and legibly.
"""

from __future__ import annotations

import os
from typing import Sequence

__all__ = ["EnvVarError", "env_choice", "env_flag", "env_float", "env_int",
           "env_str"]

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class EnvVarError(ValueError):
    """An environment variable holds an unparseable or unknown value."""

    def __init__(self, name: str, raw: str, expected: str) -> None:
        self.name = name
        self.raw = raw
        super().__init__(
            f"environment variable {name}={raw!r} is not {expected}"
        )


def env_str(name: str, default: str | None = None) -> str | None:
    """The stripped content of ``name``, or ``default`` when unset/blank."""
    return os.environ.get(name, "").strip() or default


def env_flag(name: str, default: bool = False) -> bool:
    """Read ``name`` as an on/off switch (``1/true/yes/on`` or
    ``0/false/no/off``, any case), or return ``default`` when
    unset/blank.

    Raises :class:`EnvVarError` (a ``ValueError``) naming the variable and
    the bad value for anything else — ``ture`` must not mean *off*.
    """
    raw = env_str(name)
    if raw is None:
        return default
    if raw.lower() in _TRUE:
        return True
    if raw.lower() in _FALSE:
        return False
    raise EnvVarError(name, raw, f"one of {_TRUE + _FALSE}")


def env_int(name: str, default: int | None = None) -> int | None:
    """Parse ``name`` as an integer, or return ``default`` when unset/blank.

    Raises :class:`EnvVarError` (a ``ValueError``) naming the variable and
    the bad value when the content does not parse.
    """
    raw = env_str(name)
    if raw is None:
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
    raw = env_str(name)
    if raw is None:
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
    raw = env_str(name)
    if raw is None:
        return default
    if raw not in choices:
        raise EnvVarError(name, raw, f"one of {tuple(choices)}")
    return raw
