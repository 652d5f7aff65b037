"""Typed environment-variable parsing (the shared env_int/env_float).

A malformed integer in a knob like ``REPRO_SPMD_TIMEOUT`` used to
surface as a bare ``ValueError: invalid literal for int()`` with no hint
of *which* variable was bad.  The shared helpers raise
:class:`EnvVarError` naming the variable and the offending value, and
every runtime knob resolver routes through them.
"""

from __future__ import annotations

import pytest

from repro.runtime.engines.base import (
    BACKEND_ENV,
    TIMEOUT_ENV,
    resolve_backend,
    resolve_timeout,
)
from repro.runtime.engines.process import START_METHOD_ENV, _mp_context
from repro.runtime.engines.tcp import (
    HB_ENV,
    HOSTS_ENV,
    resolve_hb_interval,
    resolve_tcp_hosts,
)
from repro.runtime.checkpoint import CHECKPOINT_ENV, resolve_checkpoint
from repro.runtime.envutil import (
    EnvVarError,
    env_choice,
    env_flag,
    env_float,
    env_int,
    env_str,
)
from repro.runtime.framing import MAX_FRAME_ENV, resolve_max_frame
from repro.runtime.tracing import TRACE_ENV, trace_enabled


def test_env_int_default_when_unset_or_blank(monkeypatch):
    monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
    assert env_int("REPRO_TEST_KNOB", 7) == 7
    assert env_int("REPRO_TEST_KNOB") is None
    monkeypatch.setenv("REPRO_TEST_KNOB", "   ")
    assert env_int("REPRO_TEST_KNOB", 7) == 7


def test_env_int_parses_and_strips(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", " 42 ")
    assert env_int("REPRO_TEST_KNOB") == 42
    monkeypatch.setenv("REPRO_TEST_KNOB", "-3")
    assert env_int("REPRO_TEST_KNOB") == -3


def test_env_float_parses(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
    assert env_float("REPRO_TEST_KNOB") == 2.5
    monkeypatch.delenv("REPRO_TEST_KNOB")
    assert env_float("REPRO_TEST_KNOB", 0.25) == 0.25


@pytest.mark.parametrize("raw", ["abc", "1.5x", "--", "0x10"])
def test_env_int_names_variable_and_value(monkeypatch, raw):
    monkeypatch.setenv("REPRO_TEST_KNOB", raw)
    with pytest.raises(EnvVarError) as err:
        env_int("REPRO_TEST_KNOB")
    assert "REPRO_TEST_KNOB" in str(err.value)
    assert repr(raw) in str(err.value)
    assert isinstance(err.value, ValueError)    # stays catchable as before


def test_env_float_names_variable_and_value(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_KNOB", "fast")
    with pytest.raises(EnvVarError, match="REPRO_TEST_KNOB.*'fast'"):
        env_float("REPRO_TEST_KNOB")


def test_env_choice_default_strip_and_error(monkeypatch):
    monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
    assert env_choice("REPRO_TEST_KNOB", ("a", "b"), "a") == "a"
    monkeypatch.setenv("REPRO_TEST_KNOB", " b ")
    assert env_choice("REPRO_TEST_KNOB", ("a", "b"), "a") == "b"
    monkeypatch.setenv("REPRO_TEST_KNOB", "c")
    with pytest.raises(EnvVarError, match="REPRO_TEST_KNOB='c'.*'a', 'b'"):
        env_choice("REPRO_TEST_KNOB", ("a", "b"), "a")


def test_env_str_strips_and_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
    assert env_str("REPRO_TEST_KNOB") is None
    assert env_str("REPRO_TEST_KNOB", "dflt") == "dflt"
    monkeypatch.setenv("REPRO_TEST_KNOB", "  ")
    assert env_str("REPRO_TEST_KNOB", "dflt") == "dflt"
    monkeypatch.setenv("REPRO_TEST_KNOB", " /some/dir ")
    assert env_str("REPRO_TEST_KNOB") == "/some/dir"


def test_env_flag_words_default_and_error(monkeypatch):
    monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
    assert env_flag("REPRO_TEST_KNOB") is False
    assert env_flag("REPRO_TEST_KNOB", True) is True
    for raw in ("1", "true", " Yes ", "ON"):
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        assert env_flag("REPRO_TEST_KNOB") is True
    for raw in ("0", "false", "No", " off"):
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        assert env_flag("REPRO_TEST_KNOB", True) is False
    monkeypatch.setenv("REPRO_TEST_KNOB", "ture")
    with pytest.raises(EnvVarError, match="REPRO_TEST_KNOB='ture'"):
        env_flag("REPRO_TEST_KNOB")


# -- every knob resolver routes through the helpers --------------------


def test_trace_switch_rejects_a_typo_instead_of_reading_off(monkeypatch):
    monkeypatch.setenv(TRACE_ENV, "true")
    assert trace_enabled() is True
    monkeypatch.setenv(TRACE_ENV, "ture")
    with pytest.raises(EnvVarError, match=f"{TRACE_ENV}='ture'"):
        trace_enabled()


def test_checkpoint_dir_is_read_through_envutil(monkeypatch):
    monkeypatch.setenv(CHECKPOINT_ENV, "   ")                # blank is unset
    assert resolve_checkpoint(None) is None
    monkeypatch.setenv(CHECKPOINT_ENV, " /tmp/cuts ")
    assert resolve_checkpoint(None).dir == "/tmp/cuts"



def test_timeout_resolver_reports_variable(monkeypatch):
    monkeypatch.setenv(TIMEOUT_ENV, "soon")
    with pytest.raises(EnvVarError, match=TIMEOUT_ENV):
        resolve_timeout(None)


def test_max_frame_resolver_reports_variable(monkeypatch):
    monkeypatch.setenv(MAX_FRAME_ENV, "big")
    with pytest.raises(EnvVarError, match=MAX_FRAME_ENV):
        resolve_max_frame(None)


def test_heartbeat_resolver_reports_variable(monkeypatch):
    monkeypatch.setenv(HB_ENV, "never")
    with pytest.raises(EnvVarError, match=HB_ENV):
        resolve_hb_interval()


@pytest.mark.parametrize("env, resolve", [
    (START_METHOD_ENV, _mp_context),
    (BACKEND_ENV, resolve_backend),
], ids=["start_method", "backend"])
def test_choice_resolver_reports_variable(monkeypatch, env, resolve):
    monkeypatch.setenv(env, "bogus")
    with pytest.raises(EnvVarError, match=f"{env}='bogus'"):
        resolve()


def test_tcp_hosts_range_error_names_variable_only_from_env(monkeypatch):
    monkeypatch.setenv(HOSTS_ENV, "0")
    with pytest.raises(EnvVarError, match=f"{HOSTS_ENV}='0'"):
        resolve_tcp_hosts(4)
    with pytest.raises(ValueError) as err:      # explicit argument: no env
        resolve_tcp_hosts(4, 0)
    assert not isinstance(err.value, EnvVarError)
