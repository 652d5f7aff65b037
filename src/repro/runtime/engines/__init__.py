"""Pluggable SPMD engines (execution backends) for the runtime.

See :mod:`repro.runtime.engines.base` for the contract.  The built-in
backends are registered lazily here:

========== ===================================================== =========
name       execution model                                       best for
========== ===================================================== =========
thread     one Python thread per rank, at most one running per   default, any p; shared-memory payloads;
           core                                                  instant deadlock detection
process    one OS process per rank (GIL-free)                    wall-clock speedup on multi-core hosts
tcp        one OS process per rank, grouped into loopback        multi-host jobs; fault-injection-tested
           "hosts", coordinated over framed TCP sockets
========== ===================================================== =========
"""

from .base import (
    CommObserver,
    DEFAULT_BACKEND,
    DEFAULT_TIMEOUT,
    SpmdEngine,
    available_backends,
    get_engine,
    register_engine,
    resolve_backend,
    resolve_timeout,
    run_spmd,
)

__all__ = [
    "CommObserver",
    "DEFAULT_BACKEND",
    "DEFAULT_TIMEOUT",
    "SpmdEngine",
    "available_backends",
    "get_engine",
    "register_engine",
    "resolve_backend",
    "resolve_timeout",
    "run_spmd",
]


def _thread_factory() -> SpmdEngine:
    from .thread import ThreadEngine

    return ThreadEngine()


def _process_factory() -> SpmdEngine:
    from .process import ProcessEngine

    return ProcessEngine()


def _tcp_factory() -> SpmdEngine:
    from .tcp import TcpEngine

    return TcpEngine()


register_engine("thread", _thread_factory)
register_engine("process", _process_factory)
register_engine("tcp", _tcp_factory)
