"""Model serving: versioned registry, async batching server, client.

The serving stack turns induced trees into a production path:

* :mod:`repro.serving.registry` — versioned, digest-sealed model
  artifacts on disk (the checkpoint module's atomic-write/manifest
  discipline), with an atomic ``CURRENT`` pointer for hot-swap and
  lease-counted draining of superseded versions;
* :mod:`repro.serving.server` — an asyncio front end over a
  work-conserving batching queue (each batch takes every request already
  queued, up to a record budget) running the compiled flat-array kernel
  on the event loop, plus a framed-TCP network front end
  (``python -m repro serve``);
* :mod:`repro.serving.client` — a small blocking client speaking the
  same length-prefixed frame protocol as the TCP engine.
"""

from .client import ServingClient, ServingClientError
from .registry import (
    CURRENT_POINTER,
    MODEL_FORMAT,
    ModelArtifactError,
    ModelNotFoundError,
    ModelRegistry,
    ModelVersion,
    RegistryError,
    ServableModel,
)
from .server import (
    BatchServer,
    Prediction,
    ServerConfig,
    ServerStoppedError,
    ServingStats,
    serve,
)

__all__ = [
    "BatchServer",
    "CURRENT_POINTER",
    "MODEL_FORMAT",
    "ModelArtifactError",
    "ModelNotFoundError",
    "ModelRegistry",
    "ModelVersion",
    "Prediction",
    "RegistryError",
    "ServableModel",
    "ServerConfig",
    "ServerStoppedError",
    "ServingClient",
    "ServingClientError",
    "ServingStats",
    "serve",
]
