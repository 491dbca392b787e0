"""Pluggable batch-compute backends (DESIGN.md §10).

The simulator's batch kernels — predicate masks, bitmask pack/unpack/
popcount, the fused interior-burst hit algebra, the stream-lane kernels
(DESIGN.md §12) — are reached through the active
:class:`ComputeBackend`.  Two implementations ship: ``python``
(per-element reference loops) and ``numpy`` (vectorised, bit-identical by
contract).

Selection, in priority order:

* :func:`set_backend` / :func:`backend_scope` — explicit, programmatic
  (the bench ``--backend`` flag and the pytest ``engine`` fixture);
* the ``REPRO_BACKEND`` environment variable;
* the default: ``numpy`` when importable, else ``python``.

The active backend is process-global, mirroring
:data:`repro.sim.fastforward.FF`: hot paths read it through
:func:`get_backend` (one attribute load when resolved).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ..errors import ConfigError
from .base import MAX_EXACT_FLOAT, ComputeBackend

__all__ = [
    "BACKEND_NAMES", "ComputeBackend", "ENV_VAR", "MAX_EXACT_FLOAT",
    "available_backends", "backend_scope", "default_backend_name",
    "get_backend", "set_backend",
]

ENV_VAR = "REPRO_BACKEND"

BACKEND_NAMES = ("python", "numpy")

_ACTIVE: ComputeBackend | None = None


def _build(name: str) -> ComputeBackend:
    if name == "python":
        from .python_backend import PythonBackend

        return PythonBackend()
    if name == "numpy":
        try:
            from .numpy_backend import NumpyBackend
        except ImportError as exc:  # pragma: no cover - numpy is baked in
            raise ConfigError(f"backend 'numpy' unavailable: {exc}") from exc
        return NumpyBackend()
    raise ConfigError(
        f"unknown compute backend {name!r}; expected one of {BACKEND_NAMES}"
    )


def available_backends() -> tuple[str, ...]:
    """Backends that can actually be constructed in this process."""
    names = ["python"]
    try:  # pragma: no branch
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is baked in
        pass
    else:
        names.append("numpy")
    return tuple(names)


def default_backend_name() -> str:
    """``REPRO_BACKEND`` if set (validated), else numpy-if-importable."""
    env = os.environ.get(ENV_VAR, "").strip()
    if env:
        if env not in BACKEND_NAMES:
            raise ConfigError(
                f"{ENV_VAR}={env!r} names no backend; expected one of "
                f"{BACKEND_NAMES}"
            )
        return env
    return "numpy" if "numpy" in available_backends() else "python"


def get_backend() -> ComputeBackend:
    """The active backend, resolving the default lazily on first use."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _build(default_backend_name())
    return _ACTIVE


def set_backend(name: str) -> str:
    """Activate ``name`` process-wide; returns the previous backend's name."""
    global _ACTIVE
    previous = get_backend().name
    _ACTIVE = _build(name)
    return previous


@contextmanager
def backend_scope(name: str):
    """Run a block under backend ``name``, restoring the previous one."""
    previous = set_backend(name)
    try:
        yield get_backend()
    finally:
        set_backend(previous)
