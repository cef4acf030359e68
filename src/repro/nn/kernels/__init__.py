"""Fused autograd kernels and their one activation switch.

Each kernel collapses a composed autograd subgraph into a **single
node** with a hand-derived backward — one op record in the registry
(:mod:`repro.nn.ops`), registered beside its math — eliminating the
Python per-op dispatch that dominates the hot paths (the BiGRU
recurrence ran at 0.63 GFLOP/s composed vs ~30 for a plain matmul on
the same host).
Every fused forward replicates the reference numpy arithmetic
op-for-op and every backward replays the composed graph's float
operations in the engine's dispatch order, so outputs, gradients and
whole training trajectories are bit-for-bit identical to the composed
path (``tests/test_kernels.py``).

The kernels switch on and off together::

    from repro.nn import kernels

    with kernels.use_kernels():
        loss = model(batch); loss.backward()

:func:`repro.experiments.run_experiment` trains and evaluates every
method inside ``use_kernels()``.  Code that calls ``fit`` directly
(``repro ir``, ``repro profile``) runs the composed reference ops,
which the kernel tests compare against.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from .alloc import tune_allocator
from .gru import fused_gru_sequence
from .layernorm import fused_layer_norm
from .softmax import fused_cross_entropy, fused_log_softmax, fused_softmax

__all__ = [
    "use_kernels", "kernel_active", "tune_allocator",
    "fused_gru_sequence",
    "fused_softmax", "fused_log_softmax", "fused_cross_entropy",
    "fused_layer_norm",
]

# Thread-local activation: a fused fit on one thread must not flip the
# engine under a reference fit on another.
_state = threading.local()


def kernel_active() -> bool:
    """Whether the fused kernels are active on this thread."""
    return getattr(_state, "active", False)


@contextmanager
def use_kernels() -> Iterator[None]:
    """Run the fused kernels on this thread for the ``with`` body.

    Contexts nest; leaving one restores the activation that held before
    it.  The fused path ships with its allocator configuration
    (:func:`tune_allocator`), applied once per process.
    """
    tune_allocator()
    previous = kernel_active()
    _state.active = True
    try:
        yield
    finally:
        _state.active = previous
