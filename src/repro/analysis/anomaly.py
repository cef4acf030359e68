"""Opt-in NaN/Inf anomaly detection with op provenance.

The numpy autograd engine happily propagates a NaN born deep inside a
BiGRU backward pass all the way into the optimizer — the run "works",
the metrics are garbage.  :class:`detect_anomaly` is the substitute for
``torch.autograd.set_detect_anomaly(True)``: while active, every op
created in :mod:`repro.nn.tensor` records *where it came from* (op name
plus a snippet of the creating stack), every forward output and every
backward gradient contribution is checked for NaN/Inf, and the first
anomaly raises :class:`AnomalyError` naming the originating op::

    with detect_anomaly():
        loss = model(batch)
        loss.backward()

    # AnomalyError: NaN/Inf in gradient produced by backward of op 'log'
    # op created at (most recent call last):
    #   File "model.py", line 42, in forward
    #     attn = scores.log()

The mode is an engine observer (:mod:`repro.nn.hooks`), so it composes
with the op profiler and the IR capture in any order.  Wired into
training via ``SDEAConfig.detect_anomaly`` and the CLI's
``repro run --detect-anomaly``.  The mode costs one ``np.isfinite``
sweep per op and is therefore opt-in.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import tensor as _tensor_module
from ..nn.hooks import Observer, register_observer

__all__ = ["AnomalyError", "OpProvenance", "detect_anomaly",
           "is_anomaly_enabled"]

#: Frames from these exact files are engine internals, not user code.
#: (Exact paths, not suffixes — a user's `test_anomaly.py` must survive.)
_INTERNAL_FILES = frozenset({_tensor_module.__file__, __file__})


class AnomalyError(RuntimeError):
    """Raised when a NaN/Inf value or gradient is detected.

    Attributes
    ----------
    provenance:
        The :class:`OpProvenance` of the originating op, when known.
    phase:
        ``"forward"`` or ``"backward"``.
    """

    def __init__(self, message: str,
                 provenance: Optional["OpProvenance"] = None,
                 phase: str = "forward"):
        super().__init__(message)
        self.provenance = provenance
        self.phase = phase


@dataclass(frozen=True)
class OpProvenance:
    """Where an op output was created: op name + creating-stack snippet."""

    op: str
    stack: str

    def format(self) -> str:
        if not self.stack:
            return f"op '{self.op}' (creation stack unavailable)"
        return (f"op '{self.op}' created at "
                f"(most recent call last):\n{self.stack}")


def _stack_snippet(limit: int = 4) -> str:
    """The last ``limit`` non-engine frames, formatted like a traceback."""
    frames = [
        frame for frame in traceback.extract_stack()
        if frame.filename not in _INTERNAL_FILES
    ][-limit:]
    return "".join(traceback.format_list(frames)).rstrip("\n")


def _finite(array: np.ndarray) -> bool:
    return array.dtype.kind not in "fc" or bool(np.all(np.isfinite(array)))


def _describe(array: np.ndarray) -> str:
    nan = int(np.isnan(array).sum())
    inf = int(np.isinf(array).sum())
    return f"{nan} NaN / {inf} Inf over shape {array.shape}"


def _where(provenance: Optional[OpProvenance]) -> str:
    return provenance.format() if provenance else "an untracked op"


class _AnomalyObserver(Observer):
    """Records op provenance and rejects non-finite values."""

    def op_created(self, out, call) -> None:
        provenance = OpProvenance(op=call.op.name, stack=_stack_snippet())
        out._ctx = provenance
        if not _finite(out.data):
            raise AnomalyError(
                f"NaN/Inf in forward output of {provenance.format()}\n"
                f"({_describe(out.data)})",
                provenance=provenance, phase="forward",
            )

    def node_dispatched(self, node, grad, contributions) -> None:
        """Check each routed contribution *before* it is merged, so the
        raising op is exactly the one whose backward produced it."""
        provenance = node._ctx
        if not _finite(np.asarray(grad)):
            raise AnomalyError(
                f"NaN/Inf in incoming gradient of {_where(provenance)}\n"
                f"({_describe(np.asarray(grad))})",
                provenance=provenance, phase="backward",
            )
        for index, (parent, contribution) in enumerate(
                zip(node._parents, contributions)):
            if contribution is None or not (
                parent.requires_grad or parent._backward is not None
            ):
                continue
            if not _finite(np.asarray(contribution)):
                raise AnomalyError(
                    f"NaN/Inf in gradient produced by backward of "
                    f"{_where(provenance)}\n"
                    f"(contribution to parent {index} of shape "
                    f"{parent.shape}: {_describe(np.asarray(contribution))})",
                    provenance=provenance, phase="backward",
                )


class _AnomalyState:
    """Process-global registration, reference-counted for nesting."""

    def __init__(self) -> None:
        self.depth = 0
        self.handle = None


_STATE = _AnomalyState()
_OBSERVER = _AnomalyObserver()


def is_anomaly_enabled() -> bool:
    """True while at least one :class:`detect_anomaly` context is active."""
    return _STATE.depth > 0


class detect_anomaly:
    """Context manager enabling anomaly detection (reentrant)."""

    def __enter__(self) -> "detect_anomaly":
        if _STATE.depth == 0:
            _STATE.handle = register_observer(_OBSERVER)
        _STATE.depth += 1
        return self

    def __exit__(self, *exc) -> None:
        _STATE.depth -= 1
        if _STATE.depth == 0:
            _STATE.handle.remove()
            _STATE.handle = None
