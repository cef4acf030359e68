"""Training-step IR: capture, analysis passes, verified replay.

The pipeline (``repro ir``) is capture → analyze → verify:

1. :class:`IRCapture` / :func:`capture_method` record one clean
   fwd+bwd step of each training phase into an explicit SSA-style op
   graph (:class:`IRGraph`); the capture is an engine observer, like
   the op profiler.
2. :func:`run_passes` runs the G001–G013 analyses (liveness/memory
   planning, dead ops, fusion legality, value CSE, dtype escapes and
   the gradient checks) and returns an :class:`IRReport` of shared
   :class:`~repro.analysis.findings.Finding` records.
3. :func:`replay` re-executes the captured step and asserts outputs
   and leaf gradients are bit-for-bit identical to what the eager
   engine produced — the proof that the IR is a faithful model.
"""

from .capture import (
    MAX_CAPTURES,
    IRCapture,
    StepCapture,
    capture_method,
    capture_step,
    tiny_method,
    tiny_pair,
)
from .graph import IRGraph, IRNode, NODE_KINDS
from .passes import G_CODES, IRReport, MemoryPlan, plan_memory, run_passes
from .replay import ReplayResult, replay

__all__ = [
    "MAX_CAPTURES", "IRCapture", "StepCapture", "capture_method",
    "capture_step", "tiny_pair", "tiny_method",
    "IRGraph", "IRNode", "NODE_KINDS",
    "G_CODES", "IRReport", "MemoryPlan", "plan_memory", "run_passes",
    "ReplayResult", "replay",
]
