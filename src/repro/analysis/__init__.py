"""repro.analysis — correctness tooling for the numpy autograd stack.

Four parts (see ``docs/static_analysis.md``):

* :mod:`repro.analysis.lint` — AST-based lint framework with
  repo-specific rules (in-place ``Tensor.data`` mutation, unseeded
  ``np.random``, ``super().__init__()`` ordering, ...), per-rule
  severities, ``# repro: noqa[RULE]`` suppressions and text/JSON
  reporters.  Exposed as ``repro lint``.
* :mod:`repro.analysis.anomaly` — opt-in NaN/Inf sanitizer (à la
  ``torch.autograd.set_detect_anomaly``) that records op provenance and
  raises with the originating op's stack snippet.  Exposed as
  ``repro run --detect-anomaly`` and ``SDEAConfig.detect_anomaly``.
* :mod:`repro.analysis.shapes` — symbolic shape/dtype abstract
  interpreter: :class:`AbstractTensor` executes any ``Module.forward``
  with zero real FLOPs over named symbolic dims, catching shape
  mismatches, silent size-1 broadcasts, dtype drift and grad-flag
  drops statically.  Exposed as ``repro shape-check``.  (The
  whole-model interpreter lives in
  :mod:`repro.analysis.shapes.interpreter` and is imported lazily —
  it depends on ``repro.core``/``repro.baselines``.)
* :mod:`repro.analysis.ir` — training-step IR: captures one clean
  fwd+bwd step of each training phase into an SSA-style op graph, runs
  compiler-style passes (liveness/memory planning, dead ops, fusion
  legality, value CSE, dtype escapes, and the gradient checks: detached
  loss, parameters outside the graph, dropped, stale, wrong-shape,
  non-finite or all-zero gradients — codes G001–G013) and verifies the
  IR with a bit-for-bit replay executor.  Exposed as ``repro ir``.
  (Imported lazily like the shape interpreter — capturing a method
  pulls in ``repro.core``.)

Finding records and gate policy are shared across the dynamic tools in
:mod:`repro.analysis.findings`.
"""

from .anomaly import AnomalyError, OpProvenance, detect_anomaly, is_anomaly_enabled
from .findings import (
    GATING_SEVERITIES,
    Finding,
    count_findings,
    filter_findings,
    format_findings_text,
    gate_findings,
)
from .lint import (
    LintReport,
    Rule,
    Violation,
    all_rules,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)
from .shapes import (
    AbstractShapeError,
    AbstractTensor,
    ConstraintError,
    Dim,
    DimExpr,
    ShapeEnv,
    ShapeSpec,
    SymbolicTrace,
    enforce_constraints,
    lift_tensor,
    shape_spec,
    verify_module_calls,
)

__all__ = [
    "Rule", "Violation", "LintReport",
    "all_rules", "lint_source", "lint_paths", "format_text", "format_json",
    "Finding", "GATING_SEVERITIES", "gate_findings", "count_findings",
    "filter_findings", "format_findings_text",
    "AnomalyError", "OpProvenance", "detect_anomaly", "is_anomaly_enabled",
    "Dim", "DimExpr", "ShapeEnv", "ConstraintError", "enforce_constraints",
    "AbstractTensor", "AbstractShapeError", "SymbolicTrace", "lift_tensor",
    "ShapeSpec", "shape_spec", "verify_module_calls",
]
