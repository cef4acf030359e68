"""AST-based lint framework with autograd-aware, repo-specific rules.

The hand-rolled autograd engine (:mod:`repro.nn`) fails *silently* when
misused: an in-place numpy write to ``Tensor.data`` inside a ``forward``
bypasses the recorded graph, an unseeded ``np.random`` call breaks
reproducibility, a ``Parameter`` assigned before ``super().__init__()``
never gets registered.  These are exactly the mistakes a type checker
cannot see, so this module encodes them as lint rules.

Framework
---------
Rules are small classes registered with :func:`rule`; each visits a
parsed module and emits :class:`Violation` records.  Suppressions use an
end-of-line marker comment::

    param.data -= self.lr * grad  # repro: noqa[R001] optimizers update in place

``# repro: noqa`` without a rule list suppresses every rule on the line.
Reporters: :func:`format_text` (``path:line:col CODE message``) and
:func:`format_json`.

Rule catalogue (see ``docs/static_analysis.md`` for rationale):

========  =======================  ========
ID        name                     severity
========  =======================  ========
R001      inplace-data-mutation    error
R002      bare-np-random           error
R003      super-init-first         error
R004      param-under-no-grad      error
R005      float64-in-forward       warning
R006      tensor-bool-context      error
R007      tensor-ctor-in-loop      warning
R008      numpy-round-trip         error
R009      single-element-concat    warning
R010      composed-kernel-subgraph warning
========  =======================  ========
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Violation", "Rule", "LintReport", "rule", "all_rules",
    "lint_source", "lint_file", "lint_paths",
    "format_text", "format_json",
]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]*)\])?")


@dataclass(frozen=True)
class Violation:
    """One lint finding, anchored to a file position."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} [{self.severity}] {self.message}")


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``, ``name``, ``severity`` and ``doc`` and
    implement :meth:`check`, yielding ``(node, message)`` pairs.
    """

    id: str = ""
    name: str = ""
    severity: str = "error"
    doc: str = ""

    def check(self, tree: ast.Module) -> Iterable[Tuple[ast.AST, str]]:
        raise NotImplementedError


_RULES: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: register a rule under its ``id``."""
    if not cls.id or cls.id in _RULES:
        raise ValueError(f"rule id missing or duplicate: {cls.id!r}")
    _RULES[cls.id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Registered rule classes, ordered by id."""
    return [_RULES[key] for key in sorted(_RULES)]


# ---------------------------------------------------------------------- #
# Shared AST helpers
# ---------------------------------------------------------------------- #
def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` → ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _numpy_aliases(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """Names bound to the numpy module and to ``numpy.random``."""
    numpy_names: Set[str] = set()
    random_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.random" and alias.asname:
                    random_names.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        random_names.add(alias.asname or "random")
    return numpy_names, random_names


def _functions_named(tree: ast.Module, name: str) -> List[ast.FunctionDef]:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name]


def _is_data_or_grad_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ("data", "grad")


# ---------------------------------------------------------------------- #
# R001 — in-place mutation of Tensor.data / Tensor.grad
# ---------------------------------------------------------------------- #
@rule
class InplaceDataMutation(Rule):
    """Writes through ``.data``/``.grad`` bypass the autograd graph.

    ``x.data[...] = v``, ``x.data -= g`` and ``x.grad *= s`` mutate the
    raw numpy buffer without recording a backward function; gradients
    computed afterwards are silently wrong.  Optimizers *do* update
    parameters in place by design — those sites carry a justified
    ``# repro: noqa[R001]``.
    """

    id = "R001"
    name = "inplace-data-mutation"
    severity = "error"
    doc = ("in-place numpy mutation of Tensor.data/.grad bypasses "
           "autograd; compute a new tensor instead (or noqa in "
           "optimizer/serialisation code where it is the point)")

    def check(self, tree: ast.Module):
        for node in ast.walk(tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                # x.data[...] = v  /  x.grad[i] += v
                if isinstance(target, ast.Subscript) and \
                        _is_data_or_grad_attr(target.value):
                    yield (node, self._message(target.value))
                # x.data -= g (augmented only; plain `x.grad = None` is
                # the engine's own reset idiom and stays legal)
                elif isinstance(node, ast.AugAssign) and \
                        _is_data_or_grad_attr(target):
                    yield (node, self._message(target))

    @staticmethod
    def _message(attr: ast.Attribute) -> str:
        chain = _attr_chain(attr)
        expr = ".".join(chain) if chain else f"<expr>.{attr.attr}"
        return (f"in-place mutation of `{expr}` bypasses autograd; "
                "build a new Tensor via recorded ops instead")


# ---------------------------------------------------------------------- #
# R002 — bare np.random outside seeded-RNG helpers
# ---------------------------------------------------------------------- #
#: Legacy global-state functions of numpy.random; any call is
#: irreproducible (shared hidden state) and therefore flagged.
_LEGACY_RANDOM = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "binomial", "poisson", "beta", "gamma", "exponential",
    "laplace", "lognormal", "multinomial", "multivariate_normal",
    "get_state", "set_state", "bytes", "random_integers",
})


@rule
class BareNpRandom(Rule):
    """Unseeded randomness destroys run-to-run reproducibility.

    Flags legacy global-state calls (``np.random.rand`` and friends)
    and ``np.random.default_rng()`` called *without* a seed.  Passing a
    seed (``np.random.default_rng(config.seed)``) or threading an
    explicit ``np.random.Generator`` is the sanctioned pattern.
    """

    id = "R002"
    name = "bare-np-random"
    severity = "error"
    doc = ("bare np.random.* call (legacy global state or unseeded "
           "default_rng()); thread a seeded np.random.Generator instead")

    def check(self, tree: ast.Module):
        numpy_names, random_names = _numpy_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if not chain:
                continue
            # Normalise to the path below `numpy.random`.
            if len(chain) >= 3 and chain[0] in numpy_names \
                    and chain[1] == "random":
                tail = chain[2:]
            elif len(chain) >= 2 and chain[0] in random_names:
                tail = chain[1:]
            else:
                continue
            if len(tail) != 1:
                continue
            fn = tail[0]
            if fn in _LEGACY_RANDOM:
                yield (node, f"legacy global-state call np.random.{fn}(); "
                             "use a seeded np.random.default_rng(seed)")
            elif fn == "default_rng" and not node.args and not node.keywords:
                yield (node, "np.random.default_rng() without a seed is "
                             "irreproducible; pass an explicit seed")


# ---------------------------------------------------------------------- #
# R003 — Module subclasses: super().__init__() before parameters
# ---------------------------------------------------------------------- #
def _is_super_init_call(node: ast.AST) -> bool:
    """Matches ``super().__init__(...)`` (as an expression statement)."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__init__"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Name)
            and node.func.value.func.id == "super")


def _is_parameter_call(node: ast.AST) -> bool:
    """Matches ``Parameter(...)`` / ``nn.Parameter(...)`` calls."""
    if not isinstance(node, ast.Call):
        return False
    chain = _attr_chain(node.func)
    return bool(chain) and chain[-1] == "Parameter"


@rule
class SuperInitFirst(Rule):
    """Parameters assigned before ``super().__init__()`` vanish.

    ``Module.__setattr__`` registers parameters into ``_parameters``,
    which only exists after ``Module.__init__`` ran.  Assigning a
    ``Parameter`` first either crashes or (with ``setdefault``
    fallbacks) leaves the module half-registered; the optimizer then
    never sees the weight and it silently never trains.
    """

    id = "R003"
    name = "super-init-first"
    severity = "error"
    doc = ("Module subclass assigns a Parameter before (or without) "
           "calling super().__init__()")

    def check(self, tree: ast.Module):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            init = next(
                (item for item in cls.body
                 if isinstance(item, ast.FunctionDef)
                 and item.name == "__init__"),
                None,
            )
            if init is None:
                continue
            super_line = None
            for node in ast.walk(init):
                if _is_super_init_call(node):
                    super_line = node.lineno
                    break
            for node in ast.walk(init):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                value = node.value
                if value is None or not _is_parameter_call(value):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                assigns_self = any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"
                    for t in targets
                )
                if not assigns_self:
                    continue
                if super_line is None:
                    yield (node, f"class {cls.name} assigns a Parameter in "
                                 "__init__ but never calls "
                                 "super().__init__(); the parameter is "
                                 "never registered")
                elif node.lineno < super_line:
                    yield (node, f"class {cls.name} assigns a Parameter "
                                 "before super().__init__() "
                                 f"(line {super_line}); registration "
                                 "dicts do not exist yet")


# ---------------------------------------------------------------------- #
# R004 — Parameter created under no_grad
# ---------------------------------------------------------------------- #
@rule
class ParamUnderNoGrad(Rule):
    """A ``Parameter`` born inside ``no_grad`` still claims to train.

    ``Parameter`` forces ``requires_grad=True``, but every op applied to
    it inside the ``no_grad`` block records nothing — downstream code
    sees a trainable leaf whose gradients never arrive.  Creating
    trainable state inside an evaluation context is always a bug.
    """

    id = "R004"
    name = "param-under-no-grad"
    severity = "error"
    doc = "Parameter(...) created inside a `with no_grad():` block"

    def check(self, tree: ast.Module):
        for node in ast.walk(tree):
            if not isinstance(node, ast.With):
                continue
            if not any(self._is_no_grad(item.context_expr)
                       for item in node.items):
                continue
            for inner in ast.walk(node):
                if _is_parameter_call(inner):
                    yield (inner, "Parameter created under no_grad(); it "
                                  "will never receive gradients despite "
                                  "requires_grad=True")

    @staticmethod
    def _is_no_grad(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):
            expr = expr.func
        chain = _attr_chain(expr)
        return bool(chain) and chain[-1] == "no_grad"


# ---------------------------------------------------------------------- #
# R005 — hard-coded float64 in forward hot paths
# ---------------------------------------------------------------------- #
@rule
class Float64InForward(Rule):
    """Hot-path arrays must follow the engine dtype.

    The engine computes in float32 (``repro.nn.DEFAULT_DTYPE``).
    ``forward`` runs per batch; a hard-coded ``np.float64`` array there
    costs a full-size cast on every call, once when it is made and once
    more when ``Tensor`` rounds it back, and it ignores the tests'
    float64 window.  Follow the operand's dtype (``x.dtype``), read
    ``repro.nn.get_default_dtype()``, or hoist the cast to ``__init__``.
    """

    id = "R005"
    name = "float64-in-forward"
    severity = "warning"
    doc = ("hard-coded float64 literal inside a forward method; follow "
           "the operand's dtype or repro.nn.get_default_dtype() so the "
           "hot path stays in the engine dtype")

    def check(self, tree: ast.Module):
        for fn in _functions_named(tree, "forward"):
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) \
                        and node.attr == "float64":
                    yield (node, "np.float64 hard-coded in forward; follow "
                                 "the operand's dtype")
                elif isinstance(node, ast.Constant) \
                        and node.value == "float64":
                    yield (node, "'float64' dtype string hard-coded in "
                                 "forward; follow the operand's dtype")


# ---------------------------------------------------------------------- #
# R006 — Tensor comparison / truthiness in bool context
# ---------------------------------------------------------------------- #
#: Tensor methods that return a Tensor — a chain ending in one of these
#: applied to a tracked tensor stays tensor-valued.
_TENSOR_METHODS = frozenset({
    "sum", "mean", "max", "exp", "log", "sqrt", "tanh", "sigmoid", "relu",
    "abs", "clip_min", "transpose", "swapaxes", "reshape", "matmul",
    "take", "detach",
})

#: Constructors whose result is a Tensor.
_TENSOR_CTORS = frozenset({"Tensor", "Parameter"})


@rule
class TensorBoolContext(Rule):
    """Tensors don't collapse to a single truth value.

    ``Tensor.__gt__`` and friends return *numpy arrays*; using them in
    ``if``/``while``/``assert``/``bool()`` either raises numpy's
    "ambiguous truth value" at runtime (multi-element) or silently
    tests the wrong thing (single element: truthiness of the value, not
    of the intended condition).  Compare ``.item()`` / reduce with
    ``.any()``/``.all()`` instead.

    Detection is intra-function: names assigned from ``Tensor(...)`` /
    ``Parameter(...)``, from parameters annotated ``Tensor``, or from
    tensor-method chains on tracked names are considered tensors.
    """

    id = "R006"
    name = "tensor-bool-context"
    severity = "error"
    doc = ("Tensor (or Tensor comparison) used in a bool context; use "
           ".item(), .any() or .all() to collapse it explicitly")

    def check(self, tree: ast.Module):
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(fn)

    # -- per-function flow -------------------------------------------- #
    def _check_function(self, fn: ast.FunctionDef):
        tracked: Set[str] = set()
        args = list(fn.args.posonlyargs) + list(fn.args.args) \
            + list(fn.args.kwonlyargs)
        for arg in args:
            if arg.annotation is not None and \
                    self._annotation_is_tensor(arg.annotation):
                tracked.add(arg.arg)

        # Single forward pass in source order: track assignments, then
        # flag bool contexts that use a tracked expression.
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and \
                    self._is_tensor_expr(node.value, tracked):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tracked.add(target.id)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                if (node.value is not None
                        and self._is_tensor_expr(node.value, tracked)) \
                        or self._annotation_is_tensor(node.annotation):
                    tracked.add(node.target.id)

        for node in ast.walk(fn):
            for test in self._bool_contexts(node):
                culprit = self._tensor_in_bool_expr(test, tracked)
                if culprit is not None:
                    yield (test, culprit)

    @staticmethod
    def _bool_contexts(node: ast.AST) -> List[ast.AST]:
        if isinstance(node, (ast.If, ast.While)):
            return [node.test]
        if isinstance(node, ast.Assert):
            return [node.test]
        if isinstance(node, ast.IfExp):
            return [node.test]
        if isinstance(node, ast.BoolOp):
            return list(node.values)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return [node.operand]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "bool" and len(node.args) == 1:
            return [node.args[0]]
        return []

    def _tensor_in_bool_expr(self, expr: ast.AST,
                             tracked: Set[str]) -> Optional[str]:
        """Message if ``expr`` is tensor-valued or a tensor comparison."""
        if isinstance(expr, ast.Compare):
            # Identity/membership tests (`is`, `in`) return plain bools;
            # only value comparisons dispatch to Tensor.__gt__ & co.
            if all(isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn))
                   for op in expr.ops):
                return None
            operands = [expr.left] + list(expr.comparators)
            for operand in operands:
                if self._is_tensor_expr(operand, tracked):
                    return ("comparison involving a Tensor returns a numpy "
                            "array; its truth value is ambiguous — compare "
                            ".item() or reduce with .any()/.all()")
            return None
        if self._is_tensor_expr(expr, tracked):
            return ("Tensor used directly in a bool context; use .item(), "
                    ".any() or .all()")
        return None

    def _is_tensor_expr(self, expr: ast.AST, tracked: Set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in tracked
        if isinstance(expr, ast.Call):
            chain = _attr_chain(expr.func)
            if chain and chain[-1] in _TENSOR_CTORS:
                return True
            # tracked.method(...) chains that stay tensor-valued
            if isinstance(expr.func, ast.Attribute) \
                    and expr.func.attr in _TENSOR_METHODS:
                return self._is_tensor_expr(expr.func.value, tracked)
            return False
        if isinstance(expr, ast.BinOp):
            return self._is_tensor_expr(expr.left, tracked) \
                or self._is_tensor_expr(expr.right, tracked)
        if isinstance(expr, ast.UnaryOp):
            return self._is_tensor_expr(expr.operand, tracked)
        return False

    @staticmethod
    def _annotation_is_tensor(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Name):
            return annotation.id in _TENSOR_CTORS
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            return annotation.value in _TENSOR_CTORS
        if isinstance(annotation, ast.Attribute):
            return annotation.attr in _TENSOR_CTORS
        return False


# ---------------------------------------------------------------------- #
# R007 — Tensor construction inside a per-item loop in forward
# ---------------------------------------------------------------------- #
@rule
class TensorCtorInLoop(Rule):
    """Constructing tensors item-by-item in a hot loop is quadratic pain.

    ``Tensor(...)`` / ``Parameter(...)`` inside a ``for``/``while`` body
    of a ``forward`` method allocates (and, for ``Parameter``, registers
    trainable state!) once per iteration per call.  Build the full array
    first and wrap it once outside the loop — the GRU wraps its initial
    hidden state *before* its timestep loop for exactly this reason.
    """

    id = "R007"
    name = "tensor-ctor-in-loop"
    severity = "warning"
    doc = ("Tensor/Parameter constructed inside a loop in a forward "
           "method; hoist the wrap out of the loop and build the array "
           "in one shot")

    def check(self, tree: ast.Module):
        for fn in _functions_named(tree, "forward"):
            for loop in ast.walk(fn):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in ast.walk(loop):
                    if node is loop:
                        continue
                    # Nested loops are visited in their own right.
                    if isinstance(node, ast.Call):
                        chain = _attr_chain(node.func)
                        if chain and chain[-1] in _TENSOR_CTORS:
                            yield (node, f"{chain[-1]}(...) constructed "
                                         "inside a loop in forward; hoist "
                                         "the construction out of the loop")


# ---------------------------------------------------------------------- #
# R008 — numpy round-trip re-wrapped into a Tensor in forward
# ---------------------------------------------------------------------- #
@rule
class NumpyRoundTrip(Rule):
    """``Tensor(x.data ...)`` silently detaches the autograd graph.

    Reading ``.data`` (or calling ``.numpy()``) drops the recorded
    parents; wrapping the result back into a ``Tensor`` inside a
    ``forward`` produces a leaf that *looks* like a differentiable
    intermediate but receives no gradient.  If detaching is intended,
    call ``.detach()`` so the intent is explicit (and greppable).
    """

    id = "R008"
    name = "numpy-round-trip"
    severity = "error"
    doc = ("Tensor(...) wrapping a .data/.numpy() round-trip inside a "
           "forward method silently detaches the graph; use recorded "
           "ops, or .detach() if cutting the graph is intended")

    def check(self, tree: ast.Module):
        for fn in _functions_named(tree, "forward"):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                chain = _attr_chain(node.func)
                if not chain or chain[-1] not in _TENSOR_CTORS:
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    culprit = self._round_trip(arg)
                    if culprit:
                        yield (node, f"{chain[-1]}(...) wraps `{culprit}` "
                                     "in forward; the autograd graph is "
                                     "silently detached at this point")
                        break

    @staticmethod
    def _round_trip(expr: ast.AST) -> Optional[str]:
        """Dotted source of the first .data / .numpy() use inside expr."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and node.attr == "data":
                chain = _attr_chain(node)
                return ".".join(chain) if chain else "<expr>.data"
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "numpy":
                chain = _attr_chain(node.func)
                return (".".join(chain) + "()") if chain else "<expr>.numpy()"
        return None


# ---------------------------------------------------------------------- #
# R009 — concatenate/stack over a single-element sequence
# ---------------------------------------------------------------------- #
@rule
class SingleElementConcat(Rule):
    """Concat/stack of one tensor is a no-op wearing an op's costume.

    ``concatenate([x], axis=-1)`` copies ``x`` and records a backward
    for nothing; ``stack([x])`` is ``reshape``.  Usually the second
    operand got lost in a refactor — which is a silent shape bug, not a
    style issue, when the consumer expected the doubled width.
    """

    id = "R009"
    name = "single-element-concat"
    severity = "warning"
    doc = ("concatenate/stack called with a single-element list/tuple; "
           "either a no-op copy or a lost operand from a refactor")

    _FUNCS = frozenset({"concatenate", "stack"})

    def check(self, tree: ast.Module):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            chain = _attr_chain(node.func)
            if not chain or chain[-1] not in self._FUNCS:
                continue
            first = node.args[0]
            if isinstance(first, (ast.List, ast.Tuple)) \
                    and len(first.elts) == 1 \
                    and not isinstance(first.elts[0], ast.Starred):
                yield (node, f"{chain[-1]}() over a single-element "
                             "sequence is a no-op copy; pass the tensor "
                             "directly or restore the missing operand")


# ---------------------------------------------------------------------- #
# R010 — hand-composed subgraphs the fused kernels cover
# ---------------------------------------------------------------------- #
@rule
class ComposedKernelSubgraph(Rule):
    """Composed softmax/log-softmax/layer-norm/GRU in a forward method.

    The fused kernels (:mod:`repro.nn.kernels`) implement these with
    identical gradients and a fraction of the memory traffic; the
    dynamic IR pass G004 finds the same shapes at runtime.  A composed
    implementation in ``forward`` is either a site that should call the
    kernel-gated helpers (``repro.nn.functional.softmax`` & co.) or a
    reference fallback — the fallbacks carry a justified
    ``# repro: noqa[R010]``.
    """

    id = "R010"
    name = "composed-kernel-subgraph"
    severity = "warning"
    doc = ("hand-composed softmax/log-softmax/layer-norm/GRU subgraph in "
           "a forward method; covered by the fused kernels "
           "(repro.nn.kernels) — call the functional helpers, or noqa "
           "for the composed reference path")

    def check(self, tree: ast.Module):
        for fn in _functions_named(tree, "forward"):
            yield from self._softmax_like(fn)
            yield from self._layer_norm(fn)
            yield from self._gru(fn)

    # -- helpers -------------------------------------------------------- #
    @staticmethod
    def _is_method_call(expr: ast.AST, name: str,
                        require_no_args: bool = True) -> bool:
        """``<expr>.name()`` — tensor-method shape, not ``np.name(x)``."""
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == name
                and (not require_no_args or not expr.args))

    @classmethod
    def _assigned_from(cls, fn: ast.FunctionDef, predicate) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and predicate(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _softmax_like(self, fn: ast.FunctionDef):
        is_exp = lambda e: self._is_method_call(e, "exp")  # noqa: E731
        exp_names = self._assigned_from(fn, is_exp)

        def exp_value(expr: ast.AST) -> bool:
            return is_exp(expr) or (isinstance(expr, ast.Name)
                                    and expr.id in exp_names)

        def sum_of_exp(expr: ast.AST) -> bool:
            return (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "sum"
                    and exp_value(expr.func.value))

        sum_names = self._assigned_from(fn, sum_of_exp)

        def log_of_sum(expr: ast.AST) -> bool:
            if not self._is_method_call(expr, "log"):
                return False
            receiver = expr.func.value
            return sum_of_exp(receiver) or (
                isinstance(receiver, ast.Name) and receiver.id in sum_names)

        for node in ast.walk(fn):
            if not isinstance(node, ast.BinOp):
                continue
            if isinstance(node.op, ast.Div) and exp_value(node.left) \
                    and sum_of_exp(node.right):
                yield (node, "hand-composed softmax (exp / exp.sum) in "
                             "forward; call repro.nn.functional.softmax "
                             "(kernels.fused_softmax under use_kernels)")
            elif isinstance(node.op, ast.Sub) and log_of_sum(node.right):
                yield (node, "hand-composed log-softmax "
                             "(x - sum(exp).log()) in forward; call "
                             "repro.nn.functional.log_softmax")

    def _layer_norm(self, fn: ast.FunctionDef):
        has_mean = any(
            self._is_method_call(node, "mean", require_no_args=False)
            for node in ast.walk(fn)
        )
        if not has_mean:
            return
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) \
                    and self._is_method_call(node.right, "sqrt"):
                yield (node, "hand-composed layer-norm (centered / "
                             "var.sqrt() next to .mean()) in forward; "
                             "covered by kernels.fused_layer_norm")

    def _gru(self, fn: ast.FunctionDef):
        sigmoids = sum(1 for node in ast.walk(fn)
                       if self._is_method_call(node, "sigmoid"))
        tanhs = sum(1 for node in ast.walk(fn)
                    if self._is_method_call(node, "tanh"))
        if sigmoids >= 2 and tanhs >= 1:
            yield (fn, "forward composes GRU-style gates "
                       f"({sigmoids}× sigmoid, {tanhs}× tanh); covered "
                       "by kernels.fused_gru_sequence")


# ---------------------------------------------------------------------- #
# Running rules over sources
# ---------------------------------------------------------------------- #
def _noqa_map(source: str) -> Dict[int, Optional[Set[str]]]:
    """Line → suppressed rule ids (``None`` means every rule)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group(1)
        if codes is None or not codes.strip():
            out[lineno] = None
        else:
            out[lineno] = {code.strip().upper()
                           for code in codes.split(",") if code.strip()}
    return out


def _suppressed(noqa: Dict[int, Optional[Set[str]]], node: ast.AST,
                rule_id: str) -> bool:
    lines = {getattr(node, "lineno", 0)}
    end = getattr(node, "end_lineno", None)
    if end is not None:
        lines.add(end)
    for lineno in lines:
        codes = noqa.get(lineno, ...)
        if codes is None or (codes is not ... and rule_id in codes):
            return True
    return False


def lint_source(source: str, path: str = "<string>",
                select: Optional[Sequence[str]] = None,
                ignore: Optional[Sequence[str]] = None) -> List[Violation]:
    """Lint one source string; returns violations sorted by position."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(rule="E999", severity="error", path=path,
                          line=exc.lineno or 1, col=exc.offset or 0,
                          message=f"syntax error: {exc.msg}")]
    noqa = _noqa_map(source)
    wanted = {code.upper() for code in select} if select else None
    skipped = {code.upper() for code in ignore} if ignore else set()
    violations: List[Violation] = []
    for rule_cls in all_rules():
        if wanted is not None and rule_cls.id not in wanted:
            continue
        if rule_cls.id in skipped:
            continue
        checker = rule_cls()
        for node, message in checker.check(tree):
            if _suppressed(noqa, node, rule_cls.id):
                continue
            violations.append(Violation(
                rule=rule_cls.id, severity=rule_cls.severity, path=path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            ))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def lint_file(path: Path,
              select: Optional[Sequence[str]] = None,
              ignore: Optional[Sequence[str]] = None) -> List[Violation]:
    """Lint one ``.py`` file."""
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, path=str(path), select=select, ignore=ignore)


def _iter_python_files(paths: Sequence) -> List[Path]:
    """The ``.py`` files named by ``paths``, directories searched
    recursively.  Hidden and ``__pycache__`` directories are skipped only
    below a given directory, so a checkout under ``~/.cache`` still
    lints.  A path that does not exist raises ``FileNotFoundError``."""
    files: List[Path] = []
    for entry in map(Path, paths):
        if not entry.exists():
            raise FileNotFoundError(f"no such file or directory: {entry}")
        if entry.is_dir():
            files.extend(sorted(
                p for p in entry.rglob("*.py")
                if not any(part == "__pycache__" or part.startswith(".")
                           for part in p.relative_to(entry).parts)
            ))
        elif entry.suffix == ".py":
            files.append(entry)
    return files


@dataclass
class LintReport:
    """Violations plus run metadata, as produced by :func:`lint_paths`."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for violation in self.violations:
            out[violation.rule] = out.get(violation.rule, 0) + 1
        return out


def lint_paths(paths: Sequence,
               select: Optional[Sequence[str]] = None,
               ignore: Optional[Sequence[str]] = None) -> LintReport:
    """Lint files and directories (recursively); the CLI entry point.

    Raises ``FileNotFoundError`` for a path that does not exist.
    """
    report = LintReport()
    for file_path in _iter_python_files(paths):
        report.violations.extend(
            lint_file(file_path, select=select, ignore=ignore))
        report.files_checked += 1
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return report


# ---------------------------------------------------------------------- #
# Reporters
# ---------------------------------------------------------------------- #
def format_text(report: LintReport) -> str:
    """Human-readable report: one line per violation plus a summary."""
    lines = [violation.format() for violation in report.violations]
    counts = report.counts()
    if counts:
        summary = ", ".join(f"{rule}×{n}" for rule, n in sorted(counts.items()))
        lines.append(f"{len(report.violations)} violation(s) "
                     f"in {report.files_checked} file(s): {summary}")
    else:
        lines.append(f"0 violations in {report.files_checked} file(s)")
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Machine-readable report (stable key order)."""
    payload = {
        "files_checked": report.files_checked,
        "counts": report.counts(),
        "violations": [
            {"rule": v.rule, "severity": v.severity, "path": v.path,
             "line": v.line, "col": v.col, "message": v.message}
            for v in report.violations
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
