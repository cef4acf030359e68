"""Module and Parameter abstractions for the numpy neural-net substrate.

Mirrors the PyTorch ``nn.Module`` contract at a small scale: parameter
registration by attribute assignment, recursive traversal, train/eval
modes, and flat state dicts for serialisation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from . import hooks as _hooks
from .tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; always created with ``requires_grad=True``."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural-network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation,
    gradient clearing and (de)serialisation.
    """

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training: bool = True

    def __setattr__(self, name: str, value) -> None:
        parameters = self.__dict__.setdefault("_parameters", {})
        modules = self.__dict__.setdefault("_modules", {})
        if isinstance(value, Parameter):
            parameters[name] = value
            modules.pop(name, None)
        elif isinstance(value, Module):
            modules[name] = value
            parameters.pop(name, None)
        else:
            # Re-assigning an attribute to a plain value must evict any
            # stale Parameter/Module registered under the same name —
            # otherwise optimisers and state dicts keep training and
            # serialising an object the module no longer uses.
            parameters.pop(name, None)
            modules.pop(name, None)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for all trainable tensors."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters, depth-first."""
        for _, param in self.named_parameters():
            yield param

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable values."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # Modes and gradients
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name → array mapping (arrays are copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values in-place from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.shape}, got {value.shape}"
                )
            param.data[...] = value  # repro: noqa[R001] state-dict restore writes in place so optimizer slots stay valid

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        observers = _hooks.observers
        if not observers:
            return self.forward(*args, **kwargs)
        for observer in observers:
            observer.module_entered(self, args, kwargs)
        out = None
        try:
            out = self.forward(*args, **kwargs)
        finally:
            for observer in observers:
                out = observer.module_exited(self, args, kwargs, out)
        return out


class ModuleList(Module):
    """An indexable container whose children are registered submodules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)
