"""Optimisers: SGD (with momentum) and Adam, plus gradient clipping.

Parameters with ``grad is None`` (untouched by the last backward pass) are
skipped, so partial-graph training — e.g. fine-tuning only the attribute
module while the relation module is frozen — works without bookkeeping.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from ..obs import metrics
from . import hooks as _hooks
from .module import Parameter


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter]):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        for observer in _hooks.observers:
            observer.optimizer_created(self)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        metrics.counter("optim.steps").inc(optimizer="sgd")
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad  # repro: noqa[R001] optimizers update params in place by design


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        metrics.counter("optim.steps").inc(optimizer="adam")
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)  # repro: noqa[R001] optimizers update params in place by design


class LinearWarmupSchedule:
    """Linear warmup then linear decay, BERT-fine-tuning style.

    Wraps an optimiser and rescales its learning rate on every
    :meth:`step`::

        schedule = LinearWarmupSchedule(optimizer, warmup_steps=50,
                                        total_steps=500)
        ...
        optimizer.step()
        schedule.step()
    """

    def __init__(self, optimizer: Optimizer, warmup_steps: int,
                 total_steps: int):
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if not 0 <= warmup_steps <= total_steps:
            raise ValueError("warmup_steps must lie in [0, total_steps]")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self._step = 0

    def current_scale(self) -> float:
        """The multiplicative factor applied to the base learning rate."""
        step = min(self._step, self.total_steps)
        if self.warmup_steps and step < self.warmup_steps:
            return step / self.warmup_steps
        remaining = self.total_steps - self.warmup_steps
        if remaining <= 0:
            return 1.0
        return max(0.0, (self.total_steps - step) / remaining)

    def step(self) -> float:
        """Advance one step; returns the new learning rate."""
        self._step += 1
        self.optimizer.lr = self.base_lr * self.current_scale()
        return self.optimizer.lr


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    metrics.gauge("optim.grad_norm").set(total)
    if total > max_norm and total > 0:
        metrics.counter("optim.grad_clips").inc()
        scale = max_norm / total
        for param in params:
            param.grad *= scale  # repro: noqa[R001] clipping rescales grads in place by design
    return total
