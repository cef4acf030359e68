"""The engine observer registry (``repro.nn.hooks``)."""

import numpy as np
import pytest

from repro.nn import SGD, Linear, Module, Parameter, Tensor, hooks


class Recorder(hooks.Observer):
    def __init__(self):
        self.events = []

    def op_created(self, out, call):
        self.events.append(("op", len(call.inputs)))

    def node_dispatched(self, node, grad, contributions):
        self.events.append(("dispatch", len(contributions)))

    def backward_started(self, root, grad):
        self.events.append(("backward", float(grad)))

    def backward_finished(self, root, grad):
        self.events.append(("backward-done", float(grad)))

    def optimizer_created(self, optimizer):
        self.events.append(("optimizer", len(optimizer.parameters)))

    def module_entered(self, module, args, kwargs):
        self.events.append(("enter", type(module).__name__, len(args)))

    def module_exited(self, module, args, kwargs, out):
        self.events.append(("exit", type(module).__name__, out is None))


class ReturnsNone(hooks.Observer):
    def module_exited(self, module, args, kwargs, out):
        return None


class Failing(Module):
    def forward(self, x):
        raise ValueError("no")


def test_engine_events_in_order(rng):
    recorder = Recorder()
    handle = hooks.register_observer(recorder)
    try:
        layer = Linear(2, 1, rng)
        SGD(layer.parameters(), lr=0.1)
        layer(Tensor(np.ones((1, 2)))).sum().backward()
    finally:
        handle.remove()
    kinds = [event[0] for event in recorder.events]
    assert kinds[0] == "optimizer" and recorder.events[0][1] == 2
    assert ("enter", "Linear", 1) in recorder.events
    assert ("exit", "Linear", False) in recorder.events
    start = kinds.index("backward")
    assert kinds[-1] == "backward-done"
    assert set(kinds[start + 1:-1]) == {"dispatch"}
    assert hooks.observers == ()


def test_module_observer_cannot_replace_output(rng):
    layer = Linear(2, 1, rng)
    x = Tensor(np.ones((1, 2)))
    plain = layer(x).data
    handle = hooks.register_observer(ReturnsNone())
    try:
        observed = layer(x)
    finally:
        handle.remove()
    assert observed is not None
    np.testing.assert_array_equal(observed.data, plain)


def test_module_exit_runs_when_forward_raises():
    recorder = Recorder()
    handle = hooks.register_observer(recorder)
    try:
        with pytest.raises(ValueError):
            Failing()(Tensor([1.0]))
    finally:
        handle.remove()
    assert recorder.events[-1] == ("exit", "Failing", True)


def test_removal_in_any_order_is_idempotent():
    first, second, third = hooks.Observer(), hooks.Observer(), hooks.Observer()
    handles = [hooks.register_observer(o) for o in (first, second, third)]
    handles[1].remove()
    assert hooks.observers == (first, third)
    handles[0].remove()
    handles[0].remove()
    assert hooks.observers == (third,)
    handles[2].remove()
    assert hooks.observers == ()


def test_no_events_after_removal():
    recorder = Recorder()
    hooks.register_observer(recorder).remove()
    p = Parameter(np.ones(2))
    (p * p).sum().backward()
    assert recorder.events == []
