"""Thread-safety pins for the process-wide state that library code keeps.

The pipeline runs on one thread, but a caller may still use the library
from several: the metric instruments, the forward-hook list and the
signature cache are shared and lock-guarded, while grad
mode and fused-kernel activation are per thread.  Each test drives one
of them from several threads, so a dropped lock or a leaked flag fails
here.
"""

import threading

import numpy as np


def hammer(worker, threads=8):
    """Run ``worker(index)`` on N threads, re-raising any exception."""
    errors = []

    def run(index):
        try:
            worker(index)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(timeout=30)
    assert not errors, errors


class TestThreadSafetyPins:
    def test_counter_increments_are_exact_under_contention(self):
        from repro.obs.metrics import Registry, set_registry

        registry = Registry()
        previous = set_registry(registry)
        try:
            counter = registry.counter("pin.total")
            histogram = registry.histogram("pin.seconds")
            per_thread, threads = 500, 8

            def worker(index):
                for _ in range(per_thread):
                    counter.inc()
                    histogram.observe(0.001 * index)

            hammer(worker, threads=threads)
            assert counter.value() == float(per_thread * threads)
            assert histogram.count() == per_thread * threads
        finally:
            set_registry(previous)

    def test_no_grad_is_thread_isolated(self):
        from repro.nn.tensor import is_grad_enabled, no_grad

        inner = {}
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with no_grad():
                inner["held"] = is_grad_enabled()
                entered.set()
                release.wait(timeout=10)

        t = threading.Thread(target=holder)
        t.start()
        assert entered.wait(timeout=10)
        try:
            # The other thread is inside no_grad; this one must not be.
            assert is_grad_enabled() is True
            assert inner["held"] is False
        finally:
            release.set()
            t.join(timeout=10)
        assert is_grad_enabled() is True

    def test_kernel_activation_is_thread_isolated(self):
        from repro.nn.kernels import kernel_active, use_kernels

        inner = {}
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with use_kernels():
                inner["held"] = kernel_active()
                entered.set()
                release.wait(timeout=10)

        t = threading.Thread(target=holder)
        t.start()
        assert entered.wait(timeout=10)
        try:
            # The other thread is inside use_kernels; this one must not be.
            assert kernel_active() is False
            assert inner["held"] is True
        finally:
            release.set()
            t.join(timeout=10)
        assert not t.is_alive()
        assert kernel_active() is False

    def test_signature_cache_is_locked_and_bounded(self):
        from repro.nn.spec import (
            _SIG_CACHE_MAX,
            _bind_arguments,
            _signature_cache,
        )
        from repro.nn.layers import Linear

        rng = np.random.default_rng(3)
        module = Linear(4, 2, rng)
        x = np.zeros((1, 4))

        def worker(index):
            for _ in range(200):
                bound = _bind_arguments(type(module).forward, module,
                                        (x,), {})
                assert bound is not None

        hammer(worker)
        assert len(_signature_cache) <= _SIG_CACHE_MAX

    def test_forward_hook_registry_survives_contention(self):
        from repro.nn import hooks

        def worker(index):
            for _ in range(100):
                handle = hooks.register_observer(hooks.Observer())
                handle.remove()

        hammer(worker)
        assert hooks.observers == ()
