"""Process-wide allocator tuning shipped with the fused-kernel layer.

glibc's malloc serves multi-MB requests (every numpy temporary at SDEA
training sizes) from fresh ``mmap`` regions by default, and hands them
straight back to the kernel on free.  Each training step therefore
re-faults the same buffers page by page: on the reference host this
costs more wall time than the arithmetic itself (a composed softmax
forward+backward drops from ~13 ms to ~3 ms once the heap is allowed to
recycle those buffers).

:func:`tune_allocator` raises glibc's dynamic mmap threshold and trim
threshold to 64 MiB so hot-loop temporaries are recycled from the heap
instead.  It is applied once per process, the first time a
``use_kernels()`` context is entered — the fused execution path ships
with its allocator configuration, the same way BLAS libraries ship
threading defaults.  On non-glibc platforms it is a silent no-op.
"""

from __future__ import annotations

import threading

__all__ = ["tune_allocator"]

# glibc malloc.h: mallopt parameter constants.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: The value both thresholds are raised to (64 MiB).
_THRESHOLD_BYTES = 1 << 26

# Once-per-process latch.  Locked so two threads entering their first
# use_kernels() concurrently cannot both run the mallopt sequence.
_TUNE_LOCK = threading.Lock()
_tuned = False


def tune_allocator() -> bool:
    """Raise glibc's mmap/trim thresholds; idempotent per process.

    Returns ``True`` if the thresholds were (already) applied, ``False``
    when the platform has no reachable ``mallopt``.
    """
    global _tuned
    with _TUNE_LOCK:
        if _tuned:
            return True
        import ctypes
        try:
            libc = ctypes.CDLL("libc.so.6", use_errno=True)
            libc.mallopt(_M_MMAP_THRESHOLD, _THRESHOLD_BYTES)
            libc.mallopt(_M_TRIM_THRESHOLD, _THRESHOLD_BYTES)
        except (OSError, AttributeError):
            return False
        _tuned = True
        return True
