"""Measurement primitives shared by every perfbench workload.

* percentiles with the ten-samples-beyond rule, so a reported tail always
  rests on at least ten observations past it;
* :class:`Tracer`, which wraps a program function from the outside and
  accumulates per-layer *self* time (a wrapped call's duration minus the
  time spent in wrapped calls nested inside it, on the same thread);
* peak RSS read from ``/proc/<pid>/status``;
* the exact-value comparison used by the golden output checks.

Nothing here imports the program, so the harness tests run without it.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(p: float, n: int) -> int:
    """1-based nearest-rank index of percentile ``p`` in ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    return max(1, math.ceil(p / 100.0 * n))


def samples_beyond(p: float, n: int) -> int:
    """Samples strictly past the nearest-rank ``p``-th percentile."""
    return n - nearest_rank(p, n)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; raises if fewer than ten samples lie beyond."""
    n = len(values)
    beyond = samples_beyond(p, n)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are required"
        )
    return sorted(values)[nearest_rank(p, n) - 1]


def min_samples(p: float) -> int:
    """Fewest samples for which percentile ``p`` may be reported."""
    n = 1
    while samples_beyond(p, n) < MIN_BEYOND:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water resident set size (``VmHWM``) of a live process, in MB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


def first_mismatch(expected: Any, actual: Any, where: str = "") -> Optional[str]:
    """Path to the first difference between two JSON-shaped values, or None.

    Floats compare exactly: a golden value and a recomputed one must agree
    bit for bit (JSON round-trips a Python float exactly).
    """
    if isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        if len(expected) != len(actual):
            return f"{where}: length {len(actual)} != {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = first_mismatch(e, a, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return f"{where}: keys {sorted(actual)} != {sorted(expected)}"
        for k in sorted(expected):
            found = first_mismatch(expected[k], actual[k], f"{where}.{k}")
            if found:
                return found
        return None
    if type(expected) is not type(actual) or expected != actual:
        return f"{where}: {actual!r} != {expected!r}"
    return None


class Tracer:
    """Per-layer call counts and self time for functions patched from outside.

    ``patch(owner, name, layer)`` replaces ``owner.name`` with a wrapper, so
    it must name the attribute callers actually look up (a module global or
    a class attribute).  ``clock`` is ``time.perf_counter`` for wall-clock
    self time or ``time.thread_time`` for per-thread CPU time.  An optional
    ``hook(args, kwargs, result, token)`` sees every completed call, where
    ``token`` is what ``before(args, kwargs)`` returned on entry (None
    without one); that is how the layer-specific counts (sizes kept, hits,
    bytes, state changes) are gathered.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        fn: Callable,
        hook: Optional[Callable[[tuple, dict, Any, Any], None]] = None,
        before: Optional[Callable[[tuple, dict], Any]] = None,
    ) -> Callable:
        clock = self.clock
        tracer = self

        lock = self._lock  # hooks update shared counts from executor threads

        def traced(*args, **kwargs):
            token = None
            if before is not None:
                with lock:
                    token = before(args, kwargs)
            stack = tracer._stack()
            stack.append(0.0)  # time of wrapped calls nested in this one
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    tracer.self_s[layer] += elapsed - nested
                    tracer.calls[layer] += 1
            if hook is not None:
                with lock:
                    hook(args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(
        self, owner: Any, name: str, layer: str, hook=None, before=None
    ) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(self.wrap(layer, raw.__func__, hook, before))
        elif isinstance(raw, classmethod):
            new = classmethod(self.wrap(layer, raw.__func__, hook, before))
        else:
            new = self.wrap(layer, raw, hook, before)
        setattr(owner, name, new)
        self._patched.append((owner, name, raw))

    def restore(self) -> None:
        while self._patched:
            owner, name, raw = self._patched.pop()
            setattr(owner, name, raw)

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.calls.clear()

    def totals(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                layer: {"self_s": self.self_s[layer], "calls": self.calls[layer]}
                for layer in sorted(set(self.self_s) | set(self.calls))
            }


# -- host speed ----------------------------------------------------------------

#: Time of :func:`calibration_kernel` on an undisturbed host, in seconds.
#: A time measured while the kernel ran in ``c`` seconds is reported at
#: reference speed as ``t * REF_KERNEL_S / c``.
REF_KERNEL_S = 0.0045


def calibration_kernel() -> float:
    """Fixed interpreter-bound work shaped like the program's inner loops:
    small-tuple allocation, dict stores and float arithmetic."""
    table: Dict[int, Tuple[int, float]] = {k: (k, 0.0) for k in range(256)}
    acc = 0.0
    for i in range(26_000):
        item = (i, i * 0.5)
        table[i & 255] = item
        acc += item[1] * 1.0001 - table[(i * 7) & 255][1]
    return acc


class HostSpeed:
    """Samples the host's speed between units of work.

    The host this benchmark runs on drifts by up to 1.6x over tens of
    seconds, and a drift that long cannot be averaged out inside a run.
    Each :meth:`segment` call runs the calibration kernel (best of
    ``repeats``) and returns the factor that rescales the work done since
    the previous call to reference speed, using the faster of the samples
    on either side of it: a slowdown lasting as long as the work shows on
    both sides, while a burst caught by one sample would otherwise skew a
    seconds-long unit.
    """

    def __init__(self, repeats: int = 3, ref_s: float = REF_KERNEL_S):
        self.repeats = repeats
        self.ref_s = ref_s
        self.samples: List[float] = []

    def sample(self) -> float:
        best = math.inf
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            calibration_kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best

    def segment(self) -> Optional[float]:
        """Sample; the factor for the work since the last sample (None at first)."""
        previous = self.samples[-1] if self.samples else None
        now = self.sample()
        if previous is None:
            return None
        return self.ref_s / min(previous, now)

