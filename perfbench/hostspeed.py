"""Host-speed probe: a fixed kernel, timed while the workload runs.

The benchmark runs on a few vCPUs of a shared host whose speed changes
between levels about 1.4-1.7x apart, from one second to the next and from
one minute to the next, as neighbours load the cores and memory. Passes
minutes apart can differ by as much as the bounds allow. An untraced pass
therefore runs this kernel every ``Sampler.every_s`` seconds, interrupting
the workload on a timer signal, and reports each item's time, less the
probes inside it, scaled by ``REF_MS`` over the mean probe time around it:
a time in seconds of a host that runs the kernel in ``REF_MS``.

The kernel uses only Python and numpy, never equilib, so a change to the
program cannot move it. It mixes interpreted Python, many small numpy calls
and whole-array arithmetic, the kinds of work the workloads do, so it slows
with the host as they do. It calls no BLAS or LAPACK routine, imports
nothing the workloads do not, and frees what it allocates, so it adds
under 1 MB to a pass's peak resident memory.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# the kernel's time in ms on the faster level of a 2-vCPU Intel Xeon host
# (numpy 2.4.6); it only sets the scale
REF_MS = 6.0

_SMALL = np.array([0.1, 0.7, 0.3, 0.9])


def _kernel() -> None:
    acc = 0
    for i in range(30_000):
        acc += (i * i) % 7
    x = _SMALL
    for _ in range(400):
        x = np.floor(2.0 * x) % 1.0 + x * 0.5
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(40):
        a = np.sort(np.sin(a * 3.0 + 1.0) * np.exp(-a))


def probe_ms() -> float:
    """Wall time of one run of the kernel, in ms."""
    start = time.perf_counter()
    _kernel()
    return 1e3 * (time.perf_counter() - start)


class Sampler:
    """Runs the kernel on SIGALRM every ``every_s`` seconds of wall time.

    A Python signal handler runs in the main thread between bytecodes, so a
    probe never overlaps the workload's own work; the workload waits for it.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.starts: list[float] = []
        self.ms: list[float] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.ms.append(1e3 * (time.perf_counter() - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def item_ms(self, start: float, end: float) -> tuple[float, float]:
        """Time from ``start`` to ``end`` less the probes inside it, in ms,
        plain and scaled by the probes inside it and the one on either side."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        own_ms = 1e3 * (end - start) - sum(self.ms[i:j])
        return own_ms, own_ms * REF_MS / statistics.fmean(self.ms[max(i - 1, 0):j + 1])


_kernel()  # warm up: first-call costs are not host speed
