"""Reference seconds: CPU time rescaled to a fixed core speed.

On a shared machine the same single-threaded work takes up to 1.7x longer
from one second to the next, and the level drifts over minutes, in CPU
time as much as in wall time: the core itself is slowed by its
neighbours.  A fixed pure-Python kernel is slowed by about as much as
finalg is.  In a probe of back-to-back closure builds, each followed by
one kernel, the two correlated at 0.8, and build time divided by kernel
time spread a third as much as build time over 5-second windows.

So a RefClock runs that kernel every TICK_S of CPU time (SIGPROF from
ITIMER_PROF) and records the kernel's time.  `now()` reads the thread's
CPU time with the kernels' own time taken out.  After the timed region,
`finish()` maps such readings to reference seconds: the CPU time between
two kernels counts REF_KERNEL_S / k times, where k is the median of the
WINDOW + 1 kernel times centred on that interval.  One reference second is one CPU
second on a core on which the kernel takes REF_KERNEL_S, its median on
the measuring host.  CPU time also leaves out time the process spent
descheduled.  Use one clock per process, in its main thread.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

TICK_S = 0.01
WINDOW = 5  # an interval's scale is the median of WINDOW + 1 kernel times around it
REF_KERNEL_S = 3.0e-4  # median kernel time on the measuring host (see README.md)

_M = 64
_LUT = bytes((i * 37 + 11) % 256 for i in range(256))
_ROWS = [int.from_bytes(bytes((i * j + 3) % 4 for j in range(_M)), "big") for i in range(16)]


def kernel():
    """Fixed work in the style of finalg's closure rounds and table code: big-int
    arithmetic, to_bytes, a byte translation, dict and set inserts and lookups
    of bytes and tuples.  It imports nothing from finalg, so a change to
    finalg cannot change it."""
    pos = {}
    for x in _ROWS:
        x4 = x * 4
        for y in _ROWS:
            res = (x4 + y).to_bytes(_M, "big").translate(_LUT)
            if res not in pos:
                pos[res] = len(pos)
    seen = set()
    for i in range(250):
        seen.add((i * 7 % 101, i % 13, i * i % 97))
    index = {x: i for i, x in enumerate(seen)}
    return len(pos) + len(index)


class RefClock:
    def __init__(self):
        self.cpu = time.thread_time
        self.excluded = 0.0  # CPU seconds spent in kernels so far
        self.marks = []  # now() at each tick
        self.kernels = []  # kernel CPU seconds at each tick
        self.ticks = 0
        self._ref = None  # set by finish(): reference seconds at each mark

    def _calibrate(self):
        enabled = gc.isenabled()
        gc.disable()  # the kernel measures the core, not the heap's collections
        t0 = self.cpu()
        kernel()
        t1 = self.cpu()
        if enabled:
            gc.enable()
        self.marks.append(t0 - self.excluded)
        self.kernels.append(t1 - t0)
        self.excluded += self.cpu() - t0
        self.ticks += 1

    def _tick(self, signum, frame):
        self._calibrate()

    def start(self):
        for _ in range(WINDOW // 2):
            self._calibrate()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        for _ in range(WINDOW // 2):
            self._calibrate()

    def now(self):
        """CPU seconds of this thread, kernels left out."""
        while True:
            n = self.ticks
            value = self.cpu() - self.excluded
            if n == self.ticks:  # no tick landed between the two reads
                return value

    def finish(self):
        """Stop ticking and fix the mapping of now() readings to reference seconds."""
        self.stop()
        k, h = self.kernels, WINDOW // 2
        self._scale = [REF_KERNEL_S / statistics.median(k[max(0, i - h):i + h + 2])
                       for i in range(len(k))]
        self._ref = [0.0]
        for i in range(1, len(self.marks)):
            self._ref.append(self._ref[-1]
                             + (self.marks[i] - self.marks[i - 1]) * self._scale[i - 1])
        return self

    def ref(self, t):
        """Reference seconds from the first mark to the now() reading t."""
        i = max(0, bisect.bisect_right(self.marks, t) - 1)
        return self._ref[i] + (t - self.marks[i]) * self._scale[i]

    def span(self, t0, t1):
        return self.ref(t1) - self.ref(t0)

    def kernel_median(self):
        return statistics.median(self.kernels)


class ClockModule:
    """Stands in for the `time` module of a finalg module: its perf_counter
    reads RefClock.now and keeps every reading, so that the module's own
    per-item timings (certify.check_certificate's) can be mapped to
    reference seconds afterwards."""

    def __init__(self, clock):
        self.readings = []
        now, keep = clock.now, self.readings.append

        def perf_counter():
            t = now()
            keep(t)
            return t

        self.perf_counter = perf_counter
