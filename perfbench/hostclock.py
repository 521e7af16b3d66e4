"""Reference clock: timings of a fixed workload, taken in a child process.

Every time the benchmark reports is scaled to a host on which one sample
of the reference workload takes REFERENCE_S.  On a shared host the CPU's
speed moves by ±15% within seconds, and a whole run can be 40% slower
than the one before it; the reference slows down with it.

The workload is pure Python and never calls the program: 6000 random
reads from a table of 40 000 small tuples, each stored into a fresh dict.
Like the ops, it is bound by memory access more than by arithmetic, and
it slows down about as much as they do when the host does; an integer
loop slows down less.  It runs in a child process of its own, which
takes one sample per request on its standard input, so the program's
heap (say, a memoization cache the ops keep alive) cannot slow the
reference and flatter the program.
The benchmark waits for each sample, so the two never run at once, and
asks for one between two ops once REFERENCE_EVERY_S has passed since the
last, so the samples are spread evenly over the run's time.  An op's time
is scaled by the samples taken nearest to it (`scale_at`), since the
host's speed moves within seconds.

    python3 perfbench/hostclock.py    # the child: one sample per input line
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import time

REFERENCE_S = 0.008  # about the median sample on the machine the benchmark was made on
REFERENCE_EVERY_S = 0.25  # least time between two samples
LOCAL_SAMPLES = 2  # samples nearest an op that scale its time


class HostClock:
    """Reference samples taken through a run; use as a context manager,
    so the child process is stopped and waited for."""

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []  # when each sample was taken
        self._last = float("-inf")
        self._child = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._read()  # the child has started

    def sample(self) -> None:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        self.samples.append(float(self._read()))
        self._last = time.perf_counter()
        self.stamps.append(self._last)

    def tick(self) -> None:
        """Take a sample if REFERENCE_EVERY_S has passed since the last."""
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)

    def scale_at(self, t: float) -> float:
        """Factor from seconds to reference seconds at time `t`, from the
        median of the LOCAL_SAMPLES samples taken nearest to it."""
        k = bisect.bisect(self.stamps, t)
        lo = max(0, min(k - LOCAL_SAMPLES // 2, len(self.stamps) - LOCAL_SAMPLES))
        return REFERENCE_S / statistics.median(self.samples[lo : lo + LOCAL_SAMPLES])

    def _read(self) -> str:
        line = self._child.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the reference clock process ended")
        return line

    def __enter__(self) -> HostClock:
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        self._child.wait(timeout=30)
        self._child.stdout.close()


def workload(table) -> float:
    rng = random.Random(5)
    start = time.perf_counter()
    seen = {}
    total = 0
    for _ in range(6000):
        row = table[rng.randrange(40_000)]
        seen[row[2]] = row[0]
        total += row[1]
    return time.perf_counter() - start


def serve() -> None:
    """One sample per input line.  Each sample runs the workload twice and
    times the second run, so it starts from the same cache state whatever
    the op before it touched."""
    table = [(i, i * 3 % 7, (i, i + 1)) for i in range(40_000)]
    print("ready", flush=True)
    for _ in sys.stdin:
        workload(table)
        print(workload(table), flush=True)


if __name__ == "__main__":
    serve()
