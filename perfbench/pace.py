"""CPU pace: two fixed loops timed on both sides of every sample.

The benchmark's host shares its CPUs with other tenants, and their speed
drifts by up to a third for seconds at a time.  Two loops run at that same
drifting speed: one of interpreted integer arithmetic, one that touches
fresh memory (page faults and strided reads, as starting a process does).
A sample is scaled by the geometric mean of ``reference / loop time`` over
the two, so it reads as seconds at one fixed pace.  On the host the
benchmark was written on, over 100 seconds of alternating samples, the
quartile spread of medians of eight exchange-graph builds fell from 0.17
raw to 0.04 scaled, and that of fifteen CLI calls from 0.13 to about 0.05.
This holds only when the sample runs on the CPU the loops ran on, so
``run.py`` pins itself and its children to one CPU.  The loops run in a
helper process, so that their memory does not count in the benchmark's
own peak.  Raw seconds are kept in each run's record.
"""

import subprocess
import sys
import time

# The loops' times on an Intel Xeon vCPU (2 vCPUs); scaled figures read as
# seconds there.
REFERENCE_S = (0.005, 0.0025)


def _arithmetic() -> None:
    s = 0
    for i in range(60_000):
        s += i * i


def _memory() -> None:
    x = bytearray(8_000_000)
    for i in range(0, len(x), 4096):
        x[i] = 1
    sum(x[::64])


def _fastest(loop) -> float:
    """Fastest of two runs, so that an interrupt does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best


def loop_seconds() -> tuple[float, float]:
    return _fastest(_arithmetic), _fastest(_memory)


def serve() -> None:
    """Answer every line on stdin with the two loop times."""
    for _ in sys.stdin:
        print(*loop_seconds(), flush=True)


class Paced:
    """Times a call, and scales it by the loops timed just before and after.

    The loops run in a helper process, started here and stopped by
    ``close``; it inherits this process's CPU affinity.
    """

    # Loops timed this recently after one sample stand as the "before" of the next.
    REUSE_S = 0.05

    def __init__(self) -> None:
        self.raw = 0.0
        self.factor = 1.0
        self._after = None
        self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def loops(self) -> list[float]:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return [float(x) for x in self._helper.stdout.readline().split()]

    def __call__(self, fn, *args):
        if self._after and time.perf_counter() - self._after[1] < self.REUSE_S:
            before = self._after[0]
        else:
            before = self.loops()
        t0 = time.perf_counter()
        out = fn(*args)
        self.raw = time.perf_counter() - t0
        after = self.loops()
        self._after = (after, time.perf_counter())
        self.factor = 1.0
        for ref, b, a in zip(REFERENCE_S, before, after):
            self.factor *= (2 * ref / (b + a)) ** 0.5
        return out

    @property
    def scaled(self) -> float:
        return self.raw * self.factor

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=60)
        self._helper.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
