"""Machine-speed correction for timings taken on a shared machine.

The machine this benchmark runs on is shared: for seconds at a time the
same pure-Python work runs 20-50% slower, which no setting of ours can
prevent.  While a run measures, a timer signal interrupts it every
INTERVAL_S and runs one short calibration slice in the same thread.  The
slice does the same kind of work as the program (bitmask tests, a generator
under ``any``, dict updates) but none of the program's code.  A call's
time, less the slices that ran inside it, is scaled by ``REFERENCE_S`` over
the median slice time during and around the call: the seconds the call
takes when a slice takes ``REFERENCE_S``.  A slowdown of the program is not
scaled away, since the slices do not run program code; a slowdown of the
whole machine is.
"""

import signal
from statistics import median
from time import perf_counter

# one calibration() slice on an idle core of the reference machine
# (2-core shared VM, Python 3.11); fixed so results stay comparable
REFERENCE_S = 0.00055
_BASES = tuple(range(7, 4096, 37))


def calibration() -> int:
    acc = 0
    table = {}
    for x in range(0, 4096, 32):
        acc += (x & -x).bit_count() + any(x & ~b == 0 for b in _BASES)
        key = x & 255
        table[key] = table.get(key, 0) + 1
    return acc + len(table)


class Clock:
    """Samples machine speed while open, and corrects the calls it records.

    Use as a context manager around the measured work; it owns SIGALRM and
    the real-time interval timer while open.
    """

    INTERVAL_S = 0.05
    WINDOW_S = 0.5

    def __init__(self):
        self.slices = []  # (start, seconds) of each calibration slice
        self.calls = []  # (key, start, end)
        self._old_handler = None

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _tick(self, signum, frame):
        start = perf_counter()
        calibration()
        self.slices.append((start, perf_counter() - start))

    def record(self, key: str, start: float, end: float):
        self.calls.append((key, start, end))

    def corrected(self, start: float, end: float) -> tuple:
        """(seconds of the call less its slices, those seconds speed-corrected)."""
        raw = end - start - sum(d for t, d in self.slices if start <= t < end)
        near = [d for t, d in self.slices
                if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        return raw, raw * REFERENCE_S / median(near)

    def samples(self) -> dict:
        """key -> [(raw seconds, speed-corrected seconds)] in call order."""
        out = {}
        for key, start, end in self.calls:
            out.setdefault(key, []).append(self.corrected(start, end))
        return out
