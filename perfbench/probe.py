"""A side process that keeps measuring the host's current speed.

The benchmark shares its machine with other tenants, whose load can slow
every operation by a third for tens of seconds.  While a workload runs,
this process times a short fixed pure-Python loop every few milliseconds
(a few per cent of one core).  Dividing an operation's wall time by the
median loop time seen during that operation cancels the host's drift: the
ratio moves when the program's own work changes, not when the neighbours'
load does.

Run as ``python perfbench/probe.py OUT``; it appends ``start duration``
lines (``time.perf_counter`` seconds, comparable across processes) to
``OUT`` until it is terminated.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOOP_ITERATIONS = 20_000
INTERVAL_S = 0.05


def _loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return total


def main(out: str) -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(out, "a", buffering=1) as sink:
        while True:
            t0 = time.perf_counter()
            _loop()
            sink.write(f"{t0!r} {time.perf_counter() - t0!r}\n")
            time.sleep(INTERVAL_S)


class HostProbe:
    """The probe process, and the loop times it saw in a time window."""

    def __init__(self, out: Path):
        self.out = Path(out)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.out)])
        self._samples = None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            self.proc.wait(timeout=30)

    def samples(self) -> list:
        if self._samples is None:
            self.stop()
            rows = [line.split() for line in self.out.read_text().splitlines()]
            # The last line may be cut short by the terminate.
            self._samples = [(float(r[0]), float(r[1])) for r in rows if len(r) == 2]
        return self._samples

    def loop_time(self, start: float, end: float) -> float:
        """Median loop seconds over ``[start, end]`` (at least 3 samples)."""
        inside = [d for t, d in self.samples() if start <= t <= end]
        if len(inside) < 3:
            mid = (start + end) / 2.0
            nearest = sorted(self.samples(), key=lambda s: abs(s[0] - mid))[:3]
            inside = [d for _, d in nearest]
        return statistics.median(inside)


if __name__ == "__main__":
    main(sys.argv[1])
