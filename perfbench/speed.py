"""The machine's speed through a run, from fixed reference work.

On a shared host the speed of the CPU changes in episodes lasting from
tens of milliseconds to minutes, by up to ~2.7x, and CPU time per
operation moves with it, so a raw timing mostly measures the neighbours.
So a fixed unit of pure-Python reference work is timed again and again
through a run: its nominal time over its measured time is the *speed* of
the machine at that moment, and every timing is multiplied by the mean
speed over its own interval (a rate divided by it).  The reported
figures are thus what the run would have measured at the nominal speed.
Wall-clock timings use the units' wall-clock speed, which also shows the
host descheduling the guest (steal); CPU times use the units' CPU speed,
which leaves steal out.

The reference work uses no code of the program under test, so a change
to the program cannot move it.  It mixes the interpreter work the
program does (calls, small objects, dicts, sets, strings) with the C
helpers it leans on (``json``, ``re``).  The slowdown is not exactly
uniform: code with a larger working set slows somewhat less than the
reference, so a run made wholly in the slow state reads up to ~13%
faster than one made in the fast state, instead of 2x slower.

:class:`Probe` runs the units in a process of its own, one every
``INTERVAL`` seconds (3-7% of one CPU); run as a script, this module is
that probe: ``python3 speed.py INTERVAL`` times one unit, writes one
byte, times units until its stdin closes, then writes for every unit its
start and end ``perf_counter`` times and its CPU seconds, as doubles.
``perf_counter`` is the system-wide monotonic clock on Linux, so the
times compare with the parent's.  :func:`time_unit` runs one unit in the
caller's own thread.
"""

from __future__ import annotations

import bisect
import json
import re
import select
import statistics
import subprocess
import sys
import time
from array import array
from itertools import accumulate
from pathlib import Path

#: Seconds between the probe's reference units.
INTERVAL = 0.01


class _Node:
    __slots__ = ("label", "children")

    def __init__(self, label: str, children: tuple) -> None:
        self.label = label
        self.children = children


def _build(depth: int, index: int) -> _Node:
    if depth == 0:
        return _Node(f"leaf{index & 7}", ())
    return _Node(f"n{index & 15}", tuple(_build(depth - 1, 3 * index + j) for j in range(3)))


def _count(node: _Node, counts: dict) -> dict:
    counts[node.label] = counts.get(node.label, 0) + 1
    for child in node.children:
        _count(child, counts)
    return counts


_DOCUMENT = json.dumps({f"k{i}": [i, str(i), {"x": i * 0.5}] for i in range(60)})
_TAG = re.compile(r'"(k\d+)"')


def reference_work() -> int:
    """One unit of fixed reference work (0.3 ms at the nominal speed)."""
    table: dict = {}
    total = 0
    for i in range(600):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    counts = _count(_build(4, 1), {})
    labels = frozenset(counts) | {(label, len(label)) for label in counts}
    total += len(json.loads(_DOCUMENT)) + len(_TAG.findall(_DOCUMENT))
    return total + len(labels)


def time_unit() -> tuple[float, float]:
    """Wall and CPU seconds of one reference unit, run here and now."""
    wall, cpu = time.perf_counter(), time.process_time()
    reference_work()
    return time.perf_counter() - wall, time.process_time() - cpu


class Probe:
    """The probe process, and the machine's speed over any interval it ran.

    ``nominal_ms`` is the time of one reference unit at the nominal speed;
    it is a fixed unit of the benchmark, not a measurement of the run.
    Speeds are known once :meth:`stop` has collected the probe's record.
    """

    def __init__(self, nominal_ms: float) -> None:
        self.nominal = nominal_ms / 1000.0
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(INTERVAL)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._mids: list[float] = []
        #: Prefix sums of the units' wall-clock and CPU speeds.
        self._sums = {"wall": [0.0], "cpu": [0.0]}
        if self.process.stdout.read(1) != b"r":
            self.stop()
            raise RuntimeError("the speed probe did not start")

    def stop(self) -> None:
        """End the probe, wait for it, and index its units by midpoint."""
        if self.process.poll() is None:
            self.process.stdin.close()
        record = array("d")
        try:
            record.frombytes(self.process.stdout.read())
            self.process.wait(timeout=20)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait(timeout=20)
            self.process.stdout.close()
        starts, ends, cpus = record[0::3], record[1::3], record[2::3]
        self._mids = [(start + end) / 2 for start, end in zip(starts, ends)]
        walls = [end - start for start, end in zip(starts, ends)]
        for clock, times in (("wall", walls), ("cpu", cpus)):
            self._sums[clock] = [0.0, *accumulate(self.nominal / seconds for seconds in times)]

    def speed(self, start: float, end: float, clock: str = "wall") -> float:
        """Mean speed over the units whose midpoints fall in ``[start, end]``.

        ``clock`` is ``"wall"`` for wall-clock timings, which the host also
        slows by descheduling the guest (steal), or ``"cpu"`` for CPU
        times, which leave steal out.  An interval shorter than the
        probe's period may hold no unit; it takes the one nearest its
        middle.
        """
        low = bisect.bisect_left(self._mids, start)
        high = bisect.bisect_right(self._mids, end)
        if high == low:
            middle = (start + end) / 2
            after = min(bisect.bisect_left(self._mids, middle), len(self._mids) - 1)
            before = max(after - 1, 0)
            low = before if middle - self._mids[before] < self._mids[after] - middle else after
            high = low + 1
        sums = self._sums[clock]
        return (sums[high] - sums[low]) / (high - low)

    def slowness(self) -> float:
        """Median of nominal over measured wall-clock speed, for the run's log."""
        sums = self._sums["wall"]
        return statistics.median(1.0 / (b - a) for a, b in zip(sums, sums[1:]))


def _probe(interval: float) -> None:
    out = sys.stdout.buffer
    record = array("d")
    while True:
        began = time.perf_counter()
        _wall, cpu = time_unit()
        record.extend((began, time.perf_counter(), cpu))
        if len(record) == 3:
            out.write(b"r")
            out.flush()
        if select.select([sys.stdin], [], [], interval)[0]:
            break
    out.write(record.tobytes())
    out.flush()


if __name__ == "__main__":
    _probe(float(sys.argv[1]))
