"""A fixed pure-Python kernel that says how fast this machine is right now.

The benchmark runs on a shared box whose speed drifts by tens of percent within
an hour and jumps by as much within seconds.  Timings are therefore divided by a
*slowdown*: how long a fixed piece of work took while they were taken, over how
long it took on the reference box.  The kernel mixes what the simulator's hot
path is made of — dict traffic, a binary heap, method calls on a ``__slots__``
object and float arithmetic — so that it slows down when the simulator does.

Two ways of taking the reading, because a reading only helps if it is taken
while the thing it normalises runs (sizing, 24 trials of a 3 s job: the wall
time's coefficient of variation was 12 % raw, 6 % divided by readings taken just
before and after, 3.5 % divided by readings taken during):

* :class:`Speedometer` — in band.  While a job runs, a timer interrupts it after
  every ``PERIOD_S`` of progress and runs one short *slice* of the kernel in the
  job's own thread.  The time spent in slices is taken off the job's wall
  and CPU time, and their mean duration over ``SLICE_REF_S`` is the slowdown the
  job saw.  Apart from three small containers a slice allocates only ints and
  floats, which the garbage collector does not track, so it does not make the
  collector run over the job's heap.
* :func:`measure` — out of band, for set-up trials, which are whole processes
  too short to sample from inside: one full kernel run between each two trials.

``KERNEL_VERSION`` changes whenever the kernel or a reference time does; results
taken under different versions are not comparable and ``perfbench compare``
refuses them.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List

KERNEL_VERSION = 1

#: Seconds one full kernel run took (typical quiet reading) on the 2-core box
#: this benchmark was sized on, the day it was committed.  Only a scale: every
#: normalised number reads as "seconds on that box, that day".
REF_S = 0.145

#: The same for one in-band slice.
SLICE_REF_S = 0.0016

#: The job runs this many seconds between two in-band slices …
PERIOD_S = 0.02
#: … of this many rounds each: about 7 % of a trial's time goes to calibration.
SLICE_ROUNDS = 2_500

_ROUNDS = 250_000


class _Cell:
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1


def kernel(rounds: int = _ROUNDS) -> float:
    """The fixed work; returns a checksum so none of it can be skipped."""
    table: dict = {}
    heap: list = []
    cell = _Cell()
    state = 12345
    for index in range(rounds):
        state = (state * 1103515245 + 12345) % 2147483648
        key = state % 4096
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, state / 2147483648.0)
        if index % 3 == 2:
            cell.add(heapq.heappop(heap) * 1.5 + table[key])
    return cell.total + len(heap)


def measure() -> float:
    """Wall seconds of one full kernel run."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Speedometer:
    """Samples the machine's speed from inside a job; use as a context manager.

    Only in the main thread.  Worker processes a job starts inherit neither the
    timer nor its cost.  A slice is timed in CPU seconds of this thread: on a
    box whose hypervisor hides stolen time they follow the machine's speed just
    as wall seconds do, and they leave out the time a slice waited for a core
    that the job's own workers were using.
    """

    def __init__(self) -> None:
        self.slices: List[float] = []  #: CPU seconds of each slice, in order

    def _tick(self, signum, frame) -> None:
        started = time.thread_time()
        kernel(SLICE_ROUNDS)
        self.slices.append(time.thread_time() - started)
        # One shot, armed again only now: however slow the machine gets, the job
        # runs for PERIOD_S between two slices and no slice interrupts another.
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:  # a job shorter than one period still gets a reading
            self._tick(None, None)

    @property
    def total_s(self) -> float:
        """Seconds spent in slices: what the job's own wall and CPU time exclude."""
        return sum(self.slices)

    def slowdown(self) -> float:
        """How much slower than the reference box the machine ran during the job."""
        return self.total_s / len(self.slices) / SLICE_REF_S
