"""Host-speed meter and per-operation deadline for the benchmark's runs.

On a shared host the same pure-Python work runs up to 2x slower for seconds
or minutes at a time, with CPU time equal to wall time, so the slowdown does
not show as waiting. The meter measures it directly: a SIGALRM timer fires
every ``INTERVAL_S`` of wall time and each tick times one pass of a fixed
reference loop in the CPU time of the thread that runs it. An operation's
time times ``REFERENCE_S`` over the mean tick during it is its time at the
reference speed, the speed at which one pass takes ``REFERENCE_S``. The loop
is the benchmark's own code, so a change to traincost moves the operation
and not the tick.

Ticks must run on the process that does the work. An operation in a fresh
interpreter therefore runs under this file as its entry point::

    python bench/meter.py -m traincost.cli eval --config ...
    python bench/meter.py -c "<code>" args...

which meters the child and prints ``meter-ticks <sum> <count> <cpu>`` as
the last line of its stderr, ``cpu`` being the CPU time of its main thread. Workers that ``multiprocessing`` forks (the tuner's
process pool) tick too, and add their reading to the parent's through a pipe
when they exit.

The same timer enforces the running operation's deadline: the tick after it
raises ``OpTimeout`` in the main thread, once.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import math
import multiprocessing.util
import os
import runpy
import signal
import sys
import time

INTERVAL_S = 0.02
# A fixed scale, close to one tick on an unloaded 2-core Xeon VM; it must not
# change, or times before and after the change are not comparable.
REFERENCE_S = 3.5e-4
TICKS_PREFIX = "meter-ticks"


class OpTimeout(Exception):
    pass


def reference_loop(n: int = 400) -> float:
    """Tuple-keyed dict lookups and float arithmetic, the mix of traincost's
    cost model."""
    table = {(i % 31, i % 7): float(i) for i in range(64)}
    acc = 0.0
    for i in range(n):
        v = table.get((i % 31, i % 7), 1.0)
        acc += math.sqrt(v + 1.0) * 0.5 + max(v, 2.0) / (1 + (i & 7))
    return acc


class SpeedMeter:
    """Context manager that owns SIGALRM for the process. With ``sample``
    off, or while ``paused``, it only enforces deadlines."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.tick_sum = 0.0
        self.tick_count = 0
        self.deadline: float | None = None
        self._timeout = 0.0
        self._workers: tuple[int, int] | None = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        if self.sample:
            self._workers = os.pipe()
            os.set_blocking(self._workers[0], False)
            multiprocessing.util.register_after_fork(self, SpeedMeter._start_in_worker)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self._workers:
            self.reading()
            for fd in self._workers:
                os.close(fd)
            self._workers = None
        return False

    def _tick(self, signum, frame):
        if self.sample:
            # a collection set off by the loop's allocations would charge the
            # program's heap to the tick
            collecting = gc.isenabled()
            gc.disable()
            t0 = time.thread_time()
            reference_loop()
            self.tick_sum += time.thread_time() - t0
            self.tick_count += 1
            if collecting:
                gc.enable()
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise OpTimeout(f"exceeded {self._timeout:.0f} s")

    def _start_in_worker(self):
        """In a forked multiprocessing worker: tick from zero, and report
        when the worker exits (multiprocessing runs its finalizers then)."""
        self.tick_sum, self.tick_count = 0.0, 0
        self.sample, self.deadline = True, None
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        multiprocessing.util.Finalize(self, self._report_from_worker, exitpriority=100)

    def _report_from_worker(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        os.write(self._workers[1], f"{self.tick_sum} {self.tick_count}\n".encode())

    def reading(self) -> tuple[float, int]:
        """Tick sum and count so far, with those of exited workers."""
        if self._workers:
            data = b""
            with contextlib.suppress(BlockingIOError):
                while chunk := os.read(self._workers[0], 65536):
                    data += chunk
            for line in data.decode().splitlines():
                total, count = line.split()
                self.tick_sum += float(total)
                self.tick_count += int(count)
        return self.tick_sum, self.tick_count

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling while a child process does the work, so that the
        parent's ticks neither slow it nor stand for its speed."""
        sample, self.sample = self.sample, False
        try:
            yield
        finally:
            self.sample = sample

    def arm(self, seconds: float) -> None:
        self._timeout = seconds
        self.deadline = time.perf_counter() + seconds

    def disarm(self) -> None:
        self.deadline = None


def child_reading(stderr: str) -> tuple[float, tuple[float, int]] | None:
    """(CPU seconds, (tick sum, tick count)) that a metered child printed
    last on its stderr, or None when it printed none."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(TICKS_PREFIX):
            _, total, count, cpu = line.split()
            return float(cpu), (float(total), int(count))
    return None


def main(argv: list[str]) -> None:
    """Run ``-m module args`` or ``-c code args`` under a meter."""
    flag, target, *args = argv
    meter = SpeedMeter().__enter__()

    def report():
        meter.__exit__()
        print(TICKS_PREFIX, meter.tick_sum, meter.tick_count, time.thread_time(),
              file=sys.stderr)

    atexit.register(report)
    # sys.path[0] as the interpreter sets it for -m and -c, not this directory
    if flag == "-m":
        sys.path[0] = os.getcwd()
        sys.argv = [target, *args]
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        sys.path[0] = ""
        sys.argv = ["-c", *args]
        exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})


if __name__ == "__main__":
    main(sys.argv[1:])
