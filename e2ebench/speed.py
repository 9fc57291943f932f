"""Host-speed calibration of the benchmark's timings.

On a shared, virtualized host the same code runs up to ~1.8x slower while
a neighbour loads the other hardware thread of its core, and that load
changes within seconds, so raw host seconds of two runs a minute apart
are not comparable. The process being timed therefore also times a fixed
probe loop every ``PERIOD_S`` seconds from a SIGALRM handler: the probe
runs on the same hardware thread, under the same neighbours, as the code
around it. A timing is reported in reference seconds: host seconds times
``REFERENCE_PROBE_S`` over the probe's trimmed mean duration in that
interval. The probe is plain bytecode with no calls, so cProfile does not
slow it.
"""

import os
import signal
import time
from pathlib import Path

PERIOD_S = 0.03
#: The probe's duration on an uncontended 2 GHz Xeon (Sapphire Rapids)
#: vCPU under CPython 3.11; a reference second is a host second there.
REFERENCE_PROBE_S = 2.5e-4
#: Share of the slowest and of the fastest probes left out of the mean,
#: so a probe that straddled a preemption does not count.
TRIM = 0.1


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes.

    Arithmetic alone under-corrects a contended simulator slightly and
    small allocations alone over-correct it. Timed against a fixed
    simulation on a shared host for seven minutes, their sum brought the
    spread of rep times from 18% of their mean (host seconds) to 3%.
    """
    start = time.perf_counter()
    table = [0] * 64
    x = 1
    for i in range(1000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 63] += i
    kept = [None] * 350
    for i in range(350):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        kept[i] = (x, [x & 7, i], {"k": x})
    return time.perf_counter() - start


class SpeedLog:
    """Probe samples of this process and of the processes it forks.

    A sample is ``(time.monotonic() at its end, probe seconds)``. Forked
    children (the executor's pool) start their own timer and append their
    samples to ``speed-<pid>.log`` files in ``log_dir``.
    """

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.samples = []
        #: In a forked child, the descriptor its samples are appended to.
        self._child_fd = None
        self._ticking = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        os.register_at_fork(after_in_child=self._start_child)

    def stop(self) -> None:
        """Stop the timer; a SIGALRM during interpreter exit would kill it."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def burst(self, count: int) -> None:
        """Take ``count`` samples back to back, for an interval that was too
        short for the timer to sample well (a process's set-up)."""
        for _ in range(count):
            seconds = probe()
            self.samples.append((time.monotonic(), seconds))

    def _tick(self, _signum, _frame) -> None:
        # A signal can arrive while the previous tick still runs; the
        # measured code must never see the sampler, so that one is skipped.
        if self._ticking:
            return
        self._ticking = True
        try:
            seconds = probe()
            if self._child_fd is None:
                self.samples.append((time.monotonic(), seconds))
            else:
                line = f"{time.monotonic()!r} {seconds!r}\n"
                os.write(self._child_fd, line.encode("ascii"))
        except OSError:
            pass  # a lost sample only widens the calibration's error
        finally:
            self._ticking = False

    def _start_child(self) -> None:
        # Interval timers are not inherited across fork. Pool children
        # leave through os._exit or SIGTERM, so each sample is one
        # unbuffered append and the descriptor is closed by the exit.
        self.samples = []
        self._child_fd = os.open(
            self.log_dir / f"speed-{os.getpid()}.log",
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o644,
        )
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _children_samples(self):
        for path in self.log_dir.glob("speed-*.log"):
            # Only complete lines: a child may be stopped mid-append.
            for line in path.read_text().split("\n")[:-1]:
                when, seconds = line.split()
                yield float(when), float(seconds)

    def factor(self, start: float, end: float, children: bool = False) -> float:
        """Reference seconds per host second over ``[start, end]``.

        ``children`` takes the samples of forked children instead of this
        process's own. With no sample in the interval, every sample so far
        stands in for it.
        """
        samples = list(self._children_samples()) if children else self.samples
        window = sorted(s for when, s in samples if start <= when <= end)
        if not window:
            window = sorted(s for _, s in samples)
        if not window:
            raise RuntimeError("no speed probe has run yet")
        cut = int(len(window) * TRIM)
        kept = window[cut: len(window) - cut]
        return REFERENCE_PROBE_S * len(kept) / sum(kept)
