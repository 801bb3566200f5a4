"""Host speed: times in reference seconds, which cancel the host's swings.

The benchmark host shares its cores with other tenants, and each CPU's speed
swings by up to 2x from one second to the next; medians of raw times over a
run spread by 15-40% between runs of the same code. So an untraced run keeps
itself and the processes it starts on one CPU, and times that CPU with a
fixed reference kernel: pure-Python Fraction arithmetic that symineq's code
cannot change. A time in reference seconds is

    measured seconds x REF_S / (mean CPU time of one kernel run meanwhile)

so a change to symineq moves it as it moves wall time, while the speed the
host happens to give that CPU cancels out. On a CPU where the kernel takes
REF_S they are wall seconds.

"Meanwhile" differs by where the work runs. A child process (a CLI
operation, a set-up probe) is sampled while it runs: every SAMPLE_EVERY_S
this process wakes, runs the kernel once on the shared CPU and takes the
kernel's CPU time; the child's time is its wall time less those kernel runs.
Work in this process (a sweep operation, some milliseconds) is bracketed
instead, by kernel runs just before and just after it.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from fractions import Fraction
from itertools import combinations
from statistics import fmean

REF_S = 0.0016  # CPU time of one kernel run: its median on a 2-vCPU x86_64 host
SAMPLE_EVERY_S = 0.05

_ENTRIES = tuple(Fraction(p, q) for p in range(1, 4) for q in range(1, 4))


def kernel() -> Fraction:
    total = Fraction(0)
    for subset in combinations(_ENTRIES, 4):
        product = Fraction(1)
        for x in subset:
            product *= x
        total += product
    return total


def kernel_cpu_s() -> float:
    start = time.process_time()
    kernel()
    return time.process_time() - start


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts from now on, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostReference:
    """Converts times measured on this process's CPU to reference seconds."""

    def __init__(self):
        self.samples = [kernel_cpu_s()]  # CPU seconds of every kernel run

    def scale(self) -> float:
        """Reference seconds per second for the in-process work just timed,
        which the previous kernel run preceded."""
        self.samples.append(kernel_cpu_s())
        return 2 * REF_S / (self.samples[-2] + self.samples[-1])

    def run(self, argv: list[str], cwd, env: dict) -> tuple[int, bytes, int, float]:
        """Run a child process to its end, stdout and stderr captured, sampling
        the kernel meanwhile. Returns its exit code, output, peak RSS in kB and
        its time in reference seconds."""
        runs: list[float] = []
        chunks: list[bytes] = []
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        with proc, selectors.DefaultSelector() as sel:
            fd = proc.stdout.fileno()
            sel.register(fd, selectors.EVENT_READ)
            while True:
                # Waiting for output is the pause between kernel runs.
                if sel.select(SAMPLE_EVERY_S):
                    data = os.read(fd, 1 << 16)
                    chunks.append(data)
                    if not data:  # the child closed its output: it is ending
                        # wait4 reaps the child and returns its own rusage.
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                runs.append(kernel_cpu_s())
            # The child did not run while the kernel did.
            own = time.perf_counter() - start - sum(runs)
            proc.returncode = os.waitstatus_to_exitcode(status)
            chunks.append(proc.stdout.read())
        if not runs:  # a child shorter than one period: time the CPU after it
            runs.append(kernel_cpu_s())
        self.samples += runs
        return proc.returncode, b"".join(chunks), usage.ru_maxrss, own * REF_S / fmean(runs)
