"""The host's speed, read from a fixed reference loop, and times scaled by it.

On a machine that shares its cores with other tenants, the same code can run
in modes up to ~1.6x apart in speed, each lasting seconds to minutes (on the
2-vCPU KVM guest this benchmark was built on, a pure-Python chunk took either
~7.5 or ~12 ms). A run of a minute may sit in one mode throughout, so no
amount of averaging inside a run steadies its wall times. The benchmark
therefore times, right before and right after each stretch of work, a loop of
pure Python and small elementwise numpy calls that never changes, and scales
the wall time of the work to the speed at which that loop takes ``REF_S``:

    scaled = wall * REF_S / cal_s

A change to the program moves the scaled time exactly as it moves the wall
time; a change of the host's mode moves both the wall time and ``cal_s``.

Each vCPU changes mode on its own, so the loop must run on the CPU the work
runs on. Work in the benchmark's own process reads it in place (``calibrate``)
between stretches of work. Work in another process, a pipeline op, is read
while it runs, on the CPU its main thread is on at that moment (``read_on``,
``cpu_of``). Against 100 s of sampler draws in 5 s windows, the in-place loop
cut the spread of the draw rate from 12% (wall time) to 4%; a loop with 64x64
matrix products instead, 5%; readings pinned to each CPU in turn, 7%. Over 12
``ring-merge`` pipeline ops, reading on the op's CPU every 50 ms cut the
op-to-op spread from 5.6% to 2.5-3.3%, while reading wherever the benchmark
happened to run left it at 10-11%.
"""

import os
import time

import numpy as np

# cal_s of the build machine in its fast mode, so that scaled times read
# about like wall times there; any constant would do, as only ratios matter
REF_S = 2.3e-3

_X = np.random.default_rng(1).random(4096)
_Y = np.random.default_rng(2).random(4096)


def _loop() -> float:
    """CPU seconds of one run of the loop: a wait for the CPU, which another
    process may hold, is not counted; a slower CPU is."""
    start = time.thread_time()
    s = 0
    for i in range(20000):
        s += i * i
    for _ in range(60):
        m = (_X * 2.0 + _Y) > 1.0
        int(np.count_nonzero(m))
        float(_Y[m].sum())
    return time.thread_time() - start


def calibrate(repeat: int = 3) -> float:
    """Seconds the reference loop takes now, the fastest of ``repeat`` tries."""
    return min(_loop() for _ in range(repeat))


def cpu_of(pid: int):
    """The CPU the main thread of process ``pid`` last ran on, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def read_on(cpu) -> float:
    """One run of the loop on ``cpu`` (this process pinned there meanwhile),
    or wherever this process is when ``cpu`` is None or cannot be used."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return _loop()
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return _loop()
    try:
        return _loop()
    finally:
        os.sched_setaffinity(0, allowed)


def scale(wall_s: float, *readings: float) -> float:
    """``wall_s`` at the reference speed, the host's speed taken as the mean
    of the readings beside or during the work."""
    return wall_s * REF_S / (sum(readings) / len(readings))
