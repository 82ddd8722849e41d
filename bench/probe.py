"""Host-speed probe: a fixed loop timed on the CPU that runs the command.

On a shared host the same command's CPU time moves by up to 2x within
seconds: the host's other tenants slow the core it runs on. A command is
slowed about as much as a short loop of interpreter and small-NumPy work timed
on the same CPU while it runs. On a 2-vCPU KVM guest (Xeon, Emerald Rapids),
per run, the log of search_compare's CPU time against the log of this loop's
median time had correlation 0.84 and slope 0.97.

So the benchmark pins itself and the command to one CPU, and while the command
runs it sleeps GAP_S, times the loop, and repeats. A run's slowdown is the
loop's median time over REF_S, and a command's scaled time is its CPU time /
slowdown: the time it would have taken on a host where the loop takes REF_S.
The loop does not use wearmap, so a change to the program does not move it.
Its data stay in the first-level caches, so the command's own cache use
barely moves it either; a loop over a large dict was tried and dropped,
because its time followed the command's memory use as much as the host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

GAP_S = 0.02  # sleep between samples: the probe takes about 1% of the CPU
REF_S = 2.0e-4  # about the loop's median on the host named above; sets the scale

_A = np.arange(64, dtype=float)


def loop() -> float:
    """Fixed work like the swarm's bookkeeping: dict updates, small NumPy sorts."""
    d: dict[int, int] = {}
    for i in range(300):
        k = (i * 7919) % 61
        d[k] = d.get(k, 0) + i
    s = 0.0
    for i in range(20):
        s += float(np.sort(_A * (i % 5 + 1))[-1])
    return s


def sample() -> tuple[float, float]:
    """Sleep GAP_S, then time the loop: (seconds, monotonic clock at its end)."""
    time.sleep(GAP_S)
    t = time.perf_counter()
    loop()
    end = time.perf_counter()
    return end - t, time.monotonic()


def slowdown(samples: list[tuple[float, float]]) -> float:
    """The host's slowdown over the samples' span, against REF_S."""
    return statistics.median(s for s, _ in samples) / REF_S
