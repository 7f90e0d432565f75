"""Host-speed calibration: fixed probes timed between ops.

The machines the benchmark runs on are shared, and their speed drifts by up
to 1.7x over minutes. Raw wall times of the same code moved by 20 to 35 %
(IQR over median) between runs. The drift reaches the package and a fixed
probe alike, so the worker times a probe between ops, for ``SHARE`` of the
time it spends inside them, and every reported time is multiplied by the
probe's reference time over its mean time in the same cycle. A time then
reads as wall time on a host where the probe takes its reference time.

Two probes, one per kind of work:

- ``kernel``: a pure-Python loop with the interpreter work the package
  does. It scales the library ops; per cycle its time correlated with
  theirs at 0.98-0.99.
- ``spawn``: one bare ``python -c pass``. It scales what starts a process:
  the CLI ops and set-up. A CLI op moves only about half as much as the
  kernel with host speed, but as much as a bare start (per-op correlation
  0.83; 36-op blocks spread 0.03 scaled against 0.24 raw).

Neither probe touches the package, so a change to the package moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

SHARE = 0.25      # probe time per second spent inside ops
SETUP_CALLS = 3   # spawn probes a worker makes right after set-up

_MASK = (1 << 200) - 1


def kernel() -> int:
    """A fixed mix of the interpreter work the package does: calls, dicts,
    tuple keys, bit operations on 200-bit ints and small list sorts."""
    counts = {}
    acc = 0
    for i in range(750):
        key = (i % 97, i & 7)
        counts[key] = counts.get(key, 0) + 1
        x = (_MASK >> (i % 150)) & (_MASK ^ (1 << (i % 190)))
        acc += x.bit_count()
        row = [i, i + 1, i + 2]
        row.sort(reverse=True)
        acc += len(row)
    return acc + len(counts)


def spawn() -> None:
    """Start and wait for a bare interpreter."""
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True,
                   check=True)


# Probe name -> (probe, its time per call on the host where the bounds
# were set, in seconds).
PROBES = {"kernel": (kernel, 0.0005), "spawn": (spawn, 0.05)}


def timed(probe: str, calls: int):
    """(calls, seconds) of ``calls`` calls of a probe in a row."""
    fn = PROBES[probe][0]
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        fn()
    return calls, clock() - start


def factor(probe: str, calls: int, seconds: float) -> float:
    """Scale that turns wall time into reference-host time."""
    return PROBES[probe][1] * calls / seconds if seconds > 0 else 1.0
