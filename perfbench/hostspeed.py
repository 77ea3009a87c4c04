"""Host-speed correction for the benchmark's times.

The benchmark runs on shared cloud hosts whose cores slow down by a factor
of up to about 1.8, for stretches of seconds to minutes, while co-tenants
load them.  On the 2-vCPU Sapphire Rapids VM the benchmark was tuned on, a
fixed 8 ms pure-Python loop timed back to back for 150 s took 7.4 to 15 ms,
and the share of fast samples went from over half to none between one
10-second window and the next.  Raw wall times of the same code and inputs
moved by 30% and more between runs, wider than any bound a regression check
can use.

`probe()` is a fixed piece of pure-Python work of about a millisecond. The
loop runs it before every request and once after the last, and set-up before
and after its import and every document load, so the probes sample the
host's speed along the run. A corrected time is the wall time divided by the
slowdown the probes show around it, their mean over `REFERENCE_S`: the time
the work would take on a host where the probe takes `REFERENCE_S`. The
correction cancels what slows the probe and the program alike, the host;
what the program itself does is not touched, because the probe never
changes. On the tuning VM, `restrict_prime` documents that ran in the slow
state took 1.74 times as long as in the fast state (median over 136
documents), the probe 1.79 times.
"""

from __future__ import annotations

import time

PROBE_ITERATIONS = 6000
# The probe's time on the reference host, in seconds: about its fastest on
# an unloaded core of the tuning VM (0.88 to 1.02 ms).  Corrected times are
# seconds on that host.
REFERENCE_S = 1.0e-3


def probe():
    """Wall time of a fixed piece of pure-Python work: dict, int and bit
    operations, as in the interpreter-bound code under test."""
    start = time.perf_counter()
    table = {}
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i * 3 % 7
    return time.perf_counter() - start


def slowdown(probes):
    """The host slowdown the probes show: their mean over REFERENCE_S."""
    return sum(probes) / len(probes) / REFERENCE_S


def corrected(times, probes, window):
    """Every times[i], which ran between probes[i] and probes[i + 1],
    divided by the slowdown of probes i - window to i + 1 + window."""
    if len(probes) != len(times) + 1:
        raise ValueError("want %d probes around %d times, have %d"
                         % (len(times) + 1, len(times), len(probes)))
    return [t / slowdown(probes[max(0, i - window):i + 2 + window])
            for i, t in enumerate(times)]
