"""Host-speed probes: a fixed piece of work timed while the benchmark measures.

The speed of one vCPU of the reference host swings by up to 1.8x, from one
second to the next and over minutes, independently on each vCPU; process
CPU time follows wall time, so neither CPU time nor longer runs remove it
from a raw timing.  The benchmark therefore pins itself and its children
to one CPU (``pin_one_cpu``) and, while an operation runs, fires a
``SpeedProbe`` every ``INTERVAL_S`` seconds of wall time.  Each probe runs a
fixed kernel of about ``REF_S`` seconds and records the CPU time it took.
An operation's time is then reported at the reference speed (``scaled``):
its wall time minus the probes that interrupted it, times ``REF_S`` over
the mean probe time during it.  Raw times stay in the run's details.

The kernel mixes what the library spends its time on: pure-Python loops
over sets, tuples and dicts (tree recursion, network simplex bookkeeping)
and numpy calls on arrays of a few dozen entries (the per-node 1-d
solves).  It never touches ``awsens``, so a change to the library cannot
move it, and every call does the same operations on the same data.

The probe runs from a SIGALRM handler, so it interrupts Python code between
bytecodes.  While the process waits for a child on the same CPU (a CLI
command, or a workload process during setup), the probe briefly preempts
the child, and its time is subtracted from the child's all the same.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
# the kernel's median seconds on the reference host (2 KVM vCPUs,
# "Intel(R) Xeon(R) Processor", Python 3.11.7, numpy 2.4.6); only a scale,
# so that scaled times read as seconds at that host's usual speed
REF_S = 0.0035

_LOOPS = 2_700
_NUMPY_CALLS = 135


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _kernel() -> int:
    acc = 0
    basis: set[tuple[int, int]] = set()
    dual: dict[int, int] = {}
    for i in range(_LOOPS):
        key = (i % 61, i % 37)
        if key in basis:
            basis.discard(key)
        else:
            basis.add(key)
        dual[key[0]] = dual.get(key[1], 0) + i
        acc += len(basis) & 7
    x = np.linspace(-1.0, 1.0, 24)
    w = np.full(24, 1.0 / 24)
    for _ in range(_NUMPY_CALLS):
        order = np.argsort(x, kind="stable")
        cum = np.cumsum(w[order])
        acc += int(np.searchsorted(cum, 0.5))
        x = x[::-1]
    return acc


def _timed_kernel() -> float:
    """CPU seconds of one kernel call.

    CPU time, not wall time: when the probe preempts a child on the same
    CPU, the child's time slices must not count as the probe's.  On the
    reference host CPU time follows the vCPU's speed just as wall time does.
    """
    c0 = time.process_time()
    _kernel()
    return time.process_time() - c0


def pin_one_cpu() -> int:
    """Pin this process, and the children it starts later, to one CPU.

    Probes measure the CPU they run on, and the vCPUs change speed
    independently, so the probes and the measured work must share one.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """Times the kernel every ``INTERVAL_S`` seconds between ``start`` and ``stop``.

    ``samples`` holds ``(start, seconds)`` of every probe, in order.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        _kernel()  # first call outside any measurement: numpy's lazy setup

    def _fire(self, signum, frame) -> None:
        self.samples.append((now(), _timed_kernel()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def scaled(self, start: float, end: float, first: int = 0) -> tuple[float, float]:
        """Raw and reference-speed seconds of the interval ``[start, end]``.

        Raw is the wall time less the probes inside the interval; the
        reference-speed time scales it by ``REF_S`` over their mean.  With
        no probe inside (an interval shorter than ``INTERVAL_S``), the
        kernel is timed once right away.  ``first`` is a sample index at or
        before the interval's first probe, to skip older samples.
        """
        inside = [d for t, d in self.samples[first:] if start <= t < end]
        raw = end - start - sum(inside)
        if not inside:
            inside = [_timed_kernel()]
        return raw, raw * REF_S / statistics.fmean(inside)
