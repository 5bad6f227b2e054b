"""Speed probes: the machine's current speed, sampled while the work runs.

On a shared host the CPU time of the same pass swings by a factor of up
to 1.5 within minutes, as other tenants load the physical cores and
caches.  A SpeedProbe interrupts the process every PROBE_EVERY_S of its
CPU time (SIGPROF) and times one fixed probe: about a millisecond of work
shaped like the workload's hot paths that calls no ptdiff code, so a
change to ptdiff cannot move it.  The probes are spread over the measured
span in proportion to its CPU time, so they see the same host as the work
does.  The span's own CPU time, probes taken out, is rescaled to the
reference speed::

    reference s = (CPU s - probe CPU s) * probes * reference probe s / probe CPU s

The reference probe times are what the probes took on a 2-vCPU Xeon KVM
guest with Python 3.11.7 and numpy 2.4.6, so the figures read as seconds
on that machine.  A program that gets slower reads slower; the host's
swings cancel to the extent that they slow the probe and the program
alike.  They do not slow all code alike, so each workload names the probe
shaped like its own profile (see workloads.py).  The probes call no BLAS
routine, so the BLAS thread count does not matter.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PROBE_EVERY_S = 0.01  # process CPU seconds between two probes

_SMALL = np.linspace(-1.0, 1.0, 33)
_GRID = np.linspace(0.0, 1.0, 2048)
_BATCH = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4096, 2))


class _Jet:
    """A small value object, like the tensor layer's jets."""

    __slots__ = ("center", "coeffs")

    def __init__(self, center, coeffs):
        self.center = center
        self.coeffs = coeffs

    def __add__(self, other):
        return _Jet(self.center, self.coeffs + other.coeffs)


def _bump(x, c, r):
    s = ((x - c) / r) ** 2
    out = np.zeros_like(x)
    inside = s < 1.0
    out[inside] = np.exp(1.0 / (s[inside] - 1.0))
    return out


def _python_work(atoms, jet_ops, scalars):
    """Per-atom evaluations on small point sets, object churn, scalar math."""
    acc = 0.0
    for i in range(atoms):
        v = _bump(_SMALL, i * 1e-2, 0.7)
        acc += float(np.broadcast_to(v, (2, 33)).sum()) + float(np.abs(v).max())
    jet = _Jet(0.0, np.zeros(6))
    step = _Jet(0.0, np.full(6, 1e-3))
    for _ in range(jet_ops):
        jet = jet + step
    acc += float(jet.coeffs[0])
    for i in range(scalars):
        x = i / scalars
        acc += math.sin(x) * math.exp(-x) + math.sqrt(x + 1.0)
    return acc


def interpreter_probe():
    """Mostly Python calls over small arrays, as in per-atom and per-center loops."""
    acc = _python_work(24, 80, 400)
    for i in range(4):  # a vectorised integrand
        acc += float(np.sum(np.exp(-_GRID * (1.0 + i)) * np.cos(_GRID)))
    return acc


def batch_probe():
    """A bump times a polynomial over a 4096-point 2-D quadrature batch."""
    acc = _python_work(12, 60, 300)
    pts = _BATCH * 0.91  # the cell's affine map
    s = np.sum(pts ** 2, axis=1)
    inside = s < 1.0
    q = pts[inside]
    x, y = q[:, 0], q[:, 1]
    num = 1.0 + 3.0 * x * y - 2.5 * x ** 2 * y + 0.5 * y ** 3 - x ** 4
    out = np.zeros(len(pts))
    out[inside] = num * np.exp(1.0 / (s[inside] - 1.0))
    return acc + float(out.sum())


# probe, and its CPU seconds at the reference speed
PROBES = {"interpreter": (interpreter_probe, 0.00090),
          "batch": (batch_probe, 0.00138)}


class SpeedProbe:
    """Runs one probe every PROBE_EVERY_S of process CPU time once started."""

    def __init__(self, kind: str):
        self.work, self.reference_s = PROBES[kind]
        self.count = 0
        self.cpu_s = 0.0
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.thread_time()  # precise; process_time ticks while the timer runs
        self.work()
        self.cpu_s += time.thread_time() - start
        self.count += 1
        self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def reading(self):
        return self.count, self.cpu_s

    def to_reference(self, cpu_s: float, before, after) -> float:
        """CPU seconds of a span between two readings, probes out, at reference speed."""
        count = after[0] - before[0]
        probe_s = after[1] - before[1]
        if count == 0 or probe_s <= 0.0:
            raise ValueError("no speed probe ran in the span")
        return (cpu_s - probe_s) * count * self.reference_s / probe_s
