"""Deterministic discrete-event simulation kernel.

The kernel is intentionally SimPy-flavoured (generator processes yielding
``Timeout``/``Event`` objects) but self-contained, since this reproduction
must run offline.  Every simulated cluster experiment
(:func:`repro.chaos.run_plan`) executes the *real* database and
replication code under this kernel; only time is virtual.
"""

from repro.sim.kernel import Event, Interrupt, Process, Simulator, Timeout
from repro.sim.resources import Resource
from repro.sim.stats import Histogram, TimeSeries, WindowedRate

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Resource",
    "TimeSeries",
    "Histogram",
    "WindowedRate",
]
