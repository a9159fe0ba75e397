"""repro.control -- epoch-based online re-partitioning.

The paper's closing loop (Sec. IV-C): profile ``APC_alone`` online with
the three per-app counters, re-solve the partitioning shares every
epoch, push them into the scheduler.  This package is that loop and
the tooling around it:

* :mod:`repro.control.smoothing` -- EMA / sliding-window estimate
  smoothing with NaN-aware element-wise semantics;
* :mod:`repro.control.changepoint` -- relative-shift change-point
  detection on the raw epoch estimates;
* :mod:`repro.control.tracker` -- :class:`ProfileTracker`, the
  smoother + detector composition shared by the simulator-side
  controller and the service's streaming sessions;
* :mod:`repro.control.controller` -- :class:`EpochController`, the
  engine repartition hook with adaptive epoch windowing and a
  per-epoch decision log.  With a plain EMA tracker and the detector
  threshold at infinity it is the fixed-epoch (CBP-style) controller;
* :mod:`repro.control.oracle` -- :class:`PhaseOracle`, ground-truth
  allocations from a declared phase schedule;
* :mod:`repro.control.evaluate` -- convergence-lag / tracking-error /
  regret evaluation of a controller run against the oracle;
* :mod:`repro.control.health` -- :class:`ControllerHealth`,
  oracle-free live health counters (detector fire-rate, β churn,
  re-solve latency, regret proxies) exported through the service's
  ``/metrics`` and the :mod:`repro.watch` layer.
"""

from repro.control.changepoint import RelativeShiftDetector
from repro.control.controller import EpochController, EpochDecision
from repro.control.health import ControllerHealth
from repro.control.evaluate import (
    ControlEvalResult,
    ConvergenceEvent,
    evaluate_controller,
)
from repro.control.oracle import PhaseOracle, beta_for
from repro.control.smoothing import (
    EMASmoother,
    SlidingWindowSmoother,
    Smoother,
    make_smoother,
)
from repro.control.tracker import ProfileTracker, TrackerUpdate

__all__ = [
    "RelativeShiftDetector",
    "ControllerHealth",
    "EpochController",
    "EpochDecision",
    "ControlEvalResult",
    "ConvergenceEvent",
    "evaluate_controller",
    "PhaseOracle",
    "beta_for",
    "EMASmoother",
    "SlidingWindowSmoother",
    "Smoother",
    "make_smoother",
    "ProfileTracker",
    "TrackerUpdate",
]
