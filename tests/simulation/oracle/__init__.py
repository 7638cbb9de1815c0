"""Frozen per-event reference simulator: the differential oracle.

This is the object-per-event simulator the package shipped before the
flat-array engine (:mod:`repro.simulation.batched`) became the only
production simulator.  It is kept here, outside the package, for one job:
gating the production kernels.  ``tests/simulation/test_kernel.py`` pins
its golden hex-float traces, ``tests/simulation/test_batched_differential.py``
asserts that production :func:`~repro.simulation.runner.simulate_protocol`
is bit-identical to :func:`simulate_oracle` across the preset × protocol
matrix, and ``benchmarks/bench_simulator.py`` times it as the within-process
speed denominator.  Nothing under ``src/`` imports it.

The code is frozen: change it only together with a deliberate, gated change
of the simulated results.

* :mod:`oracle.engine` — event queue and simulation clock.
* :mod:`oracle.energy` — radio-state energy accounting per node.
* :mod:`oracle.packets` — data packets and delivery records.
* :mod:`oracle.node` — sensor node: queue, traffic generation.
* :mod:`oracle.channel` — shared-medium busy bookkeeping.
* :mod:`oracle.mac` — per-protocol forwarding behaviours on the shared
  duty-cycle kernel (:mod:`oracle.mac.base`).
* :mod:`oracle.runner` — the run loop, :func:`simulate_oracle`.
"""

from .energy import EnergyAccount
from .engine import EventQueue, Simulator
from .runner import simulate_oracle

__all__ = ["EnergyAccount", "EventQueue", "Simulator", "simulate_oracle"]
