"""The simulator's engine and per-protocol kernels.

:mod:`repro.simulation.batched.engine` runs one replication as a lean
event loop over flat arrays — list-indexed node state, tuple events,
closure hop planners and block-vectorized RNG draws — and
:mod:`repro.simulation.batched.kernels` holds the X-MAC, LMAC, DMAC and
SCP-MAC arithmetic it drives.  :func:`repro.simulation.simulate_protocol`
is the entry point.  A differential harness
(``tests/simulation/test_batched_differential.py``) proves every
replication bit-identical to the frozen per-event oracle under
``tests/simulation/oracle/``.
"""
