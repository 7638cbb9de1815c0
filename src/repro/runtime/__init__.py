"""Parallel experiment runtime.

Shared execution layer for everything that solves many games: the spec
pipeline's sweeps, figures, suites and campaigns, scalability studies and
the CLI.  Three pieces compose:

* :mod:`repro.runtime.executor` — executor policies (serial / process
  pool, picked by the worker count) with deterministic, submission-ordered
  reassembly;
* :mod:`repro.runtime.cache` — a thread-safe memo of game solutions
  keyed by (protocol model, requirements, solver options);
* :mod:`repro.runtime.batch` — the :class:`BatchRunner` that chunks task
  grids across workers with progress callbacks and per-task error capture.

The invariant the whole package is built around: a parallel run is
bit-identical to a serial run.  Tasks are keyed by submission index and the
solves are deterministic, so the executor choice is purely a wall-clock
decision.
"""

from repro.runtime.batch import (
    BatchRunner,
    SolveTask,
    TaskOutcome,
    build_runner,
)
from repro.runtime.cache import (
    CacheStats,
    SolveCache,
    default_cache,
    freeze,
    model_fingerprint,
    solve_key,
)
from repro.runtime.executor import (
    ExecutorPolicy,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)

__all__ = [
    "BatchRunner",
    "SolveTask",
    "TaskOutcome",
    "build_runner",
    "CacheStats",
    "SolveCache",
    "default_cache",
    "freeze",
    "model_fingerprint",
    "solve_key",
    "ExecutorPolicy",
    "ProcessExecutor",
    "SerialExecutor",
    "resolve_executor",
]
