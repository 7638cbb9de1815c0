"""Parallel/serial equivalence: the runtime's core guarantee.

A sweep spec run through the batch runner must produce bit-identical rows
and ``SweepResult.series()`` whether it runs serially or on a process
pool — and whether the solutions come from fresh solves or from the cache.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, run
from repro.protocols.registry import available_protocols
from repro.runtime import BatchRunner, SolveCache, build_runner

#: The conftest ``small_scenario`` as an inline spec scenario.
SMALL_SCENARIO = {"depth": 4, "density": 6, "sampling_period": 600.0}
DELAYS = [2.0, 4.0, 6.0]
BUDGETS = [0.02, 0.06]


def _sweep(protocol: str, parameter: str, values) -> ExperimentSpec:
    return (
        ExperimentSpec.experiment("sweep")
        .with_scenario(SMALL_SCENARIO)
        .with_protocols(protocol)
        .with_requirements(energy_budget=0.06, max_delay=6.0)
        .with_sweep(parameter, values)
        .with_solver(grid_points=15, random_starts=1)
    )


def _serial() -> BatchRunner:
    return build_runner(workers=1, use_cache=False)


def _parallel(workers: int = 4) -> BatchRunner:
    return build_runner(workers=workers, use_cache=False)


@pytest.mark.parametrize("protocol", available_protocols())
class TestParallelSerialEquivalence:
    def test_delay_sweep_rows_identical(self, protocol):
        spec = _sweep(protocol, "max_delay", DELAYS)
        serial = run(spec, runner=_serial())
        parallel = run(spec, runner=_parallel())
        # Bit-identical: == on floats, no tolerance.
        assert serial.rows() == parallel.rows()
        assert serial.raw[protocol].series() == parallel.raw[protocol].series()
        assert serial.raw[protocol].feasibility == parallel.raw[protocol].feasibility
        assert serial.json_text() == parallel.json_text()

    def test_energy_sweep_rows_identical(self, protocol):
        spec = _sweep(protocol, "energy_budget", BUDGETS)
        serial = run(spec, runner=_serial())
        parallel = run(spec, runner=_parallel())
        assert serial.rows() == parallel.rows()
        assert serial.raw[protocol].series() == parallel.raw[protocol].series()


class TestInfeasibleEquivalence:
    def test_partially_infeasible_sweep_identical(self):
        spec = _sweep("xmac", "max_delay", [1e-4, 3.0, 1e-5, 5.0])
        serial = run(spec, runner=_serial())
        parallel = run(spec, runner=_parallel(2))
        assert serial.rows() == parallel.rows()
        assert serial.raw["xmac"].series() == parallel.raw["xmac"].series()
        assert serial.raw["xmac"].infeasible_values == [1e-4, 1e-5]
        assert parallel.raw["xmac"].infeasible_values == [1e-4, 1e-5]
        assert serial.raw["xmac"].feasibility == [False, True, False, True]


class TestCacheDeterminism:
    def test_cache_hit_rows_identical_to_fresh_solve(self):
        spec = _sweep("xmac", "max_delay", DELAYS)
        runner = BatchRunner(cache=SolveCache())
        fresh = run(spec, runner=runner).raw["xmac"]
        assert (fresh.cache_hits, fresh.cache_misses) == (0, len(DELAYS))
        cached = run(spec, runner=runner).raw["xmac"]
        assert (cached.cache_hits, cached.cache_misses) == (len(DELAYS), 0)
        assert cached.series() == fresh.series()
        assert [s.as_dict() for s in cached.solutions] == [s.as_dict() for s in fresh.solutions]

    def test_cache_warmed_by_parallel_run_serves_serial_run(self):
        spec = _sweep("xmac", "max_delay", DELAYS)
        cache = SolveCache()
        warm = run(spec, runner=build_runner(workers=2, cache=cache))
        served = run(spec, runner=BatchRunner(cache=cache))
        assert served.raw["xmac"].cache_hits == len(DELAYS)
        assert served.rows() == warm.rows()
