"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest wallbench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import checks
import serve
import workloads
from speed import GaugedClock
from tracer import (
    BATCHED_METHODS,
    PER_LAYER_METRICS,
    SCALAR_METHODS,
    SPAN_TARGETS,
    Tracer,
    protocol_classes,
    resolve_owner,
)

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _wrapped_names():
    """``(holder, attribute, defined_on_holder, object)`` for every target."""
    from repro.runtime.cache import SolveCache

    targets = [(resolve_owner(owner), attribute) for _, _, owner, attribute in SPAN_TARGETS]
    targets += [
        (cls, attribute)
        for cls in protocol_classes()
        for attribute in SCALAR_METHODS + BATCHED_METHODS
    ]
    targets.append((SolveCache, "get"))
    return [
        (holder, attribute, attribute in vars(holder), getattr(holder, attribute))
        for holder, attribute in targets
    ]


def _tiny_game():
    from repro.api import ExperimentSpec

    game = dict(workloads.suite_games(0)[0])
    spec = workloads.game_spec(game)
    spec["solver"] = {"grid_points": 8}
    return ExperimentSpec.from_dict(spec)


def test_traced_run_restores_every_wrapped_name():
    import repro.api as api
    from repro.runtime import build_runner
    from repro.runtime.cache import SolveCache

    before = _wrapped_names()
    with Tracer() as tracer:
        assert api.run is not before[0][3]
        api.run(_tiny_game(), runner=build_runner(workers=1, cache=SolveCache()))
    metrics = tracer.metrics()
    assert metrics["core.games"] == 1
    assert metrics["protocols.scalar_calls"] > 0
    assert metrics["optimization.grid_calls"] == 3
    for (holder, attribute, own, original), (_, _, own_after, after) in zip(
        before, _wrapped_names()
    ):
        assert own_after == own, f"{holder.__name__}.{attribute}"
        assert after is original, f"{holder.__name__}.{attribute} is still wrapped"


def test_tracer_restores_after_an_error():
    before = _wrapped_names()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert [item[3] for item in _wrapped_names()] == [item[3] for item in before]


def test_metric_names_match_the_pattern_and_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [metric["name"] for metric in declared["end_to_end"]]
    per_layer = [metric["name"] for metric in declared["per_layer"]]
    assert end_to_end == [name for name, _ in workloads.END_TO_END_METRICS]
    assert per_layer == [name for name, _ in PER_LAYER_METRICS]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert "setup_s" in end_to_end
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    assert workloads.suite_games(7) == workloads.suite_games(7)
    assert workloads.suite_games(7) != workloads.suite_games(8)
    assert workloads.campaign_specs(7) == workloads.campaign_specs(7)
    assert workloads.campaign_specs(7) != workloads.campaign_specs(8)
    plan = workloads.service_plan(7, 3.0)
    assert plan == workloads.service_plan(7, 3.0)
    assert plan.arrivals != workloads.service_plan(8, 3.0).arrivals
    dues = [due for due, _ in plan.arrivals]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] <= 3.0


def test_gauged_clock_never_runs_backwards():
    with GaugedClock() as clock:
        readings = [clock.now()]
        while readings[-1] < 0.3:
            sum(range(1000))
            readings.append(clock.now())
    assert all(later >= earlier for earlier, later in zip(readings, readings[1:]))


def test_best_of_passes_keeps_each_operations_least_time():
    from types import SimpleNamespace as Run

    runs = [
        Run(position=0, cpu=2.0, repeat_cpu=[0.3, 0.2]),
        Run(position=1, cpu=5.0, repeat_cpu=[]),
        Run(position=0, cpu=1.5, repeat_cpu=[0.4]),
        Run(position=1, cpu=6.0, repeat_cpu=[]),
    ]
    assert workloads.best_of_passes(runs) == ({0: 1.5, 1: 5.0}, {0: 0.2})


def test_each_protocol_gets_one_infeasible_game():
    games = workloads.suite_games(3)
    assert len(games) == 32
    tight = [game for game in games if game["max_delay"] < 0.05]
    assert sorted(game["protocol"] for game in tight) == ["dmac", "lmac", "scpmac", "xmac"]


def _served_url_is_closed(url: str) -> bool:
    try:
        urllib.request.urlopen(f"{url}/healthz", timeout=1.0)
    except OSError:
        return True
    return False


def test_serve_process_is_torn_down_when_the_block_fails(tmp_path):
    env = serve.child_env(ROOT, tmp_path)
    with pytest.raises(RuntimeError):
        with serve.serving(ROOT, tmp_path / "store", env) as server:
            process, url = server.process, server.url
            assert server.cpu_seconds() > 0.0
            raise RuntimeError("the run failed")
    assert process.poll() is not None
    assert _served_url_is_closed(url)


def test_service_workload_tears_the_server_down_when_driving_fails(tmp_path, monkeypatch):
    started = []
    spawn = serve.serving

    @contextlib.contextmanager
    def recording(*args, **kwargs):
        with spawn(*args, **kwargs) as server:
            started.append(server.process)
            yield server

    def fail(*_args, **_kwargs):
        raise RuntimeError("client crashed")

    monkeypatch.setattr(workloads.serve, "serving", recording)
    monkeypatch.setattr(workloads, "_drive", fail)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.tempfile, "tempdir", workloads.tempfile.tempdir)
    ctx = workloads.Context(root=ROOT, seed=0, seconds=1.0, trace=False, out=tmp_path)
    with pytest.raises(RuntimeError, match="client crashed"):
        workloads.run_service_mixed(ctx)
    assert started and all(process.poll() is not None for process in started)


def test_check_game_flags_a_false_infeasible_verdict():
    from repro.protocols.registry import create_protocol
    from repro.scenarios.presets import scenario_preset

    preset = scenario_preset("paper-default")
    model = create_protocol("xmac", preset.scenario)
    assert checks.check_game(model, preset.requirements(), None, 8)


def test_reference_check_flags_drift_beyond_the_tolerance():
    entry = {
        "scenario": "s",
        "protocol": "p",
        "energy_budget": 0.06,
        "max_delay": 6.0,
        "feasible": True,
        "E_star": 1.0,
        "L_star": 2.0,
    }
    assert checks.check_against_reference([dict(entry, E_star=1.0 + 5e-7)], [entry]) == []
    assert checks.check_against_reference([dict(entry, L_star=2.0 * (1 + 2e-6))], [entry])
    assert checks.check_against_reference([dict(entry, feasible=False)], [entry])


def test_benchmark_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "wallbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "wallbench/run.py", "--workload", "solve-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
