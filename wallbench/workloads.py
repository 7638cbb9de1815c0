"""The three workloads, run the way a user runs the system.

Each workload has a seeded generator (the program only ever sees the specs
and requests it produces), an untraced timed run that yields the
end-to-end metrics, and a traced run that yields the per-layer split.  See
``README.md`` next to this file for why each workload exists.

Operations are timed in gauged CPU seconds (see ``speed.py``): on a shared
virtual machine, wall time also counts the time the host gives the CPUs to
other guests, and plain CPU time follows the CPUs' changing speed.  Wall
times are printed to standard error alongside.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import checks
import serve
import speed
from tracer import PER_LAYER_METRICS, Tracer, self_time_table

#: ``--seed`` when none is given; the reference answers are for this seed.
DEFAULT_SEED = 0

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: Drawn requirements are the suggested ones scaled by a factor drawn in
#: [1 - REQUIREMENT_SPREAD, 1 + REQUIREMENT_SPREAD].
REQUIREMENT_SPREAD = 0.02

#: The paper's grid resolution (points per parameter axis).
PAPER_GRID_POINTS = 60

#: Nominal seconds of one 32-game ``solve-suite`` pass; a 20 s run plays two.
SUITE_PASS_SECONDS = 12.5

#: Nominal seconds of one 8-campaign ``campaign-sim`` pass; a 20 s run plays two.
CAMPAIGN_PASS_SECONDS = 9.0

#: Warm re-runs of each feasible cold game (answered by the pass's solve cache).
GAME_REPEATS = 5

#: Warm replays of each cold campaign (answered by the campaign's store).
CAMPAIGN_REPLAYS = 10

#: Open-loop offered rate of ``service-mixed`` in client calls per second.
#: An assumption, not a measurement: the repository records no usage.  One
#: client thread makes the calls; a store-hit job call spends about
#: POLL_INTERVAL asleep, so at this rate the client is busy about a third
#: of the time and few calls start late, while a 20 s run still makes 500
#: calls.
SERVICE_RATE = 25.0

#: Share of ``service-mixed`` calls that submit a spec the service has not
#: seen (a store-hit job); the rest resubmit the pool spec.  An assumption,
#: not a measurement: equal shares give both latency percentiles about the
#: same number of samples.
NEW_SPEC_SHARE = 0.5

#: Sleep between result polls.  Five times the ~4 ms a store-hit job takes,
#: so a job call is one POST and two GETs (the first answered 202) however
#: slow the host is at the moment; a shorter sleep would make the number of
#: polls, and so the CPU time of a call, follow the host's speed.
POLL_INTERVAL = 0.02

#: Giving up on a single job after this many seconds counts as a failure.
JOB_TIMEOUT = 30.0

#: End-to-end metrics every untraced run reports, with their units.  The
#: README maps each onto the quantity it measures on each workload.
END_TO_END_METRICS: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_cpu_s", "1/s"),
    ("answer_cpu_p50_ms", "ms"),
    ("answer_cpu_p90_ms", "ms"),
    ("repeat_cpu_p50_ms", "ms"),
    ("repeat_cpu_p90_ms", "ms"),
)


# ---------------------------------------------------------------------- #
# Shared plumbing
# ---------------------------------------------------------------------- #


@dataclass
class Context:
    """Where and how one benchmark invocation runs."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    out: Path

    def __post_init__(self) -> None:
        self.tmp = self.out / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(self.tmp)
        self.env = serve.child_env(self.root, self.tmp)

    def scratch(self, prefix: str) -> Path:
        """A fresh temporary directory inside the checkout."""
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.tmp))


@dataclass
class Outcome:
    """What one run reports: operation counts, failures and metrics."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Count one failed operation or check."""
        self.failures.append(message)

    def as_json(self) -> Dict[str, Any]:
        attempted = max(1, self.attempted)
        return {
            "correct": not self.failures,
            "attempted": attempted,
            "failed": min(len(self.failures), attempted),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_cpu() -> float:
    """CPU seconds of every child process this one has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_fresh_import(ctx: Context) -> float:
    """CPU seconds a fresh interpreter takes to import ``repro.cli``."""
    before = _children_cpu()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        cwd=str(ctx.root),
        env=ctx.env,
        check=True,
        stdin=subprocess.DEVNULL,
    )
    return _children_cpu() - before


def measure_setup(ctx: Context, load: Callable[[], Any]) -> Tuple[float, float, Any]:
    """Median set-up and import CPU seconds over :data:`SETUP_REPEATS` tries.

    One try is a fresh interpreter importing ``repro.cli`` plus ``load()``
    (generating and parsing the workload's specs).  Returns the median
    set-up seconds, the median import seconds and the last ``load()`` value.
    """
    setups, imports = [], []
    loaded = None
    for _ in range(SETUP_REPEATS):
        imported = time_fresh_import(ctx)
        started = time.process_time()
        loaded = load()
        setups.append(imported + time.process_time() - started)
        imports.append(imported)
    return statistics.median(setups), statistics.median(imports), loaded


def latency_metrics(outcome: Outcome, answers: Sequence[float], repeats: Sequence[float]) -> None:
    """Fill the four per-operation metrics from per-operation CPU seconds."""
    if not answers or not repeats:
        outcome.fail("no completed operation to measure")
        return
    outcome.metrics["answer_cpu_p50_ms"] = (1000.0 * percentile(answers, 50), "ms")
    outcome.metrics["answer_cpu_p90_ms"] = (1000.0 * percentile(answers, 90), "ms")
    outcome.metrics["repeat_cpu_p50_ms"] = (1000.0 * percentile(repeats, 50), "ms")
    outcome.metrics["repeat_cpu_p90_ms"] = (1000.0 * percentile(repeats, 90), "ms")
    outcome.notes.append(f"samples: {len(answers)} answers, {len(repeats)} repeats")


def best_of_passes(runs: Sequence[Any]) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Each distinct operation's least cold and least repeat gauged CPU seconds.

    ``runs`` hold ``position``, ``cpu`` and ``repeat_cpu``, one per cold
    operation of every pass.  The least of tries made seconds apart is the
    one the gauged clock corrected best.
    """
    cold: Dict[int, float] = {}
    repeat: Dict[int, float] = {}
    for run in runs:
        cold[run.position] = min(run.cpu, cold.get(run.position, math.inf))
        if run.repeat_cpu:
            repeat[run.position] = min(min(run.repeat_cpu), repeat.get(run.position, math.inf))
    return cold, repeat


def passes_for(seconds: float, pass_seconds: float) -> int:
    """Whole passes a window of ``seconds`` holds at ``pass_seconds`` each (at least 1).

    The count follows ``--seconds`` only, never the host's speed, so every
    run at one ``--seconds`` does the same work.
    """
    return max(1, round(seconds / pass_seconds))


def trace_report(ctx: Context, workload: str, tracer: Tracer, wall: float, outcome: Outcome) -> Dict[str, float]:
    """Write the trace file and self-time table; return the span metrics."""
    stem = f"{workload}-seed{ctx.seed}"
    trace_path = tracer.write_chrome_trace(ctx.out / f"trace-{stem}.json")
    untraced = max(0.0, wall - tracer.root_seconds())
    table = self_time_table(tracer.layer_self_times(), wall, untraced)
    table_path = ctx.out / f"layers-{stem}.txt"
    table_path.write_text(table + "\n", encoding="utf-8")
    outcome.notes.append(f"trace: {trace_path}\nself time by layer ({table_path}):\n{table}")
    metrics = tracer.metrics()
    metrics["harness.untraced_s"] = untraced
    return metrics


def finish_per_layer(outcome: Outcome, values: Dict[str, float]) -> None:
    """Store every per-layer metric, failing the run if one is missing."""
    for name, unit in PER_LAYER_METRICS:
        if name not in values:
            outcome.fail(f"per-layer metric {name} was not measured")
            continue
        outcome.metrics[name] = (float(values[name]), unit)


def _note_wall(outcome: Outcome, runs: Sequence[Any]) -> None:
    """Note the cold operations' CPU and wall time, pass by pass."""
    cpu, wall = sum(run.cpu for run in runs), sum(run.wall for run in runs)
    if wall > 0:
        outcome.notes.append(
            f"cold: {len(runs)} ops in {cpu:.3f} gauged CPU s / {wall:.3f} wall s "
            f"({len(runs) / wall:.4g} per wall s)"
        )


def _closed_loop_values(import_s: float, plain_wall: float, traced_wall: float) -> Dict[str, float]:
    """Per-layer values of a closed-loop workload that spans do not give."""
    return {
        "cli.import_s": import_s,
        "service.queue_wait_ms": 0.0,
        "service.exec_ms": 0.0,
        "service.http_ms": 0.0,
        "harness.generator_late_ms": 0.0,
        "harness.trace_overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0),
    }


# ---------------------------------------------------------------------- #
# solve-suite
# ---------------------------------------------------------------------- #


def _around(rng: random.Random, value: float) -> float:
    """``value`` scaled by a factor drawn within :data:`REQUIREMENT_SPREAD` of 1."""
    return value * rng.uniform(1.0 - REQUIREMENT_SPREAD, 1.0 + REQUIREMENT_SPREAD)


def suite_games(seed: int) -> List[Dict[str, Any]]:
    """The 32 games of one pass: every preset × protocol, requirements drawn.

    Each requirement is the preset's suggestion scaled by a factor drawn
    within :data:`REQUIREMENT_SPREAD` of 1; a wider draw makes per-game
    solve times, and so the percentiles, depend on the seed.  For each
    protocol one preset, a different one per protocol, gets a delay bound
    drawn in 0.05-0.1 % of the suggestion instead, below the least delay
    any protocol reaches in any preset (0.22 %): infeasible games are part
    of the input, as in real sweeps.  Which games are infeasible is fixed:
    an infeasible game takes another time than its feasible twin, and
    while they were drawn one seed read 10-12 % fewer games per CPU second
    than four others, in two sets of runs.
    """
    from repro.protocols.registry import available_protocols
    from repro.scenarios.presets import available_scenarios, scenario_preset

    rng = random.Random(f"solve-suite:{seed}")
    scenarios = available_scenarios()
    protocols = available_protocols()
    infeasible_at = {protocol: (2 * n + 1) % len(scenarios) for n, protocol in enumerate(protocols)}
    games = []
    for index, scenario in enumerate(scenarios):
        preset = scenario_preset(scenario)
        for protocol in protocols:
            budget = _around(rng, preset.energy_budget)
            delay = _around(rng, preset.max_delay)
            if infeasible_at[protocol] == index:
                delay = preset.max_delay * rng.uniform(0.0005, 0.001)
            games.append(
                {
                    "scenario": scenario,
                    "protocol": protocol,
                    "energy_budget": round(budget, 6),
                    "max_delay": round(delay, 6),
                }
            )
    return games


def game_spec(game: Dict[str, Any]) -> Dict[str, Any]:
    """The one-game ``suite`` spec a user would write for ``game``."""
    return {
        "kind": "suite",
        "name": f"{game['scenario']}-{game['protocol']}",
        "scenarios": [game["scenario"]],
        "protocols": [game["protocol"]],
        "requirements": {
            "energy_budget": game["energy_budget"],
            "max_delay": game["max_delay"],
        },
        "solver": {"grid_points": PAPER_GRID_POINTS},
    }


def _load_suite(seed: int) -> Tuple[List[Dict[str, Any]], List[Any]]:
    from repro.api import ExperimentSpec

    games = suite_games(seed)
    return games, [ExperimentSpec.from_dict(game_spec(game)) for game in games]


@dataclass
class GameRun:
    position: int
    cpu: float
    wall: float
    repeat_cpu: List[float]
    text: str
    cell: Any


def _play_games(
    specs: Sequence[Any],
    passes: int,
    outcome: Outcome,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[GameRun], float]:
    """Play ``passes`` whole passes over the games.

    Each game is cold-solved, then re-run warm, all timed in gauged CPU
    seconds (see ``speed.py``).  Every pass starts with a fresh
    solve cache and no store, so its solves are cold; the process-wide
    default cache is never used.  Only whole passes are played, so every
    game weighs the same in the percentiles.
    """
    import repro.api as api
    from repro.runtime import build_runner
    from repro.runtime.cache import SolveCache

    runs: List[GameRun] = []
    started = time.perf_counter()
    index = 0
    with speed.GaugedClock() as clock:
        while True:
            position = index % len(specs)
            if position == 0:
                if index // len(specs) == passes:
                    break
                runner = build_runner(workers=1, cache=SolveCache())
            if tracer is not None:
                tracer.set_op(f"game-{index}")
            outcome.attempted += 1
            try:
                begin, begin_cpu = time.perf_counter(), clock.now()
                result = api.run(specs[position], runner=runner)
                text = result.json_text()
                cold, cold_wall = clock.now() - begin_cpu, time.perf_counter() - begin
                cell = result.raw.cells[0]
                # Infeasible verdicts are not cached, so only feasible games have
                # a warm answer to repeat.
                repeats = []
                for repeat in range(GAME_REPEATS if cell.feasible else 0):
                    outcome.attempted += 1
                    if tracer is not None:
                        tracer.set_op(f"game-{index}-repeat-{repeat}")
                    begin_cpu = clock.now()
                    again = api.run(specs[position], runner=runner).json_text()
                    repeats.append(clock.now() - begin_cpu)
                    if again != text:
                        outcome.fail(f"game {position}: warm re-run bytes differ from the cold answer")
            except Exception as error:  # noqa: BLE001 - a failed operation is data
                outcome.fail(f"game {position}: {type(error).__name__}: {error}")
                index += 1
                continue
            runs.append(GameRun(position, cold, cold_wall, repeats, text, cell))
            index += 1
    return runs, time.perf_counter() - started


def _answer(game: Dict[str, Any], solution: Optional[Any]) -> Dict[str, Any]:
    """A game's verdict and agreed point, as ``reference.json`` stores it."""
    return {
        **game,
        "feasible": solution is not None,
        "E_star": solution.energy_star if solution is not None else None,
        "L_star": solution.delay_star if solution is not None else None,
    }


def _check_games(ctx: Context, games: Sequence[Dict[str, Any]], runs: Sequence[GameRun], outcome: Outcome) -> None:
    from repro.protocols.registry import create_protocol
    from repro.scenarios.presets import scenario_preset

    first: Dict[int, GameRun] = {}
    for run in runs:
        seen = first.setdefault(run.position, run)
        if seen.text != run.text:
            outcome.fail(f"game {run.position}: two passes gave different bytes")
    answers = []
    for position in sorted(first):
        game = games[position]
        preset = scenario_preset(game["scenario"])
        model = create_protocol(game["protocol"], preset.scenario)
        requirements = (
            preset.requirements()
            .with_energy_budget(game["energy_budget"])
            .with_max_delay(game["max_delay"])
        )
        solution = first[position].cell.solution
        for message in checks.check_game(model, requirements, solution, PAPER_GRID_POINTS):
            outcome.fail(message)
        answers.append(_answer(game, solution))
    if ctx.seed == DEFAULT_SEED:
        reference = checks.load_reference()["solve-suite"]
        expected = [reference[position] for position in sorted(first)]
        for message in checks.check_against_reference(answers, expected):
            outcome.fail(message)
    outcome.notes.append(
        f"games: {len(runs)} cold over {len(first)} distinct, "
        f"{sum(1 for a in answers if not a['feasible'])} distinct infeasible"
    )


def suite_answers(seed: int) -> List[Dict[str, Any]]:
    """Solve one pass cold and return its answers (for the reference file)."""
    games, specs = _load_suite(seed)
    outcome = Outcome()
    runs, _ = _play_games(specs, 1, outcome)
    if outcome.failures:
        raise RuntimeError("; ".join(outcome.failures))
    return [_answer(game, run.cell.solution) for game, run in zip(games, runs)]


def run_solve_suite(ctx: Context) -> Outcome:
    outcome = Outcome()
    if ctx.trace:
        _, import_s, (games, specs) = measure_setup(ctx, lambda: _load_suite(ctx.seed))
        count = passes_for(ctx.seconds / 2.0, SUITE_PASS_SECONDS)
        plain, plain_wall = _play_games(specs, count, outcome)
        with Tracer() as tracer:
            traced, traced_wall = _play_games(specs, count, outcome, tracer)
        values = trace_report(ctx, "solve-suite", tracer, traced_wall, outcome)
        values.update(_closed_loop_values(import_s, plain_wall, traced_wall))
        _check_games(ctx, games, plain + traced, outcome)
        finish_per_layer(outcome, values)
        return outcome

    setup_s, _, (games, specs) = measure_setup(ctx, lambda: _load_suite(ctx.seed))
    count = passes_for(ctx.seconds, SUITE_PASS_SECONDS)
    runs, _ = _play_games(specs, count, outcome)
    _check_games(ctx, games, runs, outcome)
    cold, repeat = best_of_passes(runs)
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.metrics["ops_per_cpu_s"] = (len(cold) / sum(cold.values()) if cold else 0.0, "1/s")
    latency_metrics(outcome, list(cold.values()), list(repeat.values()))
    _note_wall(outcome, runs)
    return outcome


# ---------------------------------------------------------------------- #
# campaign-sim
# ---------------------------------------------------------------------- #


def campaign_specs(seed: int) -> List[Dict[str, Any]]:
    """``examples/specs/campaign.json`` widened to every simulable protocol, one cell each.

    The example's 2 scenarios × every simulable protocol are split into
    one single-cell campaign each (2 replications, horizon 900 s, 24
    points/axis).  A whole 8-cell campaign takes 5-11 s on a 2-vCPU VM, so
    only two to four would fit a 25 s run; one cell per campaign gives
    every run a few dozen cold samples.  The seed is each campaign's
    ``base_seed``: it drives every replication's random streams, so the
    simulated events differ from seed to seed.
    """
    from repro.simulation.mac.factory import available_mac_protocols

    return [
        {
            "kind": "campaign",
            "name": f"campaign-{seed}-{scenario}-{protocol}",
            "scenarios": [scenario],
            "protocols": [protocol],
            "campaign": {"replications": 2, "base_seed": seed, "horizon": 900.0},
            "solver": {"grid_points": 24},
        }
        for scenario in ("paper-default", "high-rate")
        for protocol in available_mac_protocols()
    ]


def _load_campaigns(seed: int) -> List[Any]:
    from repro.api import ExperimentSpec

    return [ExperimentSpec.from_dict(spec) for spec in campaign_specs(seed)]


@dataclass
class CampaignRun:
    position: int
    cpu: float
    wall: float
    replications: int
    repeat_cpu: List[float]
    text: str
    verdicts: Dict[str, str]


def campaign_verdicts(result: Any) -> Dict[str, str]:
    """``{"scenario/protocol": "pass" | "fail" | "infeasible"}`` of a campaign run."""
    verdicts = {}
    for record in result.records:
        cell = f"{record.unit.scenario}/{record.unit.protocol}"
        if record.ok:
            verdicts[cell] = "pass"
        elif not record.value.feasible:
            verdicts[cell] = "infeasible"
        else:
            verdicts[cell] = "fail"
    return verdicts


def _play_campaigns(
    ctx: Context,
    specs: Sequence[Any],
    passes: int,
    outcome: Outcome,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[CampaignRun], float]:
    """Play ``passes`` whole passes over the campaigns.

    Each campaign runs cold on a fresh store, then is replayed warm from
    it, all timed in gauged CPU seconds (see ``speed.py``).
    """
    import repro.api as api
    from repro.runtime import build_runner
    from repro.store import ResultStore

    runs: List[CampaignRun] = []
    started = time.perf_counter()
    index = 0
    with speed.GaugedClock() as clock:
        while index < passes * len(specs):
            position = index % len(specs)
            spec = specs[position]
            directory = ctx.scratch("campaign-")
            outcome.attempted += 1 + CAMPAIGN_REPLAYS
            try:
                store = ResultStore(directory / "store")
                if tracer is not None:
                    tracer.set_op(f"campaign-{index}")
                begin, begin_cpu = time.perf_counter(), clock.now()
                result = api.run(spec, runner=build_runner(workers=1, store=store))
                text = result.json_text()
                cold, cold_wall = clock.now() - begin_cpu, time.perf_counter() - begin
                replays = []
                for replay in range(CAMPAIGN_REPLAYS):
                    if tracer is not None:
                        tracer.set_op(f"campaign-{index}-replay-{replay}")
                    begin_cpu = clock.now()
                    warm = api.run(spec, runner=build_runner(workers=1, store=store))
                    again = warm.json_text()
                    replays.append(clock.now() - begin_cpu)
                    if again != text:
                        outcome.fail(f"campaign {position}: warm replay bytes differ from the cold run")
                    if warm.metadata.get("store_misses") or warm.metadata.get("store_puts"):
                        outcome.fail(f"campaign {position}: warm replay missed the store")
            except Exception as error:  # noqa: BLE001 - a failed operation is data
                outcome.fail(f"campaign {position}: {type(error).__name__}: {error}")
                index += 1
                continue
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            replications = len(result.records) * spec.campaign.replications
            runs.append(
                CampaignRun(position, cold, cold_wall, replications, replays, text, campaign_verdicts(result))
            )
            index += 1
    return runs, time.perf_counter() - started


def _check_campaigns(specs: Sequence[Any], runs: Sequence[CampaignRun], outcome: Outcome) -> None:
    first: Dict[int, CampaignRun] = {}
    for run in runs:
        seen = first.setdefault(run.position, run)
        if seen.text != run.text:
            outcome.fail(f"campaign {run.position}: two passes gave different bytes")
    if len(runs) < 2 * len(specs):
        outcome.fail(f"only {len(runs)} of two passes' {2 * len(specs)} campaigns completed")
    verdicts: Dict[str, str] = {}
    for run in first.values():
        verdicts.update(run.verdicts)
    for message in checks.check_verdicts(verdicts, checks.load_reference()["campaign-sim"]):
        outcome.fail(message)


def run_campaign_sim(ctx: Context) -> Outcome:
    outcome = Outcome()
    if ctx.trace:
        _, import_s, specs = measure_setup(ctx, lambda: _load_campaigns(ctx.seed))
        count = passes_for(ctx.seconds / 2.0, CAMPAIGN_PASS_SECONDS)
        plain, plain_wall = _play_campaigns(ctx, specs, count, outcome)
        with Tracer() as tracer:
            traced, traced_wall = _play_campaigns(
                ctx, specs, count, outcome, tracer
            )
        values = trace_report(ctx, "campaign-sim", tracer, traced_wall, outcome)
        values.update(_closed_loop_values(import_s, plain_wall, traced_wall))
        _check_campaigns(specs, plain + traced, outcome)
        finish_per_layer(outcome, values)
        return outcome

    setup_s, _, specs = measure_setup(ctx, lambda: _load_campaigns(ctx.seed))
    count = max(2, passes_for(ctx.seconds, CAMPAIGN_PASS_SECONDS))
    runs, _ = _play_campaigns(ctx, specs, count, outcome)
    _check_campaigns(specs, runs, outcome)
    cold, repeat = best_of_passes(runs)
    replications = {run.position: run.replications for run in runs}
    outcome.metrics["setup_s"] = (setup_s, "s")
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome.metrics["ops_per_cpu_s"] = (
        sum(replications[position] for position in cold) / sum(cold.values()) if cold else 0.0,
        "1/s",
    )
    latency_metrics(outcome, list(cold.values()), list(repeat.values()))
    _note_wall(outcome, runs)
    return outcome


# ---------------------------------------------------------------------- #
# service-mixed
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServicePlan:
    """The seeded input of one ``service-mixed`` run."""

    pool: Dict[str, Any]
    arrivals: Tuple[Tuple[float, str], ...]

    def hit_spec(self, tag: str, index: int) -> Dict[str, Any]:
        """A new job (new name, so a new spec hash) whose solves are stored."""
        return {**self.pool, "name": f"hit-{tag}-{index}"}


def service_plan(seed: int, seconds: float) -> ServicePlan:
    """Pool spec plus a Poisson arrival schedule of ``seconds`` length.

    The pool is one ``suite`` spec (two games, requirements drawn around
    the paper defaults) that set-up solves into the store.  The schedule
    holds exactly ``SERVICE_RATE * seconds`` arrivals at uniform random
    times, which is a Poisson process conditioned on its count: the
    offered load is the same for every seed.  Each arrival is a ``job``
    (a new spec) with probability :data:`NEW_SPEC_SHARE`, else ``warm``
    (the pool spec again).
    """
    rng = random.Random(f"service-mixed:{seed}")
    pool = {
        "kind": "suite",
        "name": f"pool-{seed}",
        "scenarios": ["paper-default"],
        "protocols": ["scpmac", "xmac"],
        "requirements": {
            "energy_budget": round(_around(rng, 0.06), 6),
            "max_delay": round(_around(rng, 6.0), 6),
        },
        "solver": {"grid_points": 30},
    }
    count = int(SERVICE_RATE * seconds)
    dues = sorted(round(rng.uniform(0.0, seconds), 9) for _ in range(count))
    arrivals = [(due, "job" if rng.random() < NEW_SPEC_SHARE else "warm") for due in dues]
    return ServicePlan(pool=pool, arrivals=tuple(arrivals))


@dataclass
class OpRun:
    """One client call: when it was due, started and answered, and its gauged CPU time.

    ``cpu`` is the client's and the server's together; ``server_cpu`` the
    server's part.
    """

    kind: str
    due: float
    started: float
    ended: float
    cpu: float
    server_cpu: float
    ok: bool
    name: str = ""
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.ended - self.due

    @property
    def late(self) -> float:
        return self.started - self.due


def _prewarm(client: Any, pool: Dict[str, Any]) -> bytes:
    """Solve the pool spec through the service; return its result bytes."""
    return client.run(pool, timeout=120.0)


def _call(client: Any, spec: Dict[str, Any]) -> bytes:
    """Submit ``spec`` and fetch its result bytes, polling as ``ServiceClient.run`` does.

    Unlike ``ServiceClient.run``, the first GET of a job that is not yet
    done waits one :data:`POLL_INTERVAL`: otherwise whether it lands before
    or after the ~4 ms job ends, and so how many requests a call makes,
    would depend on how the host schedules the two processes.
    """
    job, _ = client.submit(spec)
    if job["state"] != "done":
        time.sleep(POLL_INTERVAL)
    return client.wait(str(job["job_id"]), timeout=JOB_TIMEOUT, poll_interval=POLL_INTERVAL)


def _drive(
    client: Any,
    plan: ServicePlan,
    tag: str,
    pool_bytes: bytes,
    server_cpu: Callable[[], float] = lambda: 0.0,
    server_gauge: Callable[[], float] = speed.gauge,
    tracer: Optional[Tracer] = None,
) -> List[OpRun]:
    """Make every arrival's call when due, one call at a time.

    Each call is one :func:`_call`, as ``docs/service.md`` shows a client
    using the service: a POST of the spec, then result GETs until the bytes
    come.  For the pool spec that is an idempotent re-POST answered 200 and
    one GET of the stored result.

    A call's CPU time is what this process and ``server_cpu()`` (the
    server's CPU clock, when it runs apart) spent between its start and its
    answer; calls never overlap, so nothing else is counted in it.  Each
    part is gauged (see ``speed.py``) by a gauge timed just before the call
    on its own CPU (with the few before it, see ``speed.Speed``): here, and
    through ``server_gauge`` on the server's.
    Wall latency is measured from the moment a call was due, so a stall
    that delays later calls is charged to them too.
    """
    runs: List[OpRun] = []
    client_speed, server_speed = speed.Speed(), speed.Speed(server_gauge)
    origin = time.perf_counter() + 0.05
    for index, (offset, kind) in enumerate(plan.arrivals):
        due = origin + offset
        spec = plan.hit_spec(tag, index) if kind == "job" else plan.pool
        client_scale, server_scale = client_speed(), server_speed()
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        if tracer is not None:
            tracer.set_op(f"{tag}-{kind}-{index}")
        started = time.perf_counter()
        client_before, server_before = time.process_time(), server_cpu()
        try:
            body = _call(client, spec)
        except Exception as error:  # noqa: BLE001 - a failed call is data
            problem = f"{type(error).__name__}: {error}"
            ended = time.perf_counter()
            runs.append(OpRun(kind, due, started, ended, 0.0, 0.0, False, spec["name"], error=problem))
            continue
        ended = time.perf_counter()
        served = (server_cpu() - server_before) * server_scale
        cpu = (time.process_time() - client_before) * client_scale + served
        problem = ""
        if kind == "warm" and body != pool_bytes:
            problem = "the pool spec's call served other bytes"
        runs.append(OpRun(kind, due, started, ended, cpu, served, not problem, spec["name"], body, problem))
    return runs


def _check_service(
    client: Any, plan: ServicePlan, runs: Sequence[OpRun], pool_bytes: bytes, outcome: Outcome
) -> Dict[str, Dict[str, Any]]:
    """Check served bytes, single execution and store-only answers.

    ``runs`` must hold every call made since the pre-warm.  Returns every
    job summary of the queue, keyed by spec name.
    """
    import repro.api as api
    from repro.api import ExperimentSpec
    from repro.runtime import build_runner
    from repro.runtime.cache import SolveCache

    outcome.attempted += len(runs)
    for run in runs:
        if not run.ok:
            outcome.fail(f"{run.kind} call failed: {run.error}")
    runner = build_runner(workers=1, cache=SolveCache())
    expected_pool = api.run(ExperimentSpec.from_dict(plan.pool), runner=runner).json_text()
    if pool_bytes != expected_pool.encode():
        outcome.fail("served pool bytes differ from an in-process repro.api.run")
    jobs = {str(job["name"]): job for job in client.queue()["jobs"]}
    for name, job in jobs.items():
        if job["attempts"] != 1 or job["state"] != "done":
            outcome.fail(f"job {name}: state {job['state']}, {job['attempts']} execution(s)")
    unexpected = set(jobs) - {run.name for run in runs if run.kind == "job"} - {plan.pool["name"]}
    if unexpected:
        outcome.fail(f"{len(unexpected)} queued job(s) that no call submitted")
    for run in runs:
        if run.kind != "job" or not run.ok:
            continue
        if run.name not in jobs:
            outcome.fail(f"store-hit job {run.name} is missing from the queue")
            continue
        progress = jobs[run.name]["progress"]
        if progress.get("store_misses") != 0 or progress.get("store_puts") != 0:
            outcome.fail(f"store-hit job {run.name} did fresh work: {progress}")
        spec = ExperimentSpec.from_dict({**plan.pool, "name": run.name})
        if run.body != api.run(spec, runner=runner).json_text().encode():
            outcome.fail(f"served bytes of {run.name} differ from an in-process repro.api.run")
    return jobs


def _job_times(runs: Sequence[OpRun], jobs: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Median server-side queue wait and execution of the runs' new jobs."""
    executed = [jobs[run.name] for run in runs if run.kind == "job" and run.name in jobs]
    waits = [1000.0 * (job["started_at"] - job["submitted_at"]) for job in executed]
    execs = [1000.0 * (job["finished_at"] - job["started_at"]) for job in executed]
    return {
        "service.queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "service.exec_ms": statistics.median(execs) if execs else 0.0,
    }


def _lateness_p99_ms(runs: Sequence[OpRun]) -> float:
    """How late the generator started operations, 99th percentile, in ms."""
    return percentile([1000.0 * run.late for run in runs], 99) if runs else 0.0


def _start_service(
    ctx: Context, stack: contextlib.ExitStack, cpus: Optional[set]
) -> Tuple[float, Any, ServicePlan, Any, bytes]:
    """One set-up: spawn ``repro serve``, load the plan, pre-warm the store.

    Returns its CPU seconds (this process's plus the server's whole life so
    far), the server, the plan, a client and the pool spec's result bytes.
    """
    from repro.service import ServiceClient

    begin = time.process_time()
    server = stack.enter_context(
        serve.serving(ctx.root, ctx.scratch("service-") / "store", ctx.env, cpus=cpus)
    )
    plan = service_plan(ctx.seed, ctx.seconds)
    client = ServiceClient(server.url)
    pool_bytes = _prewarm(client, plan.pool)
    cpu = time.process_time() - begin + server.cpu_seconds()
    return cpu, server, plan, client, pool_bytes


def run_service_mixed(ctx: Context) -> Outcome:
    outcome = Outcome()
    if ctx.trace:
        return _traced_service(ctx, outcome)
    client_cpus, server_cpus = serve.split_cpus()
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        with contextlib.ExitStack() as stack:
            setups.append(_start_service(ctx, stack, server_cpus)[0])
    with contextlib.ExitStack() as stack:
        cpu, server, plan, client, pool_bytes = _start_service(ctx, stack, server_cpus)
        setups.append(cpu)
        server_gauge = stack.enter_context(speed.gauge_process(server_cpus))
        cpu_before = server.cpu_seconds()
        runs = _drive(client, plan, "t", pool_bytes, server.cpu_seconds, server_gauge)
        cpu_used = server.cpu_seconds() - cpu_before
        outcome.metrics["peak_rss_mb"] = (server.peak_rss_mb(), "MB")
        jobs = _check_service(client, plan, runs, pool_bytes, outcome)
    outcome.metrics["setup_s"] = (statistics.median(setups), "s")
    done = [run for run in runs if run.ok]
    served = sum(run.server_cpu for run in done)
    # The offered rate is fixed, so calls per wall second would only echo
    # it; calls per server CPU second is what the server's cost sets.
    if done and served > 0:
        outcome.metrics["ops_per_cpu_s"] = (len(done) / served, "1/s")
    else:
        outcome.fail("no completed call or no server CPU time to measure")
    latency_metrics(
        outcome,
        [run.cpu for run in done if run.kind == "job"],
        [run.cpu for run in done if run.kind == "warm"],
    )
    times = _job_times(runs, jobs)
    walls = {
        kind: [1000.0 * run.latency for run in done if run.kind == kind] for kind in ("job", "warm")
    }
    outcome.notes.append(
        f"server CPU {cpu_used:.3f} s over the window, {served:.3f} gauged s in {len(done)} calls; "
        f"generator lateness p99 {_lateness_p99_ms(runs):.3f} ms; server-side job medians: "
        f"queue wait {times['service.queue_wait_ms']:.3f} ms, "
        f"execution {times['service.exec_ms']:.3f} ms; wall latency p50/p90: "
        + ", ".join(
            f"{kind} {percentile(ms, 50):.3f}/{percentile(ms, 90):.3f} ms"
            for kind, ms in walls.items()
            if ms
        )
    )
    return outcome


def _traced_service(ctx: Context, outcome: Outcome) -> Outcome:
    """Host the service in-process so the wrappers see store and api calls.

    The first half of the window runs untraced, the second half traced,
    both against the same in-process server, so the difference in mean
    latency is the tracing overhead.
    """
    from repro.service import ExperimentService, ServiceClient

    import_s = statistics.median(time_fresh_import(ctx) for _ in range(SETUP_REPEATS))
    plan = service_plan(ctx.seed, ctx.seconds / 2.0)
    service = ExperimentService(
        store_dir=ctx.scratch("service-") / "store", workers=serve.SERVER_WORKERS
    )
    service.start()
    try:
        client = ServiceClient(service.url)
        pool_bytes = _prewarm(client, plan.pool)
        # Let the server threads finish their lazy first-call work first.
        warmup = _drive(client, service_plan(ctx.seed, 1.0), "w", pool_bytes)
        plain = _drive(client, plan, "a", pool_bytes)
        with Tracer() as tracer:
            traced = _drive(client, plan, "b", pool_bytes, tracer=tracer)
        wall = max(run.ended for run in traced) - min(run.due for run in traced)
        values = trace_report(ctx, "service-mixed", tracer, wall, outcome)
        jobs = _check_service(client, plan, warmup + plain + traced, pool_bytes, outcome)
    finally:
        service.stop()
    fresh = sum(1 for run in traced if run.kind == "job")
    if values["service.executions"] != fresh:
        outcome.fail(f"{values['service.executions']} executions for {fresh} new jobs")
    values.update(_job_times(traced, jobs))
    values["service.http_ms"] = tracer.client_request_ms() - tracer.http_server_ms()
    values["cli.import_s"] = import_s
    values["harness.generator_late_ms"] = _lateness_p99_ms(plain)
    mean_plain = statistics.fmean(run.latency for run in plain)
    mean_traced = statistics.fmean(run.latency for run in traced)
    values["harness.trace_overhead_pct"] = 100.0 * (mean_traced / mean_plain - 1.0)
    finish_per_layer(outcome, values)
    return outcome


#: Every workload by name; ``BENCHMARK.json`` says why each exists.
WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "solve-suite": run_solve_suite,
    "campaign-sim": run_campaign_sim,
    "service-mixed": run_service_mixed,
}
