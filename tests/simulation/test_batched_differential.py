"""Differential harness: production is bit-identical to the frozen oracle.

Production :func:`~repro.simulation.simulate_protocol` runs the flat-array
engine (:mod:`repro.simulation.batched`).  It is only allowed to exist
because it changes *nothing* relative to the per-event oracle under
``tests/simulation/oracle/``: every metric of every replication — per-node
power, per-ring delay lists, packet and channel counters — must match bit
for bit at the same seed.  This module enforces that three ways:

* a seeded fuzzer sweeps the **full matrix** — every preset × every
  protocol (xmac, lmac, dmac, scpmac) × fuzzed (seed, horizon, sampling
  period) — as ~200 cases; the first :data:`FAST_CASES` run in tier-1
  (covering all four protocols), the full sweep is marked ``slow``;
* a campaign identity test proves whole campaign artifacts (JSON bytes
  included) are the same whether the oracle or production simulated them;
* edge cases both simulators must agree on: horizons shorter than one duty
  cycle and independently seeded replications.

Floats are compared with ``==`` (bit-equality for the NaN-free quantities
the simulator produces); mismatches are reported in ``float.hex`` so a
one-ulp drift is visible in the failure message, together with the exact
``(preset, protocol, seed, horizon, period)`` tuple and a one-line repro
command.  Failing tuples are also appended to
:data:`FAILURE_LOG` (``differential-failures.txt``) so CI can upload them
as an artifact.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.network.topology import RingTopology
from repro.protocols.registry import create_protocol
from repro.scenario import Scenario
from repro.scenarios.presets import scenario_preset, scenario_presets
from repro.simulation import SimulationConfig, simulate_protocol
from repro.validation import campaign
from repro.validation.campaign import CampaignSpec, run_campaign

from oracle import simulate_oracle

#: Mid-box parameter vectors, one per protocol (the bench's choices).
PROTOCOL_PARAMS = {
    "xmac": {"wakeup_interval": 0.3},
    "dmac": {"frame_length": 1.0},
    "lmac": {"slot_length": 0.02, "slot_count": 9.0},
    "scpmac": {"poll_interval": 0.3},
}
PROTOCOLS = tuple(sorted(PROTOCOL_PARAMS))
SIMULATORS = {"production": simulate_protocol, "oracle": simulate_oracle}

#: Fields of SimulationResult compared bit-for-bit.
_COMPARED_FIELDS = (
    "protocol",
    "parameters",
    "horizon",
    "node_power",
    "ring_power",
    "delays_by_ring",
    "generated_packets",
    "delivered_packets",
    "dropped_packets",
    "channel_transmissions",
    "channel_deferrals",
    "processed_events",
)


def _hex(value):
    """Floats as hex (exact), everything else as repr."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hex(item) for item in value]
    return repr(value)


def assert_bit_identical(oracle, production, context=""):
    """Assert two SimulationResults match field by field, bit for bit."""
    for field in _COMPARED_FIELDS:
        left = getattr(oracle, field)
        right = getattr(production, field)
        assert left == right, (
            f"{context}: {field} diverged\n"
            f"  oracle:     {_hex(left)}\n"
            f"  production: {_hex(right)}"
        )


def _traffic_scenario(preset_name: str, period: float) -> Scenario:
    """A preset's environment with a sampling period that produces traffic.

    Most presets sample once an hour, which generates nothing at the short
    horizons the fuzzer uses — the replacement keeps the preset's topology,
    radio and frame sizes and only raises the traffic rate.
    """
    preset = scenario_preset(preset_name)
    return dataclasses.replace(preset.scenario, sampling_rate=1.0 / period)


#: Rounds of the full matrix: every preset × every protocol per round, with
#: fuzzed seeds/horizons/periods.  8 presets × 4 protocols × 6 rounds = 192
#: cases.
MATRIX_ROUNDS = 6

#: Where failing repro tuples are appended (one JSON object per line); CI
#: uploads this file as an artifact when the sweep fails.
FAILURE_LOG = Path("differential-failures.txt")


def _generate_cases():
    """The deterministic full-matrix sweep; the module-level seed pins it.

    Cases are ordered preset-major / protocol-minor within each round, so
    the tier-1 prefix (:data:`FAST_CASES`) already covers all four
    protocols across several presets.
    """
    preset_names = sorted(preset.name for preset in scenario_presets())
    rng = np.random.default_rng(202608)
    cases = []
    index = 0
    for _ in range(MATRIX_ROUNDS):
        for preset in preset_names:
            for protocol in PROTOCOLS:
                seed = int(rng.integers(0, 2**31))
                horizon = float(rng.choice((60.0, 90.0, 150.0, 240.0)))
                period = float(rng.choice((30.0, 60.0, 120.0)))
                cases.append(
                    pytest.param(
                        preset,
                        protocol,
                        seed,
                        horizon,
                        period,
                        id=f"{index:03d}-{preset}-{protocol}-s{seed}",
                    )
                )
                index += 1
    return cases


CASES = _generate_cases()
#: Tier-1 subset: enough to catch a broken invariant on every push without
#: paying for the full sweep; covers all four protocols (matrix order).
FAST_CASES = CASES[:20]


def _run_both(preset, protocol, seed, horizon, period):
    scenario = _traffic_scenario(preset, period)
    model = create_protocol(protocol, scenario)
    params = PROTOCOL_PARAMS[protocol]
    config = SimulationConfig(horizon=horizon, seed=seed)
    return simulate_oracle(model, params, config), simulate_protocol(model, params, config)


def _check_case(preset, protocol, seed, horizon, period):
    """Run one matrix case; on failure, log the repro tuple and command."""
    case = {
        "preset": preset,
        "protocol": protocol,
        "seed": seed,
        "horizon": horizon,
        "period": period,
    }
    repro = (
        "PYTHONPATH=src python -m pytest "
        "tests/simulation/test_batched_differential.py "
        f"-m '' -k '{preset}-{protocol}-s{seed}'"
    )
    context = f"case {case!r}\n  repro: {repro}"
    try:
        oracle, production = _run_both(preset, protocol, seed, horizon, period)
        assert_bit_identical(oracle, production, context=context)
    except AssertionError:
        with FAILURE_LOG.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(case, sort_keys=True) + "\n")
        raise


class TestFuzzedIdentityFast:
    """Tier-1 subset of the differential sweep."""

    @pytest.mark.parametrize("preset,protocol,seed,horizon,period", FAST_CASES)
    def test_bit_identical(self, preset, protocol, seed, horizon, period):
        _check_case(preset, protocol, seed, horizon, period)

    def test_fast_subset_covers_every_protocol(self):
        covered = {case.values[1] for case in FAST_CASES}
        assert covered == set(PROTOCOLS)


@pytest.mark.slow
class TestFuzzedIdentityFull:
    """The full matrix sweep (deselected by default; ``-m slow`` runs it)."""

    @pytest.mark.parametrize("preset,protocol,seed,horizon,period", CASES[len(FAST_CASES):])
    def test_bit_identical(self, preset, protocol, seed, horizon, period):
        _check_case(preset, protocol, seed, horizon, period)


class TestCampaignIdentity:
    """A campaign's artifact does not depend on which simulator ran it."""

    SPEC = CampaignSpec(
        scenarios=("high-rate",),
        protocols=PROTOCOLS,
        replications=2,
        horizon=200.0,
        grid_points_per_dimension=12,
    )

    def test_cells_and_artifact_bytes_identical(self, monkeypatch):
        production = run_campaign(self.SPEC)
        monkeypatch.setattr(campaign, "simulate_protocol", simulate_oracle)
        oracle = run_campaign(self.SPEC)
        production_bytes = json.dumps(production.as_dict(), sort_keys=True)
        oracle_bytes = json.dumps(oracle.as_dict(), sort_keys=True)
        assert production_bytes == oracle_bytes


class TestEdgeCases:
    """Degenerate inputs both simulators must handle the same way."""

    @staticmethod
    def _model():
        scenario = Scenario(RingTopology(depth=3, density=4), sampling_rate=1.0 / 60.0)
        return create_protocol("xmac", scenario)

    @pytest.mark.parametrize("simulator", sorted(SIMULATORS))
    def test_horizon_shorter_than_one_duty_cycle(self, simulator):
        # 50 ms horizon vs a 300 ms wake-up interval: zero periodic polls
        # fit, no packet is generated, every node idles at sleep power.
        model = self._model()
        config = SimulationConfig(horizon=0.05, seed=3)
        result = SIMULATORS[simulator](model, PROTOCOL_PARAMS["xmac"], config)
        assert result.generated_packets == 0
        sleep_power = model.scenario.radio.power_sleep
        assert set(result.node_power.values()) == {sleep_power}

    def test_short_horizon_identical_to_oracle(self):
        model = self._model()
        config = SimulationConfig(horizon=0.05, seed=3)
        assert_bit_identical(
            simulate_oracle(model, PROTOCOL_PARAMS["xmac"], config),
            simulate_protocol(model, PROTOCOL_PARAMS["xmac"], config),
            context="short-horizon",
        )

    def test_replications_vary_only_by_seed(self):
        # Each seed's replication is honoured independently.
        model = self._model()
        for seed in (1, 2, 3):
            config = SimulationConfig(horizon=200.0, seed=seed)
            assert_bit_identical(
                simulate_oracle(model, PROTOCOL_PARAMS["xmac"], config),
                simulate_protocol(model, PROTOCOL_PARAMS["xmac"], config),
                context=f"seed={seed}",
            )
