"""Tests for the simulation driver."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.network.deployment import chain_deployment
from repro.network.topology import RingTopology
from repro.protocols import DMACModel, XMACModel
from repro.scenario import Scenario
from repro.simulation import SimulationConfig, simulate_protocol
from repro.validation.campaign import CampaignSpec


@pytest.fixture
def scenario() -> Scenario:
    return Scenario(topology=RingTopology(depth=3, density=4), sampling_rate=1.0 / 120.0)


class TestSimulationRunner:
    def test_all_generated_packets_are_delivered_under_light_load(self, scenario):
        model = XMACModel(scenario)
        result = simulate_protocol(
            model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=600.0, seed=2)
        )
        assert result.generated_packets > 50
        assert result.delivery_ratio == pytest.approx(1.0)
        assert result.dropped_packets == 0

    def test_results_are_reproducible_for_a_fixed_seed(self, scenario):
        model = XMACModel(scenario)
        config = SimulationConfig(horizon=300.0, seed=7)
        first = simulate_protocol(model, {"wakeup_interval": 0.3}, config)
        second = simulate_protocol(model, {"wakeup_interval": 0.3}, config)
        assert first.system_energy == pytest.approx(second.system_energy)
        assert first.max_ring_delay() == pytest.approx(second.max_ring_delay())
        assert first.generated_packets == second.generated_packets

    def test_different_seeds_give_different_traces(self, scenario):
        model = XMACModel(scenario)
        first = simulate_protocol(model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=300.0, seed=1))
        second = simulate_protocol(model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=300.0, seed=2))
        assert first.max_ring_delay() != pytest.approx(second.max_ring_delay(), rel=1e-6)

    def test_ring_powers_decrease_outward(self, scenario):
        model = XMACModel(scenario)
        result = simulate_protocol(
            model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=600.0, seed=2)
        )
        assert result.ring_power[1] > result.ring_power[3]

    def test_delays_grow_with_source_ring(self, scenario):
        model = DMACModel(scenario)
        result = simulate_protocol(
            model, {"frame_length": 1.0}, SimulationConfig(horizon=900.0, seed=4)
        )
        ring_means = {ring: sum(v) / len(v) for ring, v in result.delays_by_ring.items() if v}
        assert ring_means[3] > ring_means[1]

    def test_explicit_deployment_is_used(self, scenario):
        model = XMACModel(scenario)
        deployment = chain_deployment(depth=3)
        result = simulate_protocol(
            model,
            {"wakeup_interval": 0.3},
            SimulationConfig(horizon=600.0, seed=2, deployment=deployment),
        )
        assert set(result.node_power) == {1, 2, 3}

    def test_shorter_wakeup_interval_lowers_delay_and_raises_idle_energy(self, scenario):
        model = XMACModel(scenario)
        fast = simulate_protocol(model, {"wakeup_interval": 0.1}, SimulationConfig(horizon=600.0, seed=2))
        slow = simulate_protocol(model, {"wakeup_interval": 1.0}, SimulationConfig(horizon=600.0, seed=2))
        assert fast.max_ring_delay() < slow.max_ring_delay()
        # Idle polling dominates at this traffic level, so the outer ring
        # (almost no forwarding) is strictly cheaper with a longer interval.
        assert fast.ring_power[3] > slow.ring_power[3]

    def test_summary_dictionary(self, scenario):
        model = XMACModel(scenario)
        result = simulate_protocol(model, {"wakeup_interval": 0.3}, SimulationConfig(horizon=300.0, seed=2))
        summary = result.as_dict()
        assert summary["protocol"] == "X-MAC"
        assert summary["delivered"] <= summary["generated"]

    def test_invalid_config_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(horizon=-1.0)
        with pytest.raises(SimulationError):
            SimulationConfig(generation_cutoff=0.0)
        with pytest.raises(SimulationError):
            SimulationConfig(queue_capacity=0)

    @pytest.mark.parametrize("horizon", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_horizon_rejected(self, horizon):
        # An infinite horizon would never end the traffic-scheduling loop.
        with pytest.raises(SimulationError, match="finite"):
            SimulationConfig(horizon=horizon)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_event_budget_rejected(self, budget):
        with pytest.raises(SimulationError, match="max_events"):
            SimulationConfig(max_events=budget)

    def test_event_budget_exhaustion_raises(self, scenario):
        model = XMACModel(scenario)
        with pytest.raises(SimulationError, match="event budget exceeded"):
            simulate_protocol(
                model,
                {"wakeup_interval": 0.3},
                SimulationConfig(horizon=600.0, seed=2, max_events=10),
            )

    def test_empty_result_guards(self, scenario):
        from repro.simulation.runner import SimulationResult

        empty = SimulationResult(protocol="X-MAC", parameters={}, horizon=10.0)
        with pytest.raises(SimulationError):
            _ = empty.system_energy
        with pytest.raises(SimulationError):
            empty.max_ring_delay()


class TestAnalyticalOnlyProtocol:
    """A protocol with no simulator fails with the canonical message."""

    def test_simulate_protocol_raises_no_simulated_behaviour(
        self, scenario, analytical_only_model_class
    ):
        model = analytical_only_model_class(scenario)
        with pytest.raises(SimulationError, match="no simulated behaviour.*scpmac"):
            simulate_protocol(model, {"interval": 0.5}, SimulationConfig(horizon=10.0))

    def test_campaign_spec_rejects_it_up_front(self, analytical_only_protocol):
        with pytest.raises(ConfigurationError, match="no simulated behaviour"):
            CampaignSpec(scenarios=("paper-default",), protocols=(analytical_only_protocol,))
