"""Simulation driver.

``simulate_protocol`` runs one protocol configuration on a concrete
deployment and returns a :class:`SimulationResult` with the same quantities
the analytical model predicts (per-node average power, end-to-end delays per
source ring), so the two can be compared directly by
:mod:`repro.analysis.validation`.  Every run executes on the flat-array
engine of :mod:`repro.simulation.batched`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.exceptions import SimulationError
from repro.network.topology import UnitDiskDeployment
from repro.protocols.base import DutyCycledMACModel, ParameterVector
from repro.simulation.mac.factory import batch_kernel_for


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulation run.

    Attributes:
        horizon: Simulated duration in seconds.
        seed: Random seed (phases, traffic offsets, backoffs).
        deployment: Optional concrete deployment; when omitted, one is
            generated to match the model's scenario (same depth and density).
        generation_cutoff: Fraction of the horizon after which no new packets
            are generated, so late packets do not bias the delay statistics
            by never getting a chance to be delivered.
        queue_capacity: Per-node forwarding-queue capacity.
        max_events: Safety budget for the event loop.
    """

    horizon: float = 2000.0
    seed: int = 1
    deployment: Optional[UnitDiskDeployment] = None
    generation_cutoff: float = 0.9
    queue_capacity: int = 64
    max_events: int = 2_000_000

    def __post_init__(self) -> None:
        # An infinite horizon would never end the traffic-scheduling loop.
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise SimulationError(
                f"horizon must be positive and finite, got {self.horizon!r}"
            )
        if not (0.0 < self.generation_cutoff <= 1.0):
            raise SimulationError("generation_cutoff must lie in (0, 1]")
        if self.queue_capacity < 1:
            raise SimulationError("queue_capacity must be >= 1")
        if self.max_events <= 0:
            raise SimulationError("max_events must be positive")


@dataclass
class SimulationResult:
    """Measured quantities of one simulation run.

    Attributes:
        protocol: Protocol name.
        parameters: Simulated parameter vector.
        horizon: Simulated duration in seconds.
        node_power: Average radio power (J/s) per node id.
        ring_power: Mean of the node powers per ring.
        delays_by_ring: Delivered end-to-end delays per source ring.
        generated_packets: Number of packets generated.
        delivered_packets: Number of packets delivered to the sink.
        dropped_packets: Packets dropped at full queues.
        channel_transmissions: Number of medium reservations.
        channel_deferrals: Number of carrier-sense deferrals.
        processed_events: Number of discrete events the engine processed
            (used by ``benchmarks/bench_simulator.py`` for events/second).
    """

    protocol: str
    parameters: Mapping[str, float]
    horizon: float
    node_power: Dict[int, float] = field(default_factory=dict)
    ring_power: Dict[int, float] = field(default_factory=dict)
    delays_by_ring: Dict[int, List[float]] = field(default_factory=dict)
    generated_packets: int = 0
    delivered_packets: int = 0
    dropped_packets: int = 0
    channel_transmissions: int = 0
    channel_deferrals: int = 0
    processed_events: int = 0

    # ------------------------------------------------------------------ #
    # Aggregates mirrored on the analytical model
    # ------------------------------------------------------------------ #

    @property
    def system_energy(self) -> float:
        """Maximum per-node average power (J/s) — the simulated ``E``."""
        if not self.node_power:
            raise SimulationError("the simulation produced no energy accounts")
        return max(self.node_power.values())

    @property
    def bottleneck_ring_energy(self) -> float:
        """Mean power of ring-1 nodes (J/s)."""
        if 1 not in self.ring_power:
            raise SimulationError("no ring-1 node in the simulated deployment")
        return self.ring_power[1]

    @property
    def delivery_ratio(self) -> float:
        """Fraction of generated packets delivered to the sink."""
        if self.generated_packets == 0:
            return 0.0
        return self.delivered_packets / self.generated_packets

    def mean_delay(self, ring: Optional[int] = None) -> float:
        """Mean end-to-end delay (seconds) for one source ring (or overall)."""
        delays: List[float] = []
        for source_ring, values in self.delays_by_ring.items():
            if ring is None or source_ring == ring:
                delays.extend(values)
        if not delays:
            raise SimulationError(
                f"no delivered packet from ring {ring!r} to compute a delay from"
            )
        return float(np.mean(delays))

    def max_ring_delay(self) -> float:
        """Mean delay of the farthest ring that delivered packets — the simulated ``L``."""
        rings_with_data = [ring for ring, values in self.delays_by_ring.items() if values]
        if not rings_with_data:
            raise SimulationError("no packet was delivered during the simulation")
        return self.mean_delay(max(rings_with_data))

    def as_dict(self) -> Dict[str, object]:
        """Flat summary used by reports."""
        return {
            "protocol": self.protocol,
            "parameters": dict(self.parameters),
            "horizon_s": self.horizon,
            "system_energy_j_per_s": self.system_energy,
            "max_ring_delay_s": self.max_ring_delay(),
            "delivery_ratio": self.delivery_ratio,
            "generated": self.generated_packets,
            "delivered": self.delivered_packets,
            "dropped": self.dropped_packets,
            "transmissions": self.channel_transmissions,
            "deferrals": self.channel_deferrals,
            "events": self.processed_events,
        }


def simulate_protocol(
    model: DutyCycledMACModel,
    params: ParameterVector,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Simulate one protocol configuration and return the measured metrics.

    Args:
        model: Analytical protocol model (defines scenario and timing).
        params: Parameter vector to simulate (mapping or array).
        config: Simulation configuration; defaults to a 2000-second run on a
            freshly generated deployment matching the model's scenario.

    Returns:
        A :class:`SimulationResult` with the measured per-node powers,
        per-ring delays and delivery/channel counters — the same quantities
        the analytical model predicts, for direct comparison by
        :mod:`repro.analysis.validation`.

    Raises:
        SimulationError: if the model's protocol has no simulator (an
            analytical-only user-registered protocol), the event budget
            runs out, or a node has no route to the sink.
    """
    kernel_class = batch_kernel_for(model)
    # Imported here: the engine builds on this module's config and result.
    from repro.simulation.batched.engine import _run_replication

    return _run_replication(model, params, config or SimulationConfig(), kernel_class)
