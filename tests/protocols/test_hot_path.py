"""The scalar model hot path: scenario-only work done once, results unchanged.

The per-ring traffic table is a ``cached_property`` memo on each model and
``coerce`` passes an already normalized dictionary through.  These tests pin
that neither changes a model's identity (store keys), its answers, or the
validation the slower paths did.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro.api import ExperimentSpec
from repro.exceptions import ConfigurationError
from repro.protocols import LMACModel
from repro.protocols.registry import available_protocols, create_protocol
from repro.runtime import build_runner
from repro.runtime.cache import SolveCache, model_fingerprint, solve_key
from repro.scenarios.presets import available_scenarios, scenario_preset
from repro.store.keys import key_digest

MATRIX = [
    (scenario, protocol)
    for scenario in available_scenarios()
    for protocol in available_protocols()
]


def _midpoint(model):
    space = model.parameter_space
    return space.to_dict(space.midpoint())


@pytest.mark.parametrize("scenario,protocol", MATRIX)
def test_model_identity_is_unchanged_by_evaluation(scenario, protocol):
    # A memo kept anywhere but in the model's own cached_property slots would
    # change the fingerprint after first use, and every warm replay of a
    # store written by a fresh model would miss.
    preset = scenario_preset(scenario)
    model = create_protocol(protocol, preset.scenario)
    options = {"grid_points": 60}

    def identity():
        return (
            model_fingerprint(model),
            key_digest(solve_key(model, preset.requirements(), options)),
        )

    before = identity()
    params = _midpoint(model)
    model.system_energy(params)
    model.system_latency(params)
    model.capacity_margin(params)
    assert "_ring_table" in vars(model)
    assert identity() == before
    fresh = create_protocol(protocol, preset.scenario)
    assert key_digest(solve_key(fresh, preset.requirements(), options)) == before[1]


@pytest.mark.parametrize("scenario", available_scenarios())
def test_ring_traffic_accessor_matches_traffic_model(scenario):
    model = create_protocol("xmac", scenario_preset(scenario).scenario)
    for ring in model.scenario.topology.rings():
        assert model.ring_traffic(ring) == model.traffic.ring_traffic(ring)


@pytest.mark.parametrize("ring", [0, -1, "depth+1", 1.0, "1", None])
def test_ring_traffic_accessor_still_rejects_invalid_rings(xmac, ring):
    if ring == "depth+1":
        ring = xmac.scenario.depth + 1
    with pytest.raises(ConfigurationError):
        xmac.ring_traffic(ring)


def test_ring_traffic_accessor_defers_bool_to_traffic_model(xmac):
    # ``bool`` is not a plain int, so it takes the validating path; that
    # path accepts it as ring 1 (``True`` is an ``int`` to ``isinstance``).
    assert xmac.ring_traffic(True) == xmac.traffic.ring_traffic(True)


class TestCoerce:
    def test_normalized_dict_passes_through(self, lmac):
        params = _midpoint(lmac)
        assert lmac.coerce(params) is params

    def test_int_values_come_back_as_floats(self, xmac):
        coerced = xmac.coerce({"wakeup_interval": 1})
        assert coerced == {"wakeup_interval": 1.0}
        assert type(coerced["wakeup_interval"]) is float

    def test_names_out_of_order_come_back_in_solver_order(self, small_scenario):
        model = LMACModel(small_scenario)
        names = model.parameter_space.names
        params = _midpoint(model)
        reordered = {name: params[name] for name in reversed(names)}
        coerced = model.coerce(reordered)
        assert list(coerced) == names
        assert coerced == params

    def test_unknown_name_is_rejected(self, xmac):
        with pytest.raises(ConfigurationError, match="unknown"):
            xmac.coerce({"wakeup_interval": 1.0, "bogus": 2.0})

    def test_missing_name_is_rejected(self, lmac):
        name = lmac.parameter_space.names[0]
        with pytest.raises(ConfigurationError, match="missing"):
            lmac.coerce({name: 0.01})

    def test_array_of_wrong_length_is_rejected(self, xmac):
        with pytest.raises(ConfigurationError):
            xmac.coerce([0.1, 0.2])


#: ``E*`` / ``L*`` of the paper-default game (suggested requirements, 60
#: points per axis) for each protocol, as exact hex floats.  A change here
#: is a change of the answers, not a speed-up.
GOLDEN = {
    "dmac": ("0x1.0c71ee8f236eep-9", "0x1.2ddbdfbee66bep-2"),
    "lmac": ("0x1.b8ee57f6b7227p-8", "0x1.18d04b77ebd1ap+0"),
    "scpmac": ("0x1.3a3af135c275cp-10", "0x1.ab82809a8c958p-2"),
    "xmac": ("0x1.ea0a8a37fafe9p-10", "0x1.0c5e1445c9473p-2"),
}


def test_paper_default_answers_are_bit_identical():
    spec = ExperimentSpec.from_dict(
        {
            "kind": "suite",
            "name": "golden",
            "scenarios": ["paper-default"],
            "protocols": sorted(GOLDEN),
            "solver": {"grid_points": 60},
        }
    )
    result = api.run(spec, runner=build_runner(workers=1, cache=SolveCache()))
    answers = {
        cell.protocol: (cell.solution.energy_star.hex(), cell.solution.delay_star.hex())
        for cell in result.raw.cells
    }
    assert answers == GOLDEN
