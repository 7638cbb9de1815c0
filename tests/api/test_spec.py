"""ExperimentSpec: parsing, fluent construction, serialization, hashing."""

from __future__ import annotations

import json

import pytest

from repro.api import WORKLOAD_KINDS, ExperimentSpec
from repro.exceptions import ConfigurationError


class TestFromDict:
    def test_minimal_spec_round_trips(self):
        spec = ExperimentSpec.from_dict({"kind": "solve", "protocols": ["xmac"]})
        assert spec.kind == "solve"
        assert spec.protocols == ("xmac",)
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_every_kind_is_accepted(self):
        for kind in WORKLOAD_KINDS:
            assert ExperimentSpec.from_dict({"kind": kind}).kind == kind

    def test_unknown_kind_is_rejected_with_the_known_list(self):
        with pytest.raises(ConfigurationError, match="unknown workload kind"):
            ExperimentSpec.from_dict({"kind": "frobnicate"})
        with pytest.raises(ConfigurationError, match="solve"):
            ExperimentSpec.from_dict({"kind": "frobnicate"})

    def test_missing_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="needs a 'kind'"):
            ExperimentSpec.from_dict({"protocols": ["xmac"]})

    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ConfigurationError, match="workers_count"):
            ExperimentSpec.from_dict({"kind": "solve", "workers_count": 4})

    def test_unknown_nested_key_is_named(self):
        with pytest.raises(ConfigurationError, match="horizons"):
            ExperimentSpec.from_dict({"kind": "validate", "simulation": {"horizons": 1}})

    def test_sweep_parameter_aliases_are_normalized(self):
        spec = ExperimentSpec.from_dict(
            {"kind": "sweep", "sweep": {"parameter": "max-delay", "values": [1.0]}}
        )
        assert spec.sweep.parameter == "max_delay"

    def test_sweep_needs_parameter_and_values(self):
        with pytest.raises(ConfigurationError, match="parameter"):
            ExperimentSpec.from_dict({"kind": "sweep", "sweep": {"values": [1.0]}})
        with pytest.raises(ConfigurationError, match="empty"):
            ExperimentSpec.from_dict(
                {"kind": "sweep", "sweep": {"parameter": "max_delay", "values": []}}
            )

    def test_inline_scenario_keys_are_checked(self):
        with pytest.raises(ConfigurationError, match="rings"):
            ExperimentSpec.from_dict({"kind": "solve", "scenario": {"rings": 5}})

    def test_non_mapping_payload_is_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            ExperimentSpec.from_dict(["kind", "solve"])  # type: ignore[arg-type]


class TestLoaders:
    def test_from_json(self):
        spec = ExperimentSpec.from_json('{"kind": "figure1"}')
        assert spec.kind == "figure1"

    def test_from_json_syntax_error_is_clean(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            ExperimentSpec.from_json("{not json}")

    def test_from_toml(self):
        pytest.importorskip("tomllib")
        spec = ExperimentSpec.from_toml(
            'kind = "sweep"\nprotocols = ["xmac"]\n\n[sweep]\nparameter = "max_delay"\nvalues = [2.0, 4.0]\n'
        )
        assert spec.sweep.values == (2.0, 4.0)

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "suite"}))
        assert ExperimentSpec.from_file(path).kind == "suite"

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigurationError, match="spec file not found"):
            ExperimentSpec.from_file(tmp_path / "nope.json")

    def test_from_file_unsupported_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("kind: solve")
        with pytest.raises(ConfigurationError, match="unsupported spec file type"):
            ExperimentSpec.from_file(path)


class TestFluent:
    def test_fluent_builder_matches_dict_form(self):
        fluent = (
            ExperimentSpec.experiment("sweep", name="demo")
            .with_scenario("paper-default")
            .with_protocols("xmac")
            .with_sweep("max_delay", [2.0, 4.0])
            .with_requirements(energy_budget=0.05)
            .with_solver(grid_points=30)
            .with_runtime(workers=2, cache=False)
        )
        parsed = ExperimentSpec.from_dict(
            {
                "kind": "sweep",
                "name": "demo",
                "scenario": "paper-default",
                "protocols": ["xmac"],
                "sweep": {"parameter": "max_delay", "values": [2.0, 4.0]},
                "requirements": {"energy_budget": 0.05},
                "solver": {"grid_points": 30},
                "runtime": {"workers": 2, "cache": False},
            }
        )
        assert fluent == parsed

    def test_fluent_steps_do_not_mutate(self):
        base = ExperimentSpec.experiment("solve")
        derived = base.with_protocols("xmac")
        assert base.protocols == ()
        assert derived.protocols == ("xmac",)

    def test_with_requirements_merges_like_the_other_builders(self):
        spec = (
            ExperimentSpec.experiment("solve")
            .with_requirements(energy_budget=0.02)
            .with_requirements(max_delay=2.0)
        )
        assert spec.requirements.energy_budget == 0.02
        assert spec.requirements.max_delay == 2.0

    def test_with_solver_merges_extra_options(self):
        spec = (
            ExperimentSpec.experiment("solve")
            .with_solver(grid_points=20, random_starts=2)
            .with_solver(random_starts=3)
        )
        assert spec.solver.grid_points == 20
        assert spec.solver.options == {"random_starts": 3}


class TestHash:
    def test_hash_is_stable_and_64_hex_chars(self):
        spec = ExperimentSpec.experiment("suite").with_protocols("xmac")
        assert spec.spec_hash() == spec.spec_hash()
        assert len(spec.spec_hash()) == 64
        int(spec.spec_hash(), 16)  # hex

    def test_hash_changes_with_the_workload(self):
        base = ExperimentSpec.experiment("suite").with_protocols("xmac")
        assert base.spec_hash() != base.with_protocols("lmac").spec_hash()
        assert base.spec_hash() != base.with_solver(grid_points=10).spec_hash()

    def test_runtime_policy_does_not_change_provenance(self):
        base = ExperimentSpec.experiment("suite").with_protocols("xmac")
        parallel = base.with_runtime(workers=8, cache=False)
        assert base.spec_hash() == parallel.spec_hash()


class TestRetiredSimEngine:
    """Specs written while the simulator had two engines keep loading."""

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_old_values_are_read_and_dropped(self, engine):
        old = ExperimentSpec.from_dict(
            {"kind": "solve", "runtime": {"workers": 2, "sim_engine": engine}}
        )
        new = ExperimentSpec.from_dict({"kind": "solve", "runtime": {"workers": 2}})
        assert old == new
        assert old.spec_hash() == new.spec_hash()
        assert "sim_engine" not in old.to_dict()["runtime"]

    def test_other_values_are_rejected(self):
        with pytest.raises(ConfigurationError, match="sim_engine.*'vectorized'"):
            ExperimentSpec.from_dict(
                {"kind": "solve", "runtime": {"sim_engine": "vectorized"}}
            )

    def test_runtime_policy_has_no_engine_field(self):
        with pytest.raises(TypeError):
            ExperimentSpec.experiment("solve").with_runtime(sim_engine="batched")


class TestRetiredSolverMethod:
    """Specs written while the grid stage had two methods keep loading."""

    OLD_SOLVER = {
        "grid_points": 20,
        "method": "adaptive",
        "coarse_points": 1,  # dropped whatever the value: it never mattered
        "refine_rounds": "many",
        "top_k": 3,
    }

    @pytest.mark.parametrize("method", ["exhaustive", "adaptive"])
    @pytest.mark.parametrize("override", [None, "exhaustive", "adaptive"])
    def test_old_keys_are_read_and_dropped(self, method, override):
        old = ExperimentSpec.from_dict(
            {
                "kind": "solve",
                "solver": dict(self.OLD_SOLVER, method=method),
                "runtime": {"workers": 2, "solver_method": override},
            }
        )
        new = ExperimentSpec.from_dict(
            {"kind": "solve", "solver": {"grid_points": 20}, "runtime": {"workers": 2}}
        )
        assert old == new
        assert old.spec_hash() == new.spec_hash()
        assert old.solver.options == {}  # nothing leaks to the game's kwargs
        assert old.to_dict()["solver"] == {"grid_points": 20}
        assert "solver_method" not in old.to_dict()["runtime"]

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"solver": {"method": "magic"}}, "solver.method"),
            ({"solver": {"method": None}}, "solver.method"),
            ({"runtime": {"solver_method": "magic"}}, "runtime.solver_method"),
        ],        ids=["solver-magic", "solver-null", "runtime-magic"],
    )
    def test_other_values_are_rejected(self, payload, key):
        with pytest.raises(ConfigurationError, match=key):
            ExperimentSpec.from_dict({"kind": "solve", **payload})

    def test_runtime_policy_has_no_method_field(self):
        with pytest.raises(TypeError):
            ExperimentSpec.experiment("solve").with_runtime(solver_method="adaptive")


class TestRetiredExecutorKnobs:
    """Specs written while the runtime had ``mode``/``chunk_size`` keep loading."""

    @pytest.mark.parametrize("mode", ["auto", "serial", "thread", "process"])
    @pytest.mark.parametrize("chunk_size", [None, 1, 7])
    def test_old_values_are_read_and_dropped(self, mode, chunk_size):
        old = ExperimentSpec.from_dict(
            {
                "kind": "solve",
                "runtime": {"workers": 2, "cache": True, "mode": mode, "chunk_size": chunk_size},
            }
        )
        new = ExperimentSpec.from_dict({"kind": "solve", "runtime": {"workers": 2}})
        assert old == new
        assert old.spec_hash() == new.spec_hash()
        assert old.to_dict()["runtime"] == {"workers": 2, "cache": True}

    @pytest.mark.parametrize(
        "runtime, key",
        [
            ({"mode": "gpu"}, "runtime.mode"),
            ({"mode": None}, "runtime.mode"),
            ({"chunk_size": -3}, "runtime.chunk_size"),
            ({"chunk_size": 0}, "runtime.chunk_size"),
            ({"chunk_size": "4"}, "runtime.chunk_size"),
            ({"chunk_size": 2.5}, "runtime.chunk_size"),
            ({"chunk_size": True}, "runtime.chunk_size"),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict) else None,
    )
    def test_other_values_are_rejected(self, runtime, key):
        with pytest.raises(ConfigurationError, match=key):
            ExperimentSpec.from_dict({"kind": "solve", "runtime": runtime})

    @pytest.mark.parametrize("knob", [{"mode": "process"}, {"chunk_size": 4}])
    def test_runtime_policy_has_no_executor_fields(self, knob):
        with pytest.raises(TypeError):
            ExperimentSpec.experiment("solve").with_runtime(**knob)


class TestMalformedFields:
    """Malformed runtime/solver values fail at parse time, on every path."""

    @pytest.mark.parametrize(
        "section, payload, match",
        [
            ("solver", {"grid_points": "abc"}, "solver.grid_points"),
            ("solver", {"grid_points": 20.9}, "solver.grid_points"),
            ("solver", {"grid_points": 1}, "solver.grid_points"),
            ("runtime", {"workers": "x"}, "runtime.workers"),
            ("runtime", {"workers": -1}, "workers must be >= 0"),
            ("runtime", {"workers": 1.5}, "runtime.workers"),
            ("runtime", {"workers": True}, "runtime.workers"),
            ("runtime", {"cache": "false"}, "runtime.cache"),
            ("runtime", {"cache": 0}, "runtime.cache"),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict) else None,
    )
    def test_from_dict_and_builders_reject(self, section, payload, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentSpec.from_dict({"kind": "solve", section: payload})
        builder = "with_solver" if section == "solver" else "with_runtime"
        with pytest.raises(ConfigurationError, match=match):
            getattr(ExperimentSpec.experiment("solve"), builder)(**payload)

    def test_well_formed_values_pass(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "solve",
                "solver": {"grid_points": 2},
                "runtime": {"workers": 0, "cache": False},
            }
        )
        assert spec.runtime.workers == 0 and spec.runtime.cache is False

    def test_non_mapping_section_is_rejected(self):
        with pytest.raises(ConfigurationError, match="solver must be a mapping"):
            ExperimentSpec.from_dict({"kind": "solve", "solver": [20]})


class TestMalformedSimulationAndCampaign:
    """The ``simulation``/``campaign`` sections are validated at parse time."""

    @pytest.mark.parametrize(
        "section, payload, match",
        [
            ("campaign", {"replications": "abc"}, "campaign.replications"),
            ("campaign", {"replications": 2.9}, "campaign.replications"),
            ("campaign", {"replications": True}, "campaign.replications"),
            ("campaign", {"replications": 0}, "campaign.replications"),
            ("campaign", {"base_seed": 1.5}, "campaign.base_seed"),
            ("campaign", {"base_seed": -1}, "campaign.base_seed"),
            ("campaign", {"horizon": "1e3"}, "campaign.horizon"),
            ("campaign", {"confidence": "high"}, "campaign.confidence"),
            ("campaign", {"energy_tolerance": None}, "campaign.energy_tolerance"),
            ("campaign", {"delay_tolerance": -0.5}, "campaign.delay_tolerance"),
            ("campaign", {"min_delivery_ratio": "0.9"}, "campaign.min_delivery_ratio"),
            ("simulation", {"seed": 1.7}, "simulation.seed"),
            ("simulation", {"seed": "1"}, "simulation.seed"),
            ("simulation", {"horizon": "1e3"}, "simulation.horizon"),
            ("simulation", {"parameters": "wakeup_interval=0.4"}, "simulation.parameters"),
            ("simulation", {"parameters": {"wakeup_interval": "0.4"}}, "wakeup_interval"),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict) else None,
    )
    def test_from_dict_and_builders_reject(self, section, payload, match):
        kind = "campaign" if section == "campaign" else "validate"
        with pytest.raises(ConfigurationError, match=match):
            ExperimentSpec.from_dict({"kind": kind, section: payload})
        builder = "with_campaign" if section == "campaign" else "with_simulation"
        with pytest.raises(ConfigurationError, match=match):
            getattr(ExperimentSpec.experiment(kind), builder)(**payload)

    def test_integral_json_numbers_load_as_floats(self):
        # ``"horizon": 1500`` and ``1500.0`` are one spec, with one hash.
        ints = ExperimentSpec.from_dict(
            {"kind": "campaign", "campaign": {"horizon": 1500, "confidence": 0.95}}
        )
        floats = ExperimentSpec.from_dict({"kind": "campaign", "campaign": {"horizon": 1500.0}})
        assert ints.campaign.horizon == 1500.0 and isinstance(ints.campaign.horizon, float)
        assert ints.spec_hash() == floats.spec_hash()


class TestBareStringsForLists:
    """A bare string is not split into characters where a list is expected."""

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"kind": "suite", "scenarios": "paper-default"}, "scenarios must be a list"),
            ({"kind": "solve", "protocols": "xmac"}, "protocols must be a list"),
            ({"kind": "suite", "scenarios": 3}, "scenarios must be a list"),
            (
                {"kind": "sweep", "sweep": {"parameter": "max_delay", "values": "abc"}},
                "sweep.values must be a list",
            ),
            (
                {"kind": "sweep", "sweep": {"parameter": "max_delay", "values": 3.0}},
                "sweep.values must be a list",
            ),
        ],
    )
    def test_rejected_naming_the_key(self, payload, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentSpec.from_dict(payload)


class TestNonFiniteRequirements:
    """JSON parses ``NaN``/``Infinity``; as requirements they are bogus data."""

    @pytest.mark.parametrize("name", ["max_delay", "energy_budget"])
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_requirements_from_json(self, name, text):
        document = '{"kind": "solve", "requirements": {"%s": %s}}' % (name, text)
        with pytest.raises(ConfigurationError, match=f"requirements.{name} must be finite"):
            ExperimentSpec.from_json(document)

    @pytest.mark.parametrize("text", ["NaN", "Infinity"])
    def test_sweep_values_from_json(self, text):
        document = (
            '{"kind": "sweep", "sweep": {"parameter": "max_delay", "values": [2.0, %s]}}'
            % text
        )
        with pytest.raises(ConfigurationError, match=r"sweep.values\[\] must be finite"):
            ExperimentSpec.from_json(document)

    def test_fluent_builders(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ExperimentSpec.experiment("solve").with_requirements(max_delay=float("nan"))
        with pytest.raises(ConfigurationError, match="finite"):
            ExperimentSpec.experiment("sweep").with_sweep("energy_budget", [float("inf")])


class TestNonFiniteHorizons:
    """JSON parses ``Infinity``/``NaN``; an infinite horizon never ends."""

    @pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
    def test_campaign_horizon_from_json(self, text):
        document = '{"kind": "campaign", "campaign": {"horizon": %s}}' % text
        with pytest.raises(ConfigurationError, match="campaign.horizon must be"):
            ExperimentSpec.from_json(document)

    @pytest.mark.parametrize("text", ["Infinity", "NaN"])
    def test_simulation_horizon_from_json(self, text):
        document = '{"kind": "validate", "simulation": {"horizon": %s}}' % text
        with pytest.raises(ConfigurationError, match="simulation.horizon must be finite"):
            ExperimentSpec.from_json(document)

    def test_fluent_campaign_horizon(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ExperimentSpec.experiment("campaign").with_campaign(horizon=float("inf"))
