"""CLI `run` subcommand: exit codes and error paths.

A bad spec must exit nonzero with a one-line ``error:`` message on stderr —
never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_ERROR, EXIT_NOT_WARM, EXIT_OK, main as cli_main


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GOOD_SOLVE = {
    "kind": "solve",
    "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
    "protocols": ["xmac"],
    "solver": {"grid_points": 20},
}


class TestRunHappyPath:
    def test_solve_spec_runs(self, capsys, tmp_path):
        assert cli_main(["run", write_spec(tmp_path, GOOD_SOLVE)]) == 0
        out = capsys.readouterr().out
        assert "E_star" in out
        assert "sha256" in out

    def test_plan_only_does_not_solve(self, capsys, tmp_path):
        spec = dict(GOOD_SOLVE, solver={"grid_points": 2000})  # huge grid: would be slow
        assert cli_main(["run", write_spec(tmp_path, spec), "--plan-only"]) == 0
        out = capsys.readouterr().out
        assert "grid_points" in out
        assert "E_star" not in out

    def test_csv_and_out_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "result.json"
        code = cli_main(
            [
                "run",
                write_spec(tmp_path, GOOD_SOLVE),
                "--csv",
                str(csv_path),
                "--out",
                str(json_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro.api.resultset"

    def test_workers_override_is_reported(self, capsys, tmp_path):
        spec = {
            "kind": "sweep",
            "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
            "protocols": ["xmac"],
            "sweep": {"parameter": "max_delay", "values": [2.0, 4.0]},
            "solver": {"grid_points": 15},
        }
        path = write_spec(tmp_path, spec)
        assert cli_main(["run", path, "--workers", "2", "--no-cache"]) == 0
        assert "# runtime: process[2]" in capsys.readouterr().out

    def test_shard_runs_a_subset(self, capsys, tmp_path):
        spec = {
            "kind": "sweep",
            "scenario": {"depth": 4, "density": 6, "sampling_period": 600.0},
            "protocols": ["xmac"],
            "sweep": {"parameter": "max_delay", "values": [2.0, 4.0, 6.0]},
            "solver": {"grid_points": 15},
        }
        path = write_spec(tmp_path, spec)
        assert cli_main(["run", path, "--shard", "0/2", "--plan-only"]) == 0
        out = capsys.readouterr().out
        assert "2 unit(s)" in out


class TestRunErrorPaths:
    def assert_clean_error(self, capsys, argv, match):
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert match in captured.err
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_missing_spec_file(self, capsys, tmp_path):
        self.assert_clean_error(
            capsys, ["run", str(tmp_path / "nope.json")], "spec file not found"
        )

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        self.assert_clean_error(capsys, ["run", str(path)], "invalid JSON")

    def test_unknown_workload_kind(self, capsys, tmp_path):
        path = write_spec(tmp_path, {"kind": "frobnicate"})
        self.assert_clean_error(capsys, ["run", path], "unknown workload kind")

    def test_unknown_protocol(self, capsys, tmp_path):
        path = write_spec(tmp_path, dict(GOOD_SOLVE, protocols=["nosuchmac"]))
        self.assert_clean_error(capsys, ["run", path], "unknown protocol")

    def test_infeasible_solve_spec(self, capsys, tmp_path):
        infeasible = dict(
            GOOD_SOLVE,
            requirements={"energy_budget": 1e-9, "max_delay": 1e-3},
            solver={"grid_points": 10},
        )
        path = write_spec(tmp_path, infeasible)
        code = cli_main(["run", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_bad_shard_argument(self, capsys, tmp_path):
        path = write_spec(tmp_path, GOOD_SOLVE)
        self.assert_clean_error(capsys, ["run", path, "--shard", "half"], "--shard")

    def test_unsupported_suffix(self, capsys, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("kind: solve")
        self.assert_clean_error(capsys, ["run", str(path)], "unsupported spec file type")

    def test_bad_workers_override(self, capsys, tmp_path):
        path = write_spec(tmp_path, GOOD_SOLVE)
        self.assert_clean_error(
            capsys, ["run", path, "--workers", "-2"], "workers must be >= 0"
        )

    def test_unknown_solver_method(self, capsys, tmp_path):
        spec = dict(GOOD_SOLVE, solver={"grid_points": 20, "method": "magic"})
        self.assert_clean_error(
            capsys, ["run", write_spec(tmp_path, spec)], "solver.method is retired"
        )

    def test_unknown_runtime_solver_method(self, capsys, tmp_path):
        spec = dict(GOOD_SOLVE, runtime={"solver_method": "magic"})
        self.assert_clean_error(
            capsys, ["run", write_spec(tmp_path, spec)], "runtime.solver_method"
        )


class TestRetiredSimEngine:
    """The engine knob is gone; specs that still name an engine keep running."""

    def test_sim_engine_flag_is_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", write_spec(tmp_path, GOOD_SOLVE), "--sim-engine", "batched"])
        assert excinfo.value.code == EXIT_ERROR
        assert "--sim-engine" in capsys.readouterr().err

    def test_old_spec_file_naming_an_engine_runs(self, capsys, tmp_path):
        old = {
            "kind": "validate",
            "scenario": {"depth": 3, "density": 4, "sampling_period": 60.0},
            "protocols": ["xmac"],
            "simulation": {"horizon": 120.0, "seed": 2},
            "runtime": {"workers": 1, "sim_engine": "scalar"},
        }
        out = tmp_path / "result.json"
        assert cli_main(["run", write_spec(tmp_path, old), "--out", str(out)]) == EXIT_OK
        runtime = json.loads(out.read_text())["spec"]["runtime"]
        assert "sim_engine" not in runtime

    def test_unknown_engine_value_exits_2(self, capsys, tmp_path):
        spec = dict(GOOD_SOLVE, runtime={"sim_engine": "vectorized"})
        assert cli_main(["run", write_spec(tmp_path, spec)]) == EXIT_ERROR
        assert "sim_engine" in capsys.readouterr().err


class TestRetiredSolverMethod:
    """One grid stage: specs naming the old exhaustive/adaptive choice run."""

    RETIRED_SOLVER = {
        "grid_points": 20,
        "method": "adaptive",
        "coarse_points": 7,
        "refine_rounds": 2,
        "top_k": 5,
    }

    def test_solver_method_flag_is_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", write_spec(tmp_path, GOOD_SOLVE), "--solver-method", "adaptive"])
        assert excinfo.value.code == EXIT_ERROR
        assert "--solver-method" in capsys.readouterr().err

    def test_old_spec_file_runs_to_the_same_artifact(self, capsys, tmp_path):
        old = dict(
            GOOD_SOLVE,
            solver=self.RETIRED_SOLVER,
            runtime={"workers": 1, "solver_method": "adaptive"},
        )
        old_out, new_out = tmp_path / "old.json", tmp_path / "new.json"
        old_path = write_spec(tmp_path, old, name="old-spec.json")
        new_path = write_spec(tmp_path, GOOD_SOLVE, name="new-spec.json")
        assert cli_main(["run", old_path, "--no-cache", "--out", str(old_out)]) == EXIT_OK
        assert cli_main(["run", new_path, "--no-cache", "--out", str(new_out)]) == EXIT_OK
        old_payload = json.loads(old_out.read_text())
        new_payload = json.loads(new_out.read_text())
        assert old_payload["spec_sha256"] == new_payload["spec_sha256"]
        assert old_payload["rows"] == new_payload["rows"]
        assert old_payload["spec"]["solver"] == {"grid_points": 20}
        assert "solver_method" not in old_payload["spec"]["runtime"]


class TestNonFiniteHorizon:
    def test_campaign_spec_with_infinite_horizon_exits_2(self, capsys, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(
            '{"kind": "campaign", "scenarios": ["paper-default"], '
            '"protocols": ["xmac"], "campaign": {"horizon": Infinity}}'
        )
        assert cli_main(["run", str(path)]) == EXIT_ERROR
        assert "campaign.horizon must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_validate_campaign_flag_exits_2(self, capsys, value):
        argv = ["validate-campaign", "--scenarios", "paper-default",
                "--protocols", "xmac", "--horizon", value]
        assert cli_main(argv) == EXIT_ERROR
        assert "horizon" in capsys.readouterr().err


class TestExitCodeContract:
    """Pin the documented exit codes the experiment service maps to HTTP.

    ``repro serve`` turns these into statuses (0 → 200, 2 → 400 at submit /
    a failed job at run time, 3 → the warm-store assertion in CI), so the
    server-adjacent error paths must keep their codes.
    """

    INFEASIBLE = dict(
        GOOD_SOLVE,
        requirements={"energy_budget": 1e-9, "max_delay": 1e-3},
        solver={"grid_points": 10},
    )

    @pytest.mark.parametrize(
        "payload, extra_argv, expected",
        [
            pytest.param(GOOD_SOLVE, [], EXIT_OK, id="ok"),
            pytest.param(None, [], EXIT_ERROR, id="unreadable-spec"),
            pytest.param("{not json", [], EXIT_ERROR, id="broken-json"),
            pytest.param({"kind": "frobnicate"}, [], EXIT_ERROR, id="unknown-kind"),
            pytest.param(INFEASIBLE, [], EXIT_ERROR, id="infeasible-solve"),
            pytest.param(
                dict(GOOD_SOLVE, solver={"grid_points": 10, "method": "magic"}),
                [],
                EXIT_ERROR,
                id="unknown-solver-method",
            ),
            pytest.param(
                dict(GOOD_SOLVE, solver={"grid_points": "abc"}),
                [],
                EXIT_ERROR,
                id="grid-points-not-a-number",
            ),
            pytest.param(
                dict(GOOD_SOLVE, solver={"grid_points": 20.9}),
                [],
                EXIT_ERROR,
                id="fractional-grid-points",
            ),
            pytest.param(
                dict(GOOD_SOLVE, runtime={"workers": "x"}),
                [],
                EXIT_ERROR,
                id="workers-not-a-number",
            ),
            pytest.param(
                dict(GOOD_SOLVE, runtime={"chunk_size": -3}),
                [],
                EXIT_ERROR,
                id="negative-chunk-size",
            ),
            pytest.param(
                dict(GOOD_SOLVE, runtime={"cache": "false"}),
                [],
                EXIT_ERROR,
                id="cache-as-a-string",
            ),
            pytest.param(
                dict(GOOD_SOLVE, runtime={"mode": "gpu"}),
                [],
                EXIT_ERROR,
                id="retired-mode-unknown-value",
            ),
            pytest.param(
                dict(GOOD_SOLVE, runtime={"mode": "thread", "chunk_size": 2}),
                [],
                EXIT_OK,
                id="retired-mode-and-chunk-size-old-values",
            ),
            pytest.param(
                {"kind": "campaign", "campaign": {"replications": "abc"}},
                [],
                EXIT_ERROR,
                id="replications-not-a-number",
            ),
            pytest.param(
                {"kind": "campaign", "campaign": {"replications": 2.9}},
                [],
                EXIT_ERROR,
                id="fractional-replications",
            ),
            pytest.param(
                {"kind": "campaign", "campaign": {"replications": True}},
                [],
                EXIT_ERROR,
                id="replications-as-a-bool",
            ),
            pytest.param(
                {"kind": "campaign", "campaign": {"horizon": "1e3"}},
                [],
                EXIT_ERROR,
                id="horizon-as-a-string",
            ),
            pytest.param(
                {"kind": "validate", "protocols": ["xmac"], "simulation": {"seed": 1.7}},
                [],
                EXIT_ERROR,
                id="fractional-simulation-seed",
            ),
            pytest.param(
                {"kind": "suite", "scenarios": "paper-default", "protocols": ["xmac"]},
                [],
                EXIT_ERROR,
                id="scenarios-as-a-bare-string",
            ),
            pytest.param(
                dict(
                    GOOD_SOLVE,
                    kind="sweep",
                    sweep={"parameter": "max_delay", "values": "abc"},
                ),
                [],
                EXIT_ERROR,
                id="sweep-values-as-a-bare-string",
            ),
            pytest.param(
                dict(GOOD_SOLVE, requirements={"max_delay": float("nan")}),
                [],
                EXIT_ERROR,
                id="nan-max-delay",
            ),
            pytest.param(
                dict(GOOD_SOLVE, requirements={"energy_budget": float("inf")}),
                [],
                EXIT_ERROR,
                id="infinite-energy-budget",
            ),
            pytest.param(
                dict(
                    GOOD_SOLVE,
                    kind="sweep",
                    sweep={"parameter": "max_delay", "values": [2.0, float("inf")]},
                ),
                [],
                EXIT_ERROR,
                id="infinite-sweep-value",
            ),
            pytest.param(
                GOOD_SOLVE,
                ["--store", "{tmp}/store", "--require-warm"],
                EXIT_NOT_WARM,
                id="cold-store-require-warm",
            ),
        ],
    )
    def test_exit_code(self, capsys, tmp_path, payload, extra_argv, expected):
        if payload is None:
            path = str(tmp_path / "missing.json")
        elif isinstance(payload, str):
            spec_path = tmp_path / "broken.json"
            spec_path.write_text(payload)
            path = str(spec_path)
        else:
            path = write_spec(tmp_path, payload)
        argv = ["run", path] + [arg.format(tmp=tmp_path) for arg in extra_argv]
        assert cli_main(argv) == expected
        captured = capsys.readouterr()
        if expected == EXIT_ERROR:
            assert captured.err.startswith("error: ")
            assert "Traceback" not in captured.err


class TestNameListSplitting:
    """--scenarios/--protocols accept space- and/or comma-separated names."""

    @pytest.mark.parametrize(
        "values, expected",
        [
            (None, ()),
            (["xmac", "lmac"], ("xmac", "lmac")),
            (["xmac,lmac,dmac,scpmac"], ("xmac", "lmac", "dmac", "scpmac")),
            (["xmac,lmac", "scpmac"], ("xmac", "lmac", "scpmac")),
            (["xmac, lmac,"], ("xmac", "lmac")),
        ],
    )
    def test_split_names(self, values, expected):
        from repro.cli import _split_names

        assert _split_names(values) == expected
