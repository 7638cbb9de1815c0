"""The committed campaign artifact matches a fresh run of its README command.

``docs/validation_campaign.json`` (and the report generated from it) is
produced by the README's ``validate-campaign`` command.  This test reruns
that command into a temporary directory and compares the two artifacts:

* verdicts, cell and replication counts, seeds and parameter names exactly;
* analytical fields (model E/L, the solved parameters, check references)
  within 1e-6 relative;
* simulated statistics and check errors within 1e-3 relative.

Solver or simulator drift then fails here instead of leaving the committed
artifact silently stale.  Slow-marked (about 6 s); run it with
``pytest tests/docs/test_campaign_artifact.py -m slow``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACT = REPO_ROOT / "docs" / "validation_campaign.json"

#: The README command that writes the committed artifact (minus ``--out``).
README_COMMAND = [
    "validate-campaign",
    "--scenarios", "paper-default", "high-rate",
    "--protocols", "xmac", "lmac", "dmac", "scpmac",
    "--replications", "3",
]

ANALYTICAL_TOLERANCE = 1e-6
SIMULATED_TOLERANCE = 1e-3

#: Leaf keys computed from the analytical models and the solved game.
ANALYTICAL_KEYS = {"analytical_delay_s", "analytical_energy_j_per_s", "reference"}
#: Leaf keys measured by the simulator (or derived from its measurements).
SIMULATED_KEYS = {"observed", "error", "generated", "delivered", "dropped"}


def _tolerance(path: tuple) -> float:
    """Relative tolerance of one leaf, from its key path; 0 means exact."""
    if "parameters" in path or path[-1] in ANALYTICAL_KEYS:
        return ANALYTICAL_TOLERANCE
    if "metrics" in path and path[-1] != "count":
        return SIMULATED_TOLERANCE
    if path[-1] in SIMULATED_KEYS:
        return SIMULATED_TOLERANCE
    return 0.0


def _mismatches(committed, fresh, path=()):
    """Every leaf where ``fresh`` departs from ``committed`` beyond its tolerance."""
    if isinstance(committed, dict):
        if not isinstance(fresh, dict) or set(committed) != set(fresh):
            return [f"{'.'.join(map(str, path))}: keys differ"]
        return [
            problem
            for key in committed
            for problem in _mismatches(committed[key], fresh[key], path + (key,))
        ]
    if isinstance(committed, list):
        if not isinstance(fresh, list) or len(committed) != len(fresh):
            return [f"{'.'.join(map(str, path))}: lengths differ"]
        return [
            problem
            for index, (old, new) in enumerate(zip(committed, fresh))
            for problem in _mismatches(old, new, path + (index,))
        ]
    tolerance = _tolerance(path) if path else 0.0
    numeric = all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in (committed, fresh)
    )
    if tolerance and numeric:
        if math.isclose(committed, fresh, rel_tol=tolerance, abs_tol=0.0):
            return []
    elif committed == fresh and type(committed) is type(fresh):
        return []
    return [f"{'.'.join(map(str, path))}: committed {committed!r}, fresh {fresh!r}"]


@pytest.mark.slow
def test_readme_command_reproduces_the_committed_artifact(tmp_path, capsys):
    out = tmp_path / "campaign.json"
    assert cli_main(README_COMMAND + ["--out", str(out)]) == 0
    capsys.readouterr()
    committed = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    fresh = json.loads(out.read_text(encoding="utf-8"))
    problems = _mismatches(committed, fresh)
    assert not problems, (
        "docs/validation_campaign.json drifted from its README command:\n"
        + "\n".join(problems[:20])
    )


class TestComparison:
    """The comparison itself: tolerances follow the key path."""

    def test_analytical_drift_within_tolerance_passes(self):
        old = {"cells": [{"analytical_delay_s": 1.0, "parameters": {"x": 2.0}}]}
        new = {"cells": [{"analytical_delay_s": 1.0 + 1e-8, "parameters": {"x": 2.0 + 1e-8}}]}
        assert _mismatches(old, new) == []

    def test_analytical_drift_beyond_tolerance_fails(self):
        old = {"cells": [{"analytical_energy_j_per_s": 1.0}]}
        new = {"cells": [{"analytical_energy_j_per_s": 1.0 + 1e-5}]}
        assert len(_mismatches(old, new)) == 1

    def test_simulated_statistics_get_the_looser_tolerance(self):
        old = {"metrics": {"delay": {"mean": 0.25, "count": 3}}, "checks": [{"error": 0.03}]}
        new = {"metrics": {"delay": {"mean": 0.2501, "count": 3}}, "checks": [{"error": 0.03002}]}
        assert _mismatches(old, new) == []
        assert len(_mismatches(old, {**new, "checks": [{"error": 0.031}]})) == 1

    def test_counts_verdicts_and_names_are_exact(self):
        old = {"metrics": {"delay": {"count": 3}}, "checks": [{"status": "pass"}]}
        assert _mismatches(old, {"metrics": {"delay": {"count": 4}}, "checks": [{"status": "pass"}]})
        assert _mismatches(old, {"metrics": {"delay": {"count": 3}}, "checks": [{"status": "fail"}]})
        assert _mismatches({"parameters": {"x": 1.0}}, {"parameters": {"y": 1.0}})
        assert _mismatches({"cells": [1, 2]}, {"cells": [1]})
