#!/usr/bin/env python3
"""Benchmark of the energy-delay bargaining system, run as its users run it.

Operations are timed in gauged CPU time (see ``speed.py``), which a shared
host's changing speed moves far less than wall time.  Run from the
repository root::

    python3 wallbench/run.py --workload solve-suite --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it once more under the layer wrappers and
reports the per-layer metrics, writing ``wallbench/out/trace-*.json``
(Chrome trace events) and ``wallbench/out/layers-*.txt`` (self time per
layer).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; notes and failed
checks go to standard error.

``--write-reference`` recomputes ``wallbench/reference.json``, the answers
at the default seed that the correctness checks compare against.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402 - needs HERE on sys.path


def write_reference() -> Path:
    """Recompute the default-seed answers of solve-suite and campaign-sim."""
    import repro.api as api
    from repro.api import ExperimentSpec
    from repro.runtime import build_runner

    seed = workloads.DEFAULT_SEED
    verdicts = {}
    for spec in workloads.campaign_specs(seed):
        campaign = api.run(ExperimentSpec.from_dict(spec), runner=build_runner(workers=1, use_cache=False))
        verdicts.update(workloads.campaign_verdicts(campaign))
    reference = {
        "seed": seed,
        "solve-suite": workloads.suite_answers(seed),
        "campaign-sim": verdicts,
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_reference:
        print(f"wrote {write_reference()}", file=sys.stderr)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    ctx = workloads.Context(
        root=ROOT, seed=args.seed, seconds=args.seconds, trace=bool(args.trace), out=HERE / "out"
    )
    run = workloads.WORKLOADS[args.workload]
    # Turn SIGTERM into an exception so every server child is torn down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        outcome = run(ctx)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    for note in outcome.notes:
        print(note, file=sys.stderr)
    for failure in outcome.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps(outcome.as_json()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
