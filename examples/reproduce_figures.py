"""Reproduce the paper's Figure 1 and Figure 2 series.

Run with::

    python examples/reproduce_figures.py [--quick]

For every protocol (X-MAC, DMAC, LMAC) and every requirement value the script
prints the corner points ``(Ebest, Lworst)`` / ``(Eworst, Lbest)`` and the
Nash bargaining trade-off point ``(E*, L*)`` — the series plotted in the
paper's figures — and writes them to ``figure1.csv`` / ``figure2.csv``.

Each figure is one declarative spec of kind ``figure1`` / ``figure2`` (the
same pipeline as ``repro-mac-game run examples/specs/figure1.json``); the
spec kinds default to the paper's scenario, protocols and requirement grids.
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_table, write_csv
from repro.api import ExperimentSpec, run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use a coarser solver grid and fewer sweep points (finishes in seconds)",
    )
    parser.add_argument("--output-prefix", default="figure", help="CSV output prefix")
    args = parser.parse_args()

    figure1_spec = ExperimentSpec.experiment("figure1")
    figure2_spec = ExperimentSpec.experiment("figure2")
    if args.quick:
        figure1_spec = figure1_spec.with_sweep("max_delay", [1.0, 3.0, 6.0])
        figure2_spec = figure2_spec.with_sweep("energy_budget", [0.01, 0.03, 0.06])
    grid = 30 if args.quick else 60

    print("=== Figure 1: E-L trade-off, Ebudget = 0.06 J, Lmax swept ===")
    figure1 = run(figure1_spec.with_solver(grid_points=grid)).raw
    rows1 = [row for sweep in figure1.values() for row in sweep.series()]
    print(format_table(rows1))
    path1 = write_csv(rows1, f"{args.output_prefix}1.csv")
    print(f"(wrote {path1})\n")

    print("=== Figure 2: E-L trade-off, Lmax = 6 s, Ebudget swept ===")
    figure2 = run(figure2_spec.with_solver(grid_points=grid)).raw
    rows2 = [row for sweep in figure2.values() for row in sweep.series()]
    print(format_table(rows2))
    path2 = write_csv(rows2, f"{args.output_prefix}2.csv")
    print(f"(wrote {path2})\n")

    print("Qualitative checks (the paper's headline observations):")
    for name, sweep in figure1.items():
        stars = [solution.energy_star for solution in sweep.solutions]
        monotone = all(later <= earlier + 1e-12 for earlier, later in zip(stars, stars[1:]))
        print(
            f"  - {name}: relaxing Lmax moves the agreement toward the energy player: "
            f"{'yes' if monotone else 'NO'}"
        )
    for name, sweep in figure2.items():
        stars = [solution.delay_star for solution in sweep.solutions]
        monotone = all(later <= earlier + 1e-12 for earlier, later in zip(stars, stars[1:]))
        print(
            f"  - {name}: raising Ebudget moves the agreement toward the delay player: "
            f"{'yes' if monotone else 'NO'}"
        )


if __name__ == "__main__":
    main()
