"""Median wall time of the J/T updates at the `rpg train` defaults.

For one environment kind, runs variants J and T at seeds 0-2 with every
other setting at its `rpg train` default, in this process, and prints per
variant the number of updates recorded and the median of their
``StepRecord.wall_ms``.  A run that aborts contributes the updates it
recorded; at the defaults every `pointmass` run aborts after 2 (ROADMAP
item 1), so its medians are over 6 updates.

This keeps the cost of an update at the defaults reproducible while the
benchmark (`perfbench/`) shrinks the `pointmass` inner loop.  The figure
is wall time on whatever machine runs it: compare two checkouts on the
same machine, one after the other.

Run from the repository root::

    python tests/update_cost.py [--env pointmass]

pytest does not collect this file: its name does not start with ``test_``.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

from rpg.training import TrainConfig, run_training  # noqa: E402

SEEDS = range(3)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--env", default="pointmass",
                        help="environment kind (default pointmass)")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    for variant in ("J", "T"):
        walls = []
        with np.errstate(all="ignore"):
            for seed in SEEDS:
                summary = run_training(TrainConfig(
                    env_kind=args.env, variant=variant, seed=seed))
                walls += [r.wall_ms for r in summary.records]
        print(f"{args.env} {variant}: {len(walls)} updates, median "
              f"{np.median(walls):.1f} ms")
    print(f"wall clock {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
