"""Wall time and minor page faults per ``rpg.policy.reinforce_field`` call.

The field is the `rpg train` pointmass one: the run's policy at seed 0,
``probe_episodes`` episodes per row, parameter rows scattered around its
theta.  For 1, 9, 25, 32 and 1,345 rows (1,345 is one J/T update's call at
the `rpg train` defaults: 1 + 2*32*20 + 2*32) it times REPEATS calls and
prints, per row count, the first call's ms and ``ru_minflt`` and the median
of the others.  It does so twice, each time in a new Python process:

- ``fresh``: the row counts in increasing order, so no call follows a
  larger one;
- ``after``: one 1,345-row call first, then the same sequence.

A cost that depends on what ran before shows as a gap between the two.

Run from the repository root::

    python tests/field_faults.py [--repeats 20]

pytest does not collect this file: its name does not start with ``test_``.
"""

import argparse
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

from rpg.envs import make_env  # noqa: E402
from rpg.policy import reinforce_field  # noqa: E402
from rpg.rng import RngStream  # noqa: E402
from rpg.training import TrainConfig, _build_policy  # noqa: E402

ROWS = (1, 9, 25, 32, 1345)
LARGE = 1345


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _timed_call(env, policy, cfg, points):
    faults, start = _minflt(), time.perf_counter()
    reinforce_field(env, policy, points, cfg.probe_episodes, cfg.gamma,
                    RngStream(1))
    return (time.perf_counter() - start) * 1e3, _minflt() - faults


def measure(mode, repeats):
    """One process's lines: mode, rows, first ms and faults, median ms and
    faults of the other calls."""
    cfg = TrainConfig(env_kind="pointmass")
    env = make_env(cfg.env_kind)
    policy = _build_policy(env, cfg, RngStream(0).spawn("policy-init"))
    theta = policy.theta
    points = theta + RngStream(2).normal(size=(LARGE, theta.size),
                                         scale=0.01)
    if mode == "after":
        _timed_call(env, policy, cfg, points)
    for rows in ROWS:
        calls = [_timed_call(env, policy, cfg, points[:rows])
                 for _ in range(repeats if rows < LARGE else 3)]
        (first_ms, first_faults), rest = calls[0], calls[1:]
        print(f"{mode:<6} {rows:>5} {first_ms:>9.2f} {first_faults:>7} "
              f"{statistics.median(c[0] for c in rest):>9.2f} "
              f"{statistics.median(c[1] for c in rest):>7g}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=20,
                        help="calls per row count below 1,345 (default 20)")
    parser.add_argument("--mode", choices=("fresh", "after"),
                        help="measure in this process only")
    args = parser.parse_args(argv)
    if args.mode:
        measure(args.mode, args.repeats)
        return 0
    print("mode    rows  first_ms  faults median_ms  faults")
    for mode in ("fresh", "after"):
        subprocess.run([sys.executable, __file__, "--mode", mode,
                        "--repeats", str(args.repeats)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
