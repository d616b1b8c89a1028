"""Cold set-up of one workload in a fresh process; prints its seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED QUICK

Times importing rpg and building every variant's config, environment,
policy template and initial metric-net state, i.e. everything a workload
does before its first timed update.  Then reads the host's speed with the
reference kernel (hostspeed.py) and prints both, in that order.  run.py
starts this script several times over a run; setup_s is the median of the
set-up times scaled to the reference speed.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv):
    name, seed, quick = argv[0], int(argv[1]), argv[2] == "1"
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import workloads

    for cfg in workloads.configs(name, seed, quick=quick):
        workloads.initial_state(cfg)
    seconds = perf_counter() - START
    from hostspeed import reference_ms

    print(seconds, reference_ms())


if __name__ == "__main__":
    main(sys.argv[1:])
