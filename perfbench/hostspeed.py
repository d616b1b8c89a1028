"""Reference kernel that reads how fast the host runs at this moment.

The 2-vCPU host this benchmark was built on switches between a fast and a
slow state, 1.6x to 2x apart, for seconds to minutes at a time.  A run
that falls wholly into a slow stretch reads that much higher whatever
statistic it reports, so the timings are scaled to a reference speed:
`reference_ms()` times a fixed loop of small numpy calls and Python object
churn, the mix of work `rpg` does in its rollouts, tape and metric net,
and a timing is scaled by `REFERENCE_MS / reference_ms()` for a reading
taken in the same host state (run.py, `update_ms` and `setup_s`).

The kernel calls nothing in `rpg`, so a change to the library moves the
scaled timings in full.  It slows by about as much as the library does:
in one slow stretch the kernel took 1.85x its fast time, `lqr` J updates
1.8x, `bowl` J updates 1.85x, `pointmass` baseline updates 1.9x, `lqr`
baseline updates 2.0x and the set-up probe 1.65x.  A pure integer loop
slows by less (1.3x), so the kernel is built from the library's kind of
work rather than from arithmetic alone.
"""

from time import perf_counter

import numpy as np

# The kernel's time on the reference host (2 vCPUs, Intel Xeon, Python
# 3.11.7, numpy 2.4.6) in its fast state; scaled timings read as
# milliseconds at that speed.
REFERENCE_MS = 3.4
_ITERATIONS = 1000
_A = np.random.default_rng(0).standard_normal((8, 8)) / 3.0


def _kernel():
    rng = np.random.default_rng(0)
    x = np.ones(8)
    table, acc = {}, []
    for i in range(_ITERATIONS):
        x = np.tanh(_A @ x) + 0.01 * rng.standard_normal(8)
        item = (i, float(x[0]), [i, i + 1])
        table[i % 31] = item
        acc.append(item[1])
    return sum(acc) + len(table)


def reference_ms(reps=3):
    """Milliseconds of the fastest of `reps` runs of the reference kernel."""
    best = float("inf")
    for _ in range(reps):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best * 1000.0
