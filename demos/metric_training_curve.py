"""Watch the metric network learn to cancel the divergence of a gradient field.

The field is the anisotropic quadratic bowl grad f = diag(1..8) theta
(ascent convention flips the sign inside the trainer's probes, but the
divergence target is sign-agnostic).  The network's only job is to pick
a factor u(theta) that drives div(G^-1 grad f) toward zero, estimated on
one fixed matrix of --probes probes that every iteration reads; the
printed curve is the best-so-far squared-divergence loss, which the
trainer guarantees is non-increasing.
"""

import argparse

import numpy as np

from rpg.divergence import draw_probes, probe_field_rows
from rpg.metricnet import (LayerLayout, MetricNetConfig, init_params,
                           train_metric_net)
from rpg.rng import RngStream


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iters", type=int, default=20)
    ap.add_argument("--probes", type=int, default=64)
    args = ap.parse_args()

    scales = np.arange(1.0, 9.0)
    grad_fn = lambda pts: pts * scales
    theta = np.ones(8)

    layout = LayerLayout.from_vector(theta.size)
    phi = init_params(RngStream(args.seed), MetricNetConfig(m_tilde=3), layout)
    train, = probe_field_rows(grad_fn, theta, draw_probes(
        args.seed, args.probes, theta.size)[:1])
    _, history = train_metric_net(phi, train, args.seed, args.iters, lr=0.1,
                                  kick_scale=0.05)

    print(f"{'iter':>4} {'best |div|':>12} {'best loss':>12}")
    for it, div, loss in history:
        print(f"{it:>4} {abs(div):>12.5f} {loss:>12.6f}")
    first, last = history[0][2], history[-1][2]
    print(f"\nloss reduced to {last / first:.3f} of its starting value "
          f"in {len(history)} iterations")


if __name__ == "__main__":
    main()
