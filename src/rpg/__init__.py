"""Rank-one Riemannian metric regularization for gradient-based optimization.

The package trains a small "metric network" that maps a policy parameter
vector to a rank-one metric field G = I + u u^T over parameter space, drives
the divergence of the metric-regularized gradient field toward zero, and
exposes geodesic-direction parameter updates — all verified against
brute-force differential-geometry oracles and exercised on in-repo toy
control problems.

Import layout:

    rpg.errors      the exception taxonomy
    rpg.rng         counter-addressed deterministic random streams
    rpg.tape        reverse-mode autodiff; no library module uses it, it
                    stays for perfbench/tracer.py, which patches
                    DiffGraph.leaf_gradients, and for the tests' tape
                    references
    rpg.fourier     truncated cosine/sine bases, scaling and rotation maps,
                    the exp-decomposition check and its matrix_exp
    rpg.metric      the rank-one metric: det, inverse-apply, bilinear form
    rpg.fields      batched field calls, FD step, probe settings
    rpg.divergence  exact divergence; the probe estimator shared by the
                    report and the metric loss; Hessian trace, ratio
    rpg.geodesic    geodesic update direction (one u-VJP) +
                    Christoffel/ODE oracles
    rpg.metricnet   the metric network, its fused loss and phi-gradient
                    (numpy forward, hand-written backward), UField (u at
                    one phi, and its VJP over that backward), the inner
                    training loop with Adam, checkpoints
    rpg.envs        toy environments (LQR, point-mass, landscapes)
    rpg.policy      policies; one rollout engine over parameter rows,
                    which plays the fresh batch, the evaluation episodes
                    and the REINFORCE estimator's common-random-numbers
                    field, whose gradient reads the forward kept by play
    rpg.training    the outer training loop (baseline / J / T variants)
    rpg.runconfig   run-configuration parsing/validation
    rpg.reporting   CSV/JSON logs, the trajectory hash, SVG charts
    rpg.suites      the self-check suites behind `rpg verify`
    rpg.cli         `rpg verify | train | report`
"""

__version__ = "0.1.0"
