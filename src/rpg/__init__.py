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
    rpg.fields      batched field calls, FD step and stencil, finiteness checks
    rpg.divergence  exact divergence; one probe draw and one field call
                    of 1 + 4K rows per update, one batch per probe matrix,
                    frozen in place, and the estimator the report and the
                    metric loss share
    rpg.geodesic    geodesic update direction (one u-VJP) +
                    Christoffel/ODE oracles
    rpg.metricnet   the metric network, phi one flat vector that one plan
                    per layout and m_tilde lays out; its fused loss and
                    phi-gradient, UField (u at one phi, and its VJP), the
                    inner loop (Adam on one probe sample), checkpoints
    rpg.envs        toy environments (LQR, point-mass, landscapes)
    rpg.policy      policies holding theta flat; one rollout engine over rows,
                    which plays the fresh batch, the evaluation episodes
                    and the REINFORCE estimator's common-random-numbers
                    field, whose gradient reads the forward kept by play;
                    an episode draws in at most three events (reset,
                    action noise, dynamics noise)
    rpg.training    the outer training loop (baseline / J / T variants)
    rpg.runconfig   run-configuration parsing/validation
    rpg.reporting   CSV/JSON logs, the trajectory hash, SVG charts
    rpg.suites      the self-check suites behind `rpg verify`
    rpg.cli         `rpg verify | train | report`
"""

__version__ = "0.1.0"
