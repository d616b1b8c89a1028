"""Bit pins of the initial parameters: phi_0 from ``init_params`` and the
theta_0 that ``run_training`` builds its policy with.

Every trajectory starts from these vectors, so a change to the plan's draw
order or to a policy constructor moves every run, and fails here as well
as in ``tests/trajectory_hashes.py``.  Each case hashes the arrays' shapes
and bytes (and phi's stage plans) with SHA-256.
"""

import hashlib

import numpy as np
import pytest

from rpg.envs import make_env
from rpg.metricnet import LayerLayout, MetricNetConfig, init_params
from rpg.policy import PolicyMLP
from rpg.rng import RngStream
from rpg.training import TrainConfig, _build_policy


def digest(arrays, extra=""):
    h = hashlib.sha256(extra.encode("utf-8"))
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode("utf-8"))
        h.update(a.tobytes())
    return h.hexdigest()


MIXED = LayerLayout(((5, 4), (2,), (3, 7), (1, 6), (3,)), pool_exempt=1)

PHI_CASES = {
    "lqr": (LayerLayout(((1, 1), (1,))), 1),
    "bowl": (LayerLayout.from_vector(4), 3),
    "pointmass": (PolicyMLP(4, 2, RngStream(0)).layout, 3),
    "mixed": (MIXED, 7),
}

PHI_SHA256 = {
    "lqr":
        "4e6abd29c4046900f6f706866166230119fe71b87a2c44b97fbdefde7e136e4a",
    "bowl":
        "14b8df7ef7ac89db223f31fa4d8920d76ace5115340424ff91114c8b22918d43",
    "pointmass":
        "a28591ef17bfbe2e9d5f2d3053e9d366197cf5f6c011cf0c4b2eda2e0f232cbf",
    "mixed":
        "efb10cafc57652b518bf876369c916290b8e485f51ac3e4cc880de2c471eb346",
}


@pytest.mark.parametrize("name", sorted(PHI_CASES))
def test_init_params_bits_are_pinned(name):
    layout, m_tilde = PHI_CASES[name]
    phi = init_params(RngStream(11).spawn("phi-init"),
                      MetricNetConfig(m_tilde=m_tilde), layout)
    assert digest(phi.params_list(), repr(phi.plans)) == PHI_SHA256[name]


ENVS = {
    "lqr": ("lqr", {}),
    "lqr2x2": ("lqr", dict(a=[[1.0, 0.1], [0.0, 1.0]], b=[[0.0, 1.0],
                                                          [1.0, 0.5]],
                           q=np.eye(2), r=np.eye(2))),
    "bowl": ("landscape", {}),
    "pointmass": ("pointmass", {}),
}

THETA_SHA256 = {
    ("lqr", 0):
        "14077c0efb5fbfc8e9ea711f15cc5d8684992d5cdf02949ac152afeac05a462d",
    ("lqr", 1):
        "8e646da0bde7ecfa8e53b26bccbf27a03064efbc055bc7862bca4a23b8f9cc45",
    ("lqr2x2", 0):
        "00cd66ff87c1719bb042dfbe2a46d512385111ed377e4406bb91fd225d57c022",
    ("lqr2x2", 1):
        "2cbbe12f2d21a8257935f20524abd62a53d70070336907ca97aaec7a25cb9078",
    ("bowl", 0):
        "9f5931f1842a010b1c291a1435c2ae4af6de69e9d165ef22746d74c2fe2a6d45",
    ("bowl", 1):
        "66c5f3cf6245d111e38996ce54f3af80e6ffae78e71bb655a650828ce71420dd",
    ("pointmass", 0):
        "95c6a28a1ec9887ca2fcccda75281e2a746d28b0c54a80e39e49fdd41d9c4f7f",
    ("pointmass", 1):
        "9092e0e78285ede4d9ea6df3e192fe6042ba498f7da67bf33da196b0ee072ea1",
}


@pytest.mark.parametrize("name,seed", sorted(THETA_SHA256))
def test_constructor_theta_bits_are_pinned(name, seed):
    kind, params = ENVS[name]
    env = make_env(kind, **params)
    policy = _build_policy(env, TrainConfig(env_kind=kind),
                           RngStream(seed).spawn("policy-init"))
    assert policy.theta.shape == (policy.layout.n,)
    assert digest([policy.theta]) == THETA_SHA256[name, seed]
