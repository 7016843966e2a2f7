import numpy as np
import pytest

from pinnbound import ActivationSpec, CollocationSet, init_weights

FAMILIES = [
    ActivationSpec.from_name("tanh", 1),
    ActivationSpec.from_name("tanh", 3),
    ActivationSpec.from_name("sigmoid", 1),
    ActivationSpec.from_name("sigmoid", 2),
    ActivationSpec.from_name("expnegrelu", 3),
    ActivationSpec.from_name("expnegrelu", 4),
]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_net(seed, d=2, p=4):
    return init_weights(d=d, p=p, seed=seed)


def random_colloc(seed, f0, d=2, n_r=4, n_0=3):
    g = np.random.default_rng(seed)
    return CollocationSet(interior=g.uniform(0, 1, (n_r, d + 1)),
                          initial=g.uniform(0, 1, (n_0, d)), f0=f0)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)
