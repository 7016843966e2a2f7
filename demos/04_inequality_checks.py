"""
Brute-force checks of the probabilistic inequalities
====================================================

Each supporting inequality is estimated on both sides: sign expectations
by exhaustive enumeration (exact for <= 20 points) or seeded sampling,
suprema over explicit finite grids.  PASS on a grid is sound evidence;
FAIL would falsify the inequality outright.
"""

import numpy as np

from pinnbound import (ConstraintGrid, LossConfig, check_abs_removal,
                       check_contraction_product, check_contraction_single,
                       check_rademacher_linear, check_symmetrization, field_eval,
                       init_weights)
from pinnbound import ActivationSpec, taylor_green_initial

rng = np.random.default_rng(0)
Z = rng.uniform(0, 1, (8, 3))
grid = ConstraintGrid.random(dim=3, n_vectors=40, B=2.0, seed=1)


def show(rep):
    print(f"{rep.name:23s} lhs={rep.lhs:10.5f}  rhs={rep.rhs:10.5f}  "
          f"margin={rep.margin:8.5f}  {'exact' if rep.exact else 'sampled':7s} "
          f"{'PASS' if rep.passed else 'FAIL'}")


# linear class: closed-form supremum against the dimension-free cap
show(check_rademacher_linear(Z, B=2.0))
show(check_abs_removal(grid, Z, np.tanh, c=0.0))

# six 3-row layers W_j, each given by the indices of its rows in the grid
rows = [rng.integers(0, len(grid.vectors), 3) for _ in range(6)]
heads = [rng.uniform(-0.5, 0.5, 3) for _ in range(6)]
show(check_contraction_single(grid, Z, lambda x: 1 - np.tanh(x) ** 2,
                              L_phi=0.77, c=1.0, rows=rows, heads=heads))

show(check_contraction_product(grid, Z, np.tanh, np.tanh, B=1.0,
                               B_phi1=1.0, B_phi2=1.0, L_phi1=1.0, L_phi2=1.0,
                               k=0.0))

# symmetrization over a tiny class of depth-2 networks
spec = ActivationSpec.from_name("tanh", 3)
nets = [init_weights(2, 4, seed=j) for j in range(3)]
hyps = [lambda z, w=w: field_eval(w, spec, z) for w in nets]
f0 = taylor_green_initial(0.01)   # the vortex's t=0 velocities, the targets of both point sets
sampler = lambda r, n: (r.uniform(0, 1, (n, 3)), r.uniform(0, 1, (n, 2)))
show(check_symmetrization(hyps, LossConfig(), sampler, f0,
                          n_points=10, n_trials=200, seed=0))
