"""
Training a depth-2 flow network on the decaying vortex
======================================================

Only the first-layer matrix W trains; the output heads stay frozen, so
the hypothesis class matches the one the bound is stated for.  Training
is full batch and fully deterministic.
"""

import numpy as np

from pinnbound import (ActivationSpec, CollocationSet, LossConfig,
                       TrainConfig, init_weights, sample_initial, sample_interior,
                       taylor_green_initial, train)
from pinnbound.experiment import UNIT_BOX

# collocation points: interior space-time samples plus a t=0 slice, whose
# targets are the vortex's initial velocities at viscosity 0.01
colloc = CollocationSet(
    interior=sample_interior(125, UNIT_BOX, seed=0),
    initial=sample_initial(500, UNIT_BOX[:2], seed=1),
    f0=taylor_green_initial(0.01),
)

spec = ActivationSpec.from_name("tanh", 3)
weights0 = init_weights(d=2, p=32, seed=2)

weights, history = train(weights0, spec, LossConfig(), colloc,
                         TrainConfig(epochs=800, log_every=100))

for epoch, rb in history:
    print(f"epoch {epoch:4d}  momentum {rb.momentum_term:.5f}  "
          f"divergence {rb.divergence_term:.5f}  initial {rb.initial_term:.5f}  "
          f"total {rb.total:.5f}")

print("\n||W_final - W_init|| =", float(np.linalg.norm(weights.W - weights0.W)))
