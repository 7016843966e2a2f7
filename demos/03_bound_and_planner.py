"""
Evaluating the generalization bound from trained weights
========================================================

The bound needs only scalar norms of the weights (the five functional
caps plus B_w and B_a), the activation constants, and second-moment
constants of the sampling distribution.  The planner inverts it: given a
target accuracy, how many collocation points are enough?
"""

import math

from pinnbound import (ActivationSpec, LossConfig, WeightStats, constants,
                       generalization_bound, init_weights, moment_constants, point_ratio,
                       sample_planner, weight_stats)
from pinnbound.experiment import UNIT_BOX

loss = LossConfig()
sc = constants(ActivationSpec.from_name("tanh", 1))

# reference arithmetic: all weight caps equal to one
unit = WeightStats(B_f1=1, B_f2=1, B_f3=1, B_f4=1, B_f5=1, B_w=1, B_a=1)
rep = generalization_bound(unit, sc, loss, N_r=100, N_0=2500,
                           C_z=1.0, C_z0=math.sqrt(2 / 3))
print(f"C1 = {rep.C1}, C2 = {rep.C2}")
print(f"interior term = {rep.term_interior}")
print(f"initial term  = {rep.term_initial}")
print(f"total         = {rep.total}")

# the same machinery on an actual network, with the unit box's exact
# root-mean-square point norms (1 and sqrt(2/3))
net = init_weights(d=2, p=32, seed=0)
stats = weight_stats(net)
C_z, C_z0 = moment_constants(UNIT_BOX)
print("\nnetwork caps:", stats)
rep = generalization_bound(stats, sc, loss, N_r=125, N_0=500, C_z=C_z, C_z0=C_z0)
print(f"network bound total = {rep.total:.4f}")

# planner: points needed to push the bound below eps
for eps in (rep.total, rep.total / 2, rep.total / 4):
    N_r, N_0 = sample_planner(eps, stats, sc, loss, C_z, C_z0)
    print(f"eps = {eps:9.3f}  ->  N_r = {N_r:8d}, N_0 = {N_0:6d}")

print("\nsuggested N_r / N_0 ratio:",
      round(point_ratio(stats, sc, loss, C_z, C_z0), 3))
