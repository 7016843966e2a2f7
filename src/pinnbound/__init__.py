"""Depth-2 physics-informed networks for incompressible flow, with a
norm-based generalization bound computed straight from trained weights,
brute-force verifiers for the supporting inequalities, and the
Taylor-Green bound-vs-gap correlation study."""

__version__ = "0.1.0"

from .activations import ActivationSpec, Family, SigmaConstants, constants, eval_derivs, exact_constants
from .bounds import BoundReport, WeightStats, generalization_bound, sample_planner, weight_stats
from .experiment import (CorrelationReport, GapReport, SweepConfig, measure_gap,
                         moment_constants, pearson, sample_initial, sample_interior,
                         sweep_experiment, taylor_green_field, taylor_green_initial)
from .network import (FieldEval, PinnWeights, field_eval, fields, init_weights,
                      load_checkpoint, save_checkpoint)
from .residual import (CollocationSet, LossConfig, RiskBreakdown, empirical_risk, huber,
                       huber_grad, initial_losses, loss_init, loss_res, momentum_residual)
from .training import (OptimState, TrainConfig, adamw_step, grad_risk,
                       risk_breakdown, train)
from .verify import (CheckReport, ConstraintGrid, RademacherEstimate,
                     check_abs_removal, check_contraction_product,
                     check_contraction_single, check_rademacher_linear,
                     check_symmetrization, rademacher_linear)
