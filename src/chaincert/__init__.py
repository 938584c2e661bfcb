"""Certified analysis of chained bi-affine computations.

The package models deep architectures as chains ``x_t = a_t(b_t(x_{t-1},
u_t))`` with bi-affine maps ``b_t`` and nonlinear stages ``a_t``, and
provides, on top of that single representation:

* reverse-mode gradients, tangents and second-order contractions with an
  exact elementary-operation meter (:mod:`chaincert.autodiff`);
* log-domain propagation of magnitude, Lipschitz and smoothness constants
  over parameter or input balls (:mod:`chaincert.smoothness`);
* Newton and Gauss-Newton steps through dynamic programming and a dual
  matrix-free solver, with a dense reference (:mod:`chaincert.oracles`);
* implicit (argmin) layers with certified gradient error bounds
  (:mod:`chaincert.implicit`);
* step-size-certified projected gradient training
  (:mod:`chaincert.training`);
* a line-based architecture file format and a command line front end
  (:mod:`chaincert.archfile`, :mod:`chaincert.cli`).
"""

from .errors import (DimensionMismatch, InfeasibleModel, InvalidBasis,
                     IterationLimit, NumericError, SecondOrderUnavailable,
                     SymbolicOnlyError)
from .magnitude import LogMag, lm_max, lm_min, lm_sum
from .activations import ScalarActivation, get_activation
from .stages import (AvgPoolStage, BatchNormStage, BlockStage,
                     ElementwiseStage, MaxPoolStage, SoftmaxStage, Stage,
                     StageConstants, StageLin)
from .biaffine import (BiAffineConstants, BiAffinePart, ConvPart,
                       DenseBiAffinePart, FCPart, IdentityPart, ResidualPart,
                       SymbolicConvPart, operator_norm)
from .layers import (LayerDescriptor, activation_layer, avgpool2d,
                     batchnorm_layer, conv1d, conv2d, custom_layer,
                     fully_connected, layer_second_contract, maxpool2d,
                     residual_wrap, softmax_layer)
from .chain import ChainSpec, ParamVector, sample_params, sample_state
from .autodiff import (LayerSparsity, OpCount, OpCounter, Tape, backward,
                       backward_formula, count_backward_cost, forward,
                       grad_objective, jvp, layer_sparsity)
from .objectives import (BlockRidge, Objective, Regularizer, ZeroReg,
                         cluster_objective, eval_convex_cluster,
                         eval_logistic, eval_squared, logistic_objective,
                         squared_objective)
from .smoothness import (BoundedDomain, SmoothTriple, catalog_constants,
                         generic_recursion, input_smoothness, loss_constants,
                         objective_smoothness, propagate_chain,
                         propagate_layers, recenter_domain, refine_on_ball)
from .oracles import (LQProblem, OracleStep, build_lq, solve_dense_reference,
                      solve_gauss_newton_dual, solve_gradient_step,
                      solve_newton_dp)
from .implicit import (InnerCertificate, InnerProblem, audit_constants,
                       implicit_gradient, implicit_smoothness,
                       lemma_error_bound, solve_inner)
from .training import (TrainConfig, TrainTrace, certified_step,
                       project_domain, train_pgd, train_sgd)
from .archfile import (ArchFile, ParseError, build_arch, parse_arch,
                       parse_arch_text, read_archfile)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch", "InfeasibleModel", "InvalidBasis", "IterationLimit",
    "NumericError", "SecondOrderUnavailable", "SymbolicOnlyError",
    "LogMag", "lm_max", "lm_min", "lm_sum",
    "operator_norm",
    "ScalarActivation", "get_activation",
    "AvgPoolStage", "BatchNormStage", "BlockStage", "ElementwiseStage",
    "MaxPoolStage", "SoftmaxStage", "Stage", "StageConstants", "StageLin",
    "BiAffineConstants", "BiAffinePart", "ConvPart", "DenseBiAffinePart",
    "FCPart", "IdentityPart", "ResidualPart", "SymbolicConvPart",
    "LayerDescriptor", "activation_layer", "avgpool2d", "batchnorm_layer",
    "conv1d", "conv2d", "custom_layer", "fully_connected",
    "layer_second_contract", "maxpool2d", "residual_wrap", "softmax_layer",
    "ChainSpec", "ParamVector", "sample_params", "sample_state",
    "LayerSparsity", "OpCount", "OpCounter", "Tape", "backward",
    "backward_formula", "count_backward_cost", "forward", "grad_objective",
    "jvp", "layer_sparsity",
    "BlockRidge", "Objective", "Regularizer", "ZeroReg", "cluster_objective",
    "eval_convex_cluster", "eval_logistic", "eval_squared",
    "logistic_objective", "squared_objective",
    "BoundedDomain", "SmoothTriple", "catalog_constants", "generic_recursion",
    "input_smoothness", "loss_constants", "objective_smoothness",
    "propagate_chain", "propagate_layers", "recenter_domain", "refine_on_ball",
    "LQProblem", "OracleStep", "build_lq", "solve_dense_reference",
    "solve_gauss_newton_dual", "solve_gradient_step", "solve_newton_dp",
    "InnerCertificate", "InnerProblem", "audit_constants",
    "implicit_gradient", "implicit_smoothness", "lemma_error_bound",
    "solve_inner",
    "TrainConfig", "TrainTrace", "certified_step", "project_domain",
    "train_pgd", "train_sgd",
    "ArchFile", "ParseError", "build_arch", "parse_arch", "parse_arch_text",
    "read_archfile",
]
