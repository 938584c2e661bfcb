"""The package surface: each module's ``__all__`` is the one list of its names."""

import chaincert
from chaincert import cli

PUBLIC = [
    "ArchFile", "AvgPoolStage", "BatchNormStage", "BiAffineConstants", "BiAffinePart",
    "BlockRidge", "BlockStage", "BoundedDomain", "ChainSpec", "ConvPart",
    "DenseBiAffinePart", "DimensionMismatch", "ElementwiseStage", "FCPart",
    "IdentityPart", "InfeasibleModel", "InnerCertificate", "InnerProblem",
    "InvalidBasis", "IterationLimit", "LQProblem", "LayerDescriptor", "LayerSparsity",
    "LogMag", "MaxPoolStage", "NumericError", "Objective", "OpCount", "OpCounter",
    "OracleStep", "ParamVector", "ParseError", "Regularizer", "ResidualPart",
    "ScalarActivation", "SecondOrderUnavailable", "SmoothTriple", "SoftmaxStage",
    "Stage", "StageConstants", "StageLin", "SymbolicConvPart", "SymbolicOnlyError",
    "Tape", "TrainConfig", "TrainTrace", "ZeroReg", "activation_layer",
    "audit_constants", "avgpool2d", "backward", "backward_formula", "batchnorm_layer",
    "build_arch", "build_lq", "catalog_constants", "certified_step",
    "cluster_objective", "conv1d", "conv2d", "count_backward_cost",
    "eval_convex_cluster", "eval_logistic", "eval_squared", "forward",
    "fully_connected", "generic_recursion", "get_activation", "grad_objective",
    "implicit_gradient", "implicit_smoothness", "input_smoothness", "jvp",
    "layer_second_contract", "layer_sparsity", "lemma_error_bound", "lm_min",
    "logistic_objective", "maxpool2d", "objective_smoothness", "operator_norm",
    "parse_arch", "parse_arch_text", "project_domain", "propagate_chain",
    "propagate_layers", "read_archfile", "recenter_domain", "refine_on_ball",
    "residual_wrap", "sample_params", "sample_state", "softmax_layer",
    "solve_dense_reference", "solve_gauss_newton_dual", "solve_gradient_step",
    "solve_inner", "solve_newton_dp", "squared_objective", "train_pgd", "train_sgd",
]


def test_package_all_is_exactly_the_public_names():
    assert sorted(chaincert.__all__) == PUBLIC
    assert len(set(chaincert.__all__)) == len(chaincert.__all__)
    for name in chaincert.__all__:
        assert getattr(chaincert, name) is not None, name
    star = {}
    exec("from chaincert import *", star)
    assert sorted(k for k in star if k != "__builtins__") == PUBLIC
    for gone in ("custom_layer", "lm_max", "lm_sum"):
        assert not hasattr(chaincert, gone)
    assert cli.__all__ == ["main"]
