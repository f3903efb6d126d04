"""Graph-regularized image denoiser with an unrolled conjugate-gradient solver.

The pipeline builds a generalized bilateral smoother from per-pixel
features, normalizes it symmetrically, realizes the regularized linear
system as a truncated Taylor polynomial of the smoother, and solves it with
a fixed-depth unrolled CG network whose small parameter set (metric factor,
polynomial coefficients, per-depth step scalars) is trained end to end.
"""

from .cg_unroll import CgConfig, CgTrace, calibrate_cg_params, learned_cg_vjp, unrolled_cg
from .compiled import CompiledFilter, compile_filter, compiled_filter_vjp, network_response
from .errors import (
    CliUsageError,
    DegenerateMatrixError,
    GraphDenoiseError,
    ImageFormatError,
    InvalidInputError,
    NumericDivergenceError,
)
from .graph_filter import (
    FEATURE_DIM,
    DenoiserOperator,
    SparseFilterMatrix,
    bilateral_factor,
    build_filter_matrix,
    central_gradients,
    estimate_spectrum,
    extract_features,
    normalize,
    window_blocks,
)
from .imaging import (
    GrayImage,
    PatchGrid,
    add_awgn,
    load_image,
    partition,
    psnr,
    reassemble,
    save_image,
    synthesize_image,
)
from .taylor_system import TaylorSystemOperator, default_coefficients
from .train import (
    EdgeOuterSum,
    EpochStats,
    ParamVector,
    PipelineConfig,
    TrainState,
    adam_step,
    build_system,
    calibrated_initial,
    evaluate_psnr,
    forward,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    train_loop,
    write_text_durably,
)

__version__ = "0.1.0"

__all__ = [
    "CgConfig",
    "CgTrace",
    "CliUsageError",
    "CompiledFilter",
    "DegenerateMatrixError",
    "DenoiserOperator",
    "EdgeOuterSum",
    "EpochStats",
    "FEATURE_DIM",
    "GrayImage",
    "GraphDenoiseError",
    "ImageFormatError",
    "InvalidInputError",
    "NumericDivergenceError",
    "ParamVector",
    "PatchGrid",
    "PipelineConfig",
    "SparseFilterMatrix",
    "TaylorSystemOperator",
    "TrainState",
    "adam_step",
    "add_awgn",
    "bilateral_factor",
    "build_filter_matrix",
    "build_system",
    "calibrate_cg_params",
    "calibrated_initial",
    "central_gradients",
    "compile_filter",
    "compiled_filter_vjp",
    "default_coefficients",
    "estimate_spectrum",
    "evaluate_psnr",
    "extract_features",
    "forward",
    "learned_cg_vjp",
    "load_checkpoint",
    "load_image",
    "loss_and_grad",
    "network_response",
    "normalize",
    "partition",
    "psnr",
    "reassemble",
    "save_checkpoint",
    "save_image",
    "synthesize_image",
    "train_loop",
    "unrolled_cg",
    "window_blocks",
    "write_text_durably",
]
