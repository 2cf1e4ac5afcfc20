"""Invariant backpropagation: small-network training with gradient-penalty
regularizers, tangent propagation, adversarial training, and the independent
verification suite that checks all of them against finite differences.
"""

__version__ = "0.1.0"

from .datasets import (
    AugmentSpec,
    Dataset,
    augment_batch,
    load_cifar10,
    load_mnist,
    load_split_pair,
    subset,
)
from .errors import (
    ConfigError,
    FormatError,
    NumericError,
    ShapeError,
    StateError,
)
from .gradcheck import CheckReport, all_passed, format_reports, run_all_checks
from .layers import (
    Conv2D,
    Dropout,
    FullyConnected,
    MaxPool2D,
    MeanPool2D,
    ReLU,
    Sigmoid,
    Softmax,
)
from .losses import (
    aux_loss_direction,
    aux_loss_dot,
    aux_loss_lp,
    nll_from_probs,
    nll_softmax_loss,
    squared_loss,
)
from .network import Network, batched_forward, layer_from_spec
from .perturb import NoiseSweep, gaussian_testset, sweep
from .presets import PRESETS, acceptance_net, build_net, zoo_net
from .tangents import (
    TANGENT_NAMES,
    dataset_tangents,
    gaussian_smooth,
    load_or_build_tangents,
    tangent_vectors,
)
from .tensor import rng_stream
from .training import (
    ALGOS,
    EpochStats,
    GradientSet,
    SgdMomentum,
    StepResult,
    TrainConfig,
    adversarial_shift,
    error_rate,
    fit,
    input_gradient,
    run_step,
)

__all__ = [
    "ALGOS",
    "AugmentSpec",
    "CheckReport",
    "ConfigError",
    "Conv2D",
    "Dataset",
    "Dropout",
    "EpochStats",
    "FormatError",
    "FullyConnected",
    "GradientSet",
    "MaxPool2D",
    "MeanPool2D",
    "Network",
    "NoiseSweep",
    "NumericError",
    "PRESETS",
    "ReLU",
    "SgdMomentum",
    "ShapeError",
    "Sigmoid",
    "Softmax",
    "StateError",
    "StepResult",
    "TANGENT_NAMES",
    "TrainConfig",
    "acceptance_net",
    "adversarial_shift",
    "all_passed",
    "augment_batch",
    "aux_loss_direction",
    "aux_loss_dot",
    "aux_loss_lp",
    "batched_forward",
    "build_net",
    "dataset_tangents",
    "error_rate",
    "fit",
    "format_reports",
    "gaussian_smooth",
    "gaussian_testset",
    "input_gradient",
    "layer_from_spec",
    "load_cifar10",
    "load_mnist",
    "load_or_build_tangents",
    "load_split_pair",
    "nll_from_probs",
    "nll_softmax_loss",
    "rng_stream",
    "run_all_checks",
    "run_step",
    "squared_loss",
    "subset",
    "sweep",
    "tangent_vectors",
    "zoo_net",
]
