"""Invariant backpropagation: small-network training with gradient-penalty
regularizers, tangent propagation, adversarial training, and the independent
verification suite that checks all of them against finite differences.

The top level holds the net, the training entry point and the errors callers
catch; everything else is imported from its module (see README's module map).
"""

__version__ = "0.1.0"

from .errors import ConfigError, FormatError, NumericError, ShapeError, StateError
from .network import Network
from .training import TrainConfig, fit

__all__ = [
    "ConfigError",
    "FormatError",
    "Network",
    "NumericError",
    "ShapeError",
    "StateError",
    "TrainConfig",
    "fit",
]
