"""Where the tracer wraps ibpnet: one span family per module boundary.

Every name is looked up where its caller finds it at run time:

* the tensor kernels as bound in ``ibpnet.layers`` (``layers.py`` imports them
  by name, so patching ``ibpnet.tensor`` would miss every call);
* the pass methods of each ``Layer`` subclass, and the base-class
  ``Layer.lin_vjp`` that the parameter-free layers inherit;
* the ``Network`` pass loops;
* ``training.run_step`` (``fit`` looks it up as a module global),
  ``SgdMomentum.update`` and the loss and seed functions as ``training``
  binds them;
* ``tangents.load_or_build_tangents``, ``datasets.load_split_pair`` and
  ``datasets.augment_batch`` (the benchmark calls them through their modules,
  as the CLI would);
* ``input_gradient`` and ``error_rate`` as ``ibpnet.perturb`` binds them.

``zero_aux``, ``GradientSet.capture`` and the step dispatch stay unwrapped:
their cost is the step's own self time (``training.other_ms``).
"""

from __future__ import annotations

from spans import Tracer

KERNELS = (
    "conv2d", "conv2d_weight_grad", "conv2d_input_grad",
    "maxpool_forward", "maxpool_scatter", "maxpool_gather",
    "meanpool_forward", "meanpool_backward",
)
LAYER_PASSES = ("forward", "vjp", "jvp", "lin_vjp", "vjp_linear", "aux_from_cot")
NETWORK_PASSES = ("forward", "vjp", "vjp_linear", "jvp", "lin_vjp", "aux_from_cot")
LOSS_FUNCS = (
    "nll_softmax_loss", "nll_from_probs", "squared_loss",
    "aux_loss_lp", "aux_loss_direction", "aux_loss_dot",
)
LAYER_KINDS = {
    "FullyConnected": "fc", "Conv2D": "conv", "ReLU": "relu",
    "Sigmoid": "sigmoid", "Softmax": "softmax", "MaxPool2D": "maxpool",
    "MeanPool2D": "meanpool", "Dropout": "dropout",
}


def _layer_namer(pass_name: str):
    names = {kind: f"layers.{kind}.{pass_name}" for kind in LAYER_KINDS.values()}
    return lambda layer: names[LAYER_KINDS[type(layer).__name__]]


def instrument(tracer: Tracer):
    """Wrap every boundary listed in the module docstring; undo with
    tracer.restore()."""
    from ibpnet import datasets, layers, network, perturb, tangents, training

    for k in KERNELS:
        tracer.patch(layers, k, f"tensor.{k}")
    for cls in [layers.Layer] + [getattr(layers, n) for n in LAYER_KINDS]:
        for p in LAYER_PASSES:
            if p in vars(cls):
                tracer.patch_method(cls, p, _layer_namer(p))
    for p in NETWORK_PASSES:
        tracer.patch_method(network.Network, p, lambda net, n=f"network.{p}": n)
    tracer.patch(training, "run_step", "training.run_step")
    tracer.patch_method(training.SgdMomentum, "update",
                        lambda opt: "training.sgd_update")
    for f in LOSS_FUNCS:
        tracer.patch(training, f, f"losses.{f}")
    tracer.patch(tangents, "load_or_build_tangents", "tangents.load_or_build_tangents")
    tracer.patch(datasets, "load_split_pair", "datasets.load_split_pair")
    tracer.patch(datasets, "augment_batch", "datasets.augment_batch")
    tracer.patch(perturb, "input_gradient", "perturb.input_gradient")
    tracer.patch(perturb, "error_rate", "training.error_rate")
