"""Training step procedures and the SGD-momentum optimizer.

Seven step kinds share the same first two passes (forward, loss, backward);
the backward stops at the lowest weight layer unless the step reads the input
cotangent dy0. The regularized variants add passes over the network
*linearized at the current batch*:

* loss-ibp: one tangent push seeded by the gradient of an lp penalty on the
  input cotangent; the auxiliary weight gradient contracts the pushed
  tangents with the cotangents cached by the main backward pass, folded into
  dw by one contraction of x + beta * tangent per weight layer.
* pred-ibp / tbp: per tangent vector, a push to the prediction layer, an lp
  penalty there, and a pull of beta times its gradient that records a term
  per weight layer: the pull's rows on an FC layer, their contraction on a
  conv layer. The main backward leaves dw to the end of the step, where one
  weight_grad_sum per weight layer adds the terms to the main contraction,
  on an FC layer as one stacked GEMM. The prediction layer is where
  the loss is seeded (the logits under nll, below a final softmax), so
  every pass runs over the same layers. pred-ibp is exactly tbp with dy0 as
  its one tangent.
* fast-tbp: the dot-product auxiliary loss sum_k dy0 . t_k is linear in the
  tangents, so it equals dy0 . sum_k t_k: the tangents are summed first and
  the four-pass route becomes one push plus the folded contractions.
* at / fast-at: a second forward/backward at x + epsilon * sign(dy0), not
  clipped; at averages both gradient sets, fast-at keeps only the second.

Auxiliary batch convention: main losses are batch means, so the input
cotangent dy0 carries a 1/batch factor. Penalties seeded by dy0 are already
batch means at r=1; at r=2 the step rescales by the batch size. Penalties of
ordinary (order-one) tangents are divided by the batch size instead.

Every step takes (net, batch, cfg, tangents=None) and returns a StepResult
whose dw is the one update direction, with beta * aux folded in. The
degenerate settings (beta=0, epsilon=0, zero tangents) reproduce plain
backpropagation bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .layers import Softmax
from .losses import (
    aux_loss_direction,
    aux_loss_dot,
    aux_loss_lp,
    nll_from_probs,
    nll_softmax_loss,
    # not called here, but perfbench's probe table patches training.squared_loss
    squared_loss,
)
from .network import Network, batched_forward
from .tensor import rng_stream, sign

ALGOS = ("bp", "loss-ibp", "pred-ibp", "tbp", "fast-tbp", "at", "fast-at")
# the algorithms that read beta, r, tangent vectors and epsilon
REGULARIZED = ("loss-ibp", "pred-ibp", "tbp", "fast-tbp")
LP_ALGOS = ("loss-ibp", "pred-ibp", "tbp")
TANGENT_ALGOS = ("tbp", "fast-tbp")
ADVERSARIAL = ("at", "fast-at")


@dataclass
class TrainConfig:
    """Hyperparameters of one training run."""

    algo: str = "bp"
    alpha: float = 0.1
    beta: float = 0.0
    epsilon: float = 0.0
    r: int = 1
    momentum: float = 0.9
    decay: float = 0.98
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algorithm {self.algo!r}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0 or self.epsilon < 0:
            raise ConfigError("beta and epsilon must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 < self.decay <= 1:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")
        if self.r not in (1, 2):
            raise ConfigError(f"r must be 1 or 2, got {self.r}")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")


@dataclass
class GradientSet:
    """Per-layer gradients captured after a step; dw has beta * aux folded in."""

    dw: list = field(default_factory=list)
    db: list = field(default_factory=list)

    @classmethod
    def capture(cls, net: Network) -> "GradientSet":
        layers = net.param_layers
        return cls(dw=[l.dw for l in layers], db=[l.db for l in layers])

    def average(self, other: "GradientSet") -> "GradientSet":
        """In place, bitwise (a + b) / 2.0; self must own its arrays."""
        for a, b in zip(self.dw + self.db, other.dw + other.db):
            a += b
            a /= 2.0
        return self


@dataclass
class StepResult:
    main_loss: float
    aux_loss: float
    grads: GradientSet


def _top_index(net: Network) -> int:
    """Index bounding the backward pass: below a final softmax (the nll seed
    already contains its Jacobian), else the full stack."""
    if net.layers and isinstance(net.layers[-1], Softmax):
        return len(net.layers) - 1
    return len(net.layers)


def _forward_loss(net: Network, x, labels, cfg: TrainConfig, train: bool = True):
    """Forward pass and loss seed, no backward. Returns (L, seed, top_index)."""
    return _loss_seed(net, net.forward(x, train=train), labels, cfg.algo)


def _loss_seed(net: Network, out, labels, caller: str):
    """Loss and backward seed at the network output out; caller names the
    computation in an error. Returns (L, seed, top_index)."""
    top = _top_index(net)
    if top < len(net.layers):
        loss, seed = nll_from_probs(out, labels)
    else:
        loss, seed = nll_softmax_loss(out, labels)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss} in {caller}")
    return loss, seed, top


def _main_passes(net: Network, x, labels, cfg: TrainConfig, train: bool = True,
                 pull: bool = True, fold: bool = False):
    """Forward, loss, backward (see Network.vjp); fold leaves dw and db to
    Network.aux_from_cot. Returns (L, dy0, top_index)."""
    loss, seed, top = _forward_loss(net, x, labels, cfg, train)
    dy0 = net.vjp(seed, upto=top, pull=pull, _dw=not fold)
    return loss, dy0, top


def step_bp(net: Network, batch, cfg: TrainConfig, tangents=None) -> StepResult:
    """Plain backpropagation: two passes, main gradients only."""
    x, labels = batch
    loss, _, _ = _main_passes(net, x, labels, cfg, pull=False)
    return StepResult(loss, 0.0, GradientSet.capture(net))


def step_loss_ibp(net: Network, batch, cfg: TrainConfig, tangents=None) -> StepResult:
    """Loss IBP: penalize the lp norm of the input cotangent dy0.

    The third pass pushes the penalty gradient forward through the
    linearized network (mirroring exactly the layers the backward pass
    traversed); one contraction of x + beta * tangent with the cached
    cotangent per weight layer then gives dw + beta * aux.
    """
    x, labels = batch
    loss, dy0, top = _main_passes(net, x, labels, cfg, fold=True)
    raw, seed = aux_loss_lp(dy0, cfg.r)
    if cfg.r == 2:
        # dy0 carries 1/batch; rescale so the penalty is the batch mean of
        # per-sample values and beta transfers across batch sizes
        n = x.shape[0]
        raw, seed = n * raw, n * seed
    net.jvp(seed, upto=top)
    net.aux_from_cot(cfg.beta)
    return StepResult(loss, raw, GradientSet.capture(net))


def _tangent_lp_passes(net: Network, tangents, cfg: TrainConfig, top: int) -> float:
    """Shared pred-ibp / tbp machinery: per tangent, a linearized push through
    layers[:top] (the logits under nll), an lp penalty there, and a pull of
    beta times its gradient over the same layers, recorded for the one
    contraction per weight layer that then forms dw; no pull at beta 0 or
    for a zero seed. Returns the summed penalty."""
    total = 0.0
    for t in tangents:
        n = t.shape[0]
        out = net.jvp(t, upto=top)
        raw, seed = aux_loss_direction(out, cfg.r)
        total += raw / n
        if cfg.beta != 0.0 and seed.any():
            net.lin_vjp(cfg.beta * seed / n, upto=top)
    net.aux_from_cot(0.0)  # the pulls carry beta
    return total


def step_pred_ibp(net: Network, batch, cfg: TrainConfig, tangents=None) -> StepResult:
    """Prediction IBP: tbp with the input cotangent as the single tangent."""
    x, labels = batch
    loss, dy0, top = _main_passes(net, x, labels, cfg, fold=True)
    aux = _tangent_lp_passes(net, [dy0], cfg, top)
    return StepResult(loss, aux, GradientSet.capture(net))


def step_tbp(net: Network, batch, cfg: TrainConfig, tangents=None) -> StepResult:
    """Tangent propagation, original four-pass form, one push+pull per tangent."""
    x, labels = batch
    loss, _, top = _main_passes(net, x, labels, cfg, pull=False, fold=True)
    aux = _tangent_lp_passes(net, tangents, cfg, top)
    return StepResult(loss, aux, GradientSet.capture(net))


def _sum_tangents(tangents) -> np.ndarray:
    """The tangents added in list order, as a fresh float64 array."""
    total = np.array(tangents[0], dtype=np.float64)
    for t in tangents[1:]:
        total += t
    return total


def step_fast_tbp(net: Network, batch, cfg: TrainConfig, tangents=None) -> StepResult:
    """Tangent propagation via the dot-product auxiliary loss dy0 . tangent.

    The loss, the push and the cached-cotangent contractions are all linear
    in the tangent, so the summed tangent takes one forward push through the
    linearized network in place of one push per tangent. The auxiliary
    weight gradients reuse the cached main cotangents, saving the backward
    pass of the original form, and are folded into dw as in loss-ibp.
    """
    x, labels = batch
    loss, dy0, top = _main_passes(net, x, labels, cfg, fold=True)
    aux, seed = aux_loss_dot(dy0, _sum_tangents(tangents))
    net.jvp(seed, upto=top)
    net.aux_from_cot(cfg.beta)
    return StepResult(loss, aux, GradientSet.capture(net))


def adversarial_shift(x: np.ndarray, dy0: np.ndarray, epsilon: float) -> np.ndarray:
    """x + epsilon * sign(dy0)."""
    if epsilon == 0.0:
        return x
    return x + epsilon * sign(dy0)


def step_at(net: Network, batch, cfg: TrainConfig, tangents=None) -> StepResult:
    """Adversarial training: average the gradient sets at x and at the
    adversarially shifted x*."""
    x, labels = batch
    loss1, dy0, _ = _main_passes(net, x, labels, cfg)
    first = GradientSet.capture(net)
    xs = adversarial_shift(x, dy0, cfg.epsilon)
    loss2, _, _ = _main_passes(net, xs, labels, cfg, pull=False)
    return StepResult((loss1 + loss2) / 2.0, 0.0, first.average(GradientSet.capture(net)))


def step_fast_at(net: Network, batch, cfg: TrainConfig, tangents=None) -> StepResult:
    """Fast adversarial training: the pass at x only supplies dy0, so it
    pulls through the frozen Jacobians without paying for weight-gradient
    contractions; weights are updated from the gradients at x* alone."""
    x, labels = batch
    _, seed, top = _forward_loss(net, x, labels, cfg)
    dy0 = net.vjp_linear(seed, upto=top)
    xs = adversarial_shift(x, dy0, cfg.epsilon)
    loss, _, _ = _main_passes(net, xs, labels, cfg, pull=False)
    return StepResult(loss, 0.0, GradientSet.capture(net))


STEPS = {
    "bp": step_bp, "loss-ibp": step_loss_ibp, "pred-ibp": step_pred_ibp,
    "tbp": step_tbp, "fast-tbp": step_fast_tbp, "at": step_at, "fast-at": step_fast_at,
}


def _require_tangents(cfg: TrainConfig, tangents) -> None:
    if tangents is None and cfg.algo in TANGENT_ALGOS:
        raise ConfigError(f"{cfg.algo} requires tangent vectors")


def run_step(net: Network, batch, cfg: TrainConfig, tangents=None) -> StepResult:
    """Dispatch one training step; tangents are required for tbp variants."""
    _require_tangents(cfg, tangents)
    return STEPS[cfg.algo](net, batch, cfg, tangents)


class SgdMomentum:
    """Classical momentum on a step's dw and db: v <- m*v + g, w <- w - lr*v,
    with lr = alpha * decay**epoch.

    The first update of each epoch but the run's first, after moving the
    weights, zeroes the velocity entries below the dtype's smallest normal
    value. A velocity whose gradient stays zero (a dead unit's weights)
    decays into subnormal values, where m*v rounds back to v for the
    smallest, and subnormal arithmetic makes every update several times
    slower. lr*v of such a velocity moves no weight above about 1e-30."""

    def __init__(self, net: Network, cfg: TrainConfig):
        self.cfg = cfg
        self.velocity = [
            (np.zeros_like(w), np.zeros_like(b)) for w, b in net.params()
        ]
        self.epoch = None  # of the latest update

    def lr_at(self, epoch: int) -> float:
        return self.cfg.alpha * self.cfg.decay ** epoch

    def update(self, net: Network, grads: GradientSet, epoch: int):
        lr = self.lr_at(epoch)
        m = self.cfg.momentum
        flush = self.epoch is not None and epoch != self.epoch
        self.epoch = epoch
        for (w, b), (vw, vb), dw, db in zip(net.params(), self.velocity, grads.dw, grads.db):
            if not (np.isfinite(dw).all() and np.isfinite(db).all()):
                raise NumericError("non-finite gradient in sgd update")
            vw *= m
            vw += dw
            w -= lr * vw
            vb *= m
            vb += db
            b -= lr * vb
            if flush:
                for v in (vw, vb):
                    v[np.abs(v) < np.finfo(v.dtype).tiny] = 0.0


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    mean_aux: float
    lr: float
    seconds: float
    test_error: float | None = None


def input_gradient(net: Network, x: np.ndarray, labels: np.ndarray,
                   batch_size: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Loss gradient with respect to the inputs, evaluated with the network
    in inference mode (dropout off) and without writing any gradient
    buffers. labels must be one-hot. Returns (grad, network output at x);
    grad is written batch by batch into one array in the net's dtype."""
    grad, outs = None, []
    for lo in range(0, x.shape[0], batch_size):
        sl = slice(lo, lo + batch_size)
        outs.append(net.forward(x[sl], train=False))
        _, seed, top = _loss_seed(net, outs[-1], labels[sl], "input_gradient")
        dy0 = net.vjp_linear(seed, upto=top)
        if grad is None:
            grad = np.empty(x.shape[:1] + dy0.shape[1:], dtype=dy0.dtype)
        # undo the batch-mean factor so each row is that sample's own gradient
        np.multiply(dy0, dy0.shape[0], out=grad[sl])
        if not np.isfinite(grad[sl]).all():
            raise NumericError("non-finite input gradient in input_gradient")
    return grad, np.concatenate(outs, axis=0)


def output_error(out: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows of out whose argmax misses the label.

    labels may be integer class ids or one-hot rows.
    """
    labels = np.asarray(labels)
    y = labels.argmax(axis=1) if labels.ndim == 2 else labels
    return float((out.argmax(axis=1) != y).mean())


def error_rate(net: Network, x: np.ndarray, labels: np.ndarray,
               batch_size: int = 256) -> float:
    """output_error of the batched inference forward over x."""
    return output_error(batched_forward(net, x, batch_size), labels)


def fit(net: Network, x: np.ndarray, labels: np.ndarray, cfg: TrainConfig,
        tangents: np.ndarray | None = None, eval_set=None, log=None,
        batch_transform=None):
    """Train net in place; returns per-epoch statistics.

    labels must be one-hot (N, K). tangents, when given, is (N, T, ...) with
    one slot per transformation; they are indexed alongside the inputs and
    not affected by batch_transform, which maps each image batch to its
    trained substitute (augmentation). Identical seeds and configs give
    identical weight trajectories. eval_set is an optional (x_test, y_test)
    pair scored after every epoch.
    """
    n = x.shape[0]
    if labels.shape[0] != n:
        raise ConfigError(f"labels count {labels.shape[0]} != inputs {n}")
    _require_tangents(cfg, tangents)
    opt = SgdMomentum(net, cfg)
    shuffle = rng_stream(cfg.seed, "shuffle")
    history = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        perm = shuffle.permutation(n)
        losses, auxes = [], []
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            batch_tan = None
            if tangents is not None:
                tb = tangents[idx]
                batch_tan = [tb[:, k] for k in range(tb.shape[1])]
            xb = x[idx] if batch_transform is None else batch_transform(x[idx])
            res = run_step(net, (xb, labels[idx]), cfg, batch_tan)
            opt.update(net, res.grads, epoch)
            losses.append(res.main_loss)
            auxes.append(res.aux_loss)
        stats = EpochStats(
            epoch=epoch,
            mean_loss=float(np.mean(losses)),
            mean_aux=float(np.mean(auxes)),
            lr=opt.lr_at(epoch),
            seconds=time.perf_counter() - t0,
        )
        if eval_set is not None:
            stats.test_error = error_rate(net, eval_set[0], eval_set[1])
        history.append(stats)
        if log is not None:
            log(stats)
    return history
