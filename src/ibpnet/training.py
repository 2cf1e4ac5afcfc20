"""Training step procedures and the SGD-momentum optimizer.

Seven step kinds share the same first two passes (forward, loss, backward).
The regularized variants add passes over the network *linearized at the
current batch*:

* loss-ibp: one tangent push seeded by the gradient of an lp penalty on the
  input cotangent; auxiliary weight gradients come directly from contracting
  the pushed tangents with the cotangents cached by the main backward pass.
* pred-ibp / tbp: per tangent vector, a push to the prediction layer, an lp
  penalty there, and a pull back down accumulating auxiliary gradients.
  pred-ibp is exactly tbp with the input cotangent as its single tangent.
* fast-tbp: the dot-product auxiliary loss sum_k dy0 . t_k is linear in the
  tangents, so it equals dy0 . sum_k t_k: the tangents are summed first and
  the four-pass route becomes one push plus cached-cotangent contractions.
* at / fast-at: a second forward/backward at the adversarially shifted
  input; at averages both gradient sets, fast-at keeps only the second.

Auxiliary batch convention: main losses are batch means, so the input
cotangent dy0 carries a 1/batch factor. Penalties seeded by dy0 are already
batch means at r=1; at r=2 the step rescales by the batch size. Penalties of
ordinary (order-one) tangents are divided by the batch size instead.

Every algorithm funnels weight updates through the same optimizer code, so
the degenerate settings (beta=0, epsilon=0, zero tangents) reproduce plain
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
    squared_loss,
)
from .network import Network, batched_forward
from .tensor import rng_stream, sign

ALGOS = ("bp", "loss-ibp", "pred-ibp", "tbp", "fast-tbp", "at", "fast-at")
LOSSES = ("nll", "squared")


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
    skip_softmax: bool | None = None  # None resolves to the per-algo default
    loss: str = "nll"
    clip: bool = False

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algorithm {self.algo!r}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
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
        if self.skip_softmax is None:
            self.skip_softmax = self.algo in ("pred-ibp", "tbp")


@dataclass
class GradientSet:
    """Per-layer main gradients captured after a step, plus the auxiliary
    weight gradients of the regularized steps (None for bp, at, fast-at)."""

    dw: list = field(default_factory=list)
    db: list = field(default_factory=list)
    aux_dw: list | None = None

    @classmethod
    def capture(cls, net: Network, aux: bool = False) -> "GradientSet":
        layers = net.param_layers
        return cls(
            dw=[l.dw for l in layers],
            db=[l.db for l in layers],
            aux_dw=[l.aux_dw for l in layers] if aux else None,
        )

    def average(self, other: "GradientSet") -> "GradientSet":
        return GradientSet(
            dw=[(a + b) / 2.0 for a, b in zip(self.dw, other.dw)],
            db=[(a + b) / 2.0 for a, b in zip(self.db, other.db)],
        )


@dataclass
class StepResult:
    main_loss: float
    aux_loss: float
    grads: GradientSet


def _top_index(net: Network, cfg: TrainConfig) -> int:
    """Index bounding the backward pass: below a final softmax under the
    nll loss (the seed already contains its Jacobian), else the full stack."""
    if cfg.loss == "nll" and net.layers and isinstance(net.layers[-1], Softmax):
        return len(net.layers) - 1
    return len(net.layers)


def _forward_loss(net: Network, x, labels, cfg: TrainConfig, train: bool = True):
    """Forward pass and loss seed, no backward. Returns (L, seed, top_index)."""
    out = net.forward(x, train=train)
    top = _top_index(net, cfg)
    if cfg.loss == "squared":
        loss, seed = squared_loss(out, labels)
    elif top < len(net.layers):
        loss, seed = nll_from_probs(out, labels)
    else:
        loss, seed = nll_softmax_loss(out, labels)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss} in {cfg.algo} step")
    return loss, seed, top


def _main_passes(net: Network, x, labels, cfg: TrainConfig, train: bool = True):
    """Forward, loss, full backward. Returns (L, dy0, top_index)."""
    loss, seed, top = _forward_loss(net, x, labels, cfg, train)
    dy0 = net.vjp(seed, upto=top)
    return loss, dy0, top


def step_bp(net: Network, batch, cfg: TrainConfig):
    """Plain backpropagation: two passes, main gradients only."""
    x, labels = batch
    loss, _, _ = _main_passes(net, x, labels, cfg)
    return loss, GradientSet.capture(net)


def step_loss_ibp(net: Network, batch, cfg: TrainConfig):
    """Loss IBP: penalize the lp norm of the input cotangent dy0.

    The third pass pushes the penalty gradient forward through the
    linearized network (mirroring exactly the layers the backward pass
    traversed); auxiliary weight gradients are tangent-times-cotangent
    contractions, so no extra backward pass is needed.
    """
    x, labels = batch
    loss, dy0, top = _main_passes(net, x, labels, cfg)
    net.zero_aux()
    raw, seed = aux_loss_lp(dy0, cfg.r)
    if cfg.r == 2:
        # dy0 carries 1/batch; rescale so the penalty is the batch mean of
        # per-sample values and beta transfers across batch sizes
        n = x.shape[0]
        raw, seed = n * raw, n * seed
    net.jvp(seed, upto=top)
    net.aux_from_cot()
    return loss, raw, GradientSet.capture(net, aux=True)


def _tangent_lp_passes(net: Network, tangents, cfg: TrainConfig) -> float:
    """Shared pred-ibp / tbp machinery: per tangent, a linearized push to the
    prediction layer, an lp penalty there, and a linearized pull that
    accumulates auxiliary weight gradients. Returns the summed penalty."""
    total = 0.0
    for t in tangents:
        n = t.shape[0]
        out = net.jvp(t, skip_softmax=cfg.skip_softmax)
        raw, seed = aux_loss_direction(out, cfg.r)
        total += raw / n
        net.lin_vjp(seed / n, skip_softmax=cfg.skip_softmax)
    return total


def step_pred_ibp(net: Network, batch, cfg: TrainConfig):
    """Prediction IBP: tbp with the input cotangent as the single tangent."""
    x, labels = batch
    loss, dy0, _ = _main_passes(net, x, labels, cfg)
    net.zero_aux()
    aux = _tangent_lp_passes(net, [dy0], cfg)
    return loss, aux, GradientSet.capture(net, aux=True)


def step_tbp(net: Network, batch, tangents, cfg: TrainConfig):
    """Tangent propagation, original four-pass form, one push+pull per tangent."""
    x, labels = batch
    loss, _, _ = _main_passes(net, x, labels, cfg)
    net.zero_aux()
    aux = _tangent_lp_passes(net, tangents, cfg)
    return loss, aux, GradientSet.capture(net, aux=True)


def _sum_tangents(tangents) -> np.ndarray:
    """The tangents added in list order, as a fresh float64 array."""
    total = np.array(tangents[0], dtype=np.float64)
    for t in tangents[1:]:
        total += t
    return total


def step_fast_tbp(net: Network, batch, tangents, cfg: TrainConfig):
    """Tangent propagation via the dot-product auxiliary loss dy0 . tangent.

    The loss, the push and the cached-cotangent contractions are all linear
    in the tangent, so the summed tangent takes one forward push through the
    linearized network in place of one push per tangent. The auxiliary
    weight gradients reuse the cached main cotangents, saving the backward
    pass of the original form.
    """
    x, labels = batch
    loss, dy0, top = _main_passes(net, x, labels, cfg)
    net.zero_aux()
    aux, seed = aux_loss_dot(dy0, _sum_tangents(tangents))
    net.jvp(seed, upto=top)
    net.aux_from_cot()
    return loss, aux, GradientSet.capture(net, aux=True)


def adversarial_shift(x: np.ndarray, dy0: np.ndarray, epsilon: float,
                      clip: bool = False) -> np.ndarray:
    """x + epsilon * sign(dy0), optionally clipped to [0, 1]."""
    if epsilon == 0.0:
        return x
    xs = x + epsilon * sign(dy0)
    return np.clip(xs, 0.0, 1.0) if clip else xs


def step_at(net: Network, batch, cfg: TrainConfig):
    """Adversarial training: average the gradient sets at x and at the
    adversarially shifted x*."""
    x, labels = batch
    loss1, dy0, _ = _main_passes(net, x, labels, cfg)
    first = GradientSet.capture(net)
    xs = adversarial_shift(x, dy0, cfg.epsilon, cfg.clip)
    loss2, _, _ = _main_passes(net, xs, labels, cfg)
    second = GradientSet.capture(net)
    return (loss1 + loss2) / 2.0, first.average(second)


def step_fast_at(net: Network, batch, cfg: TrainConfig):
    """Fast adversarial training: the pass at x only supplies dy0, so it
    pulls through the frozen Jacobians without paying for weight-gradient
    contractions; weights are updated from the gradients at x* alone."""
    x, labels = batch
    _, seed, top = _forward_loss(net, x, labels, cfg)
    dy0 = net.vjp_linear(seed, upto=top)
    xs = adversarial_shift(x, dy0, cfg.epsilon, cfg.clip)
    loss, _, _ = _main_passes(net, xs, labels, cfg)
    return loss, GradientSet.capture(net)


def run_step(net: Network, batch, cfg: TrainConfig, tangents=None) -> StepResult:
    """Dispatch one training step; tangents are required for tbp variants."""
    if cfg.algo == "bp":
        loss, grads = step_bp(net, batch, cfg)
        return StepResult(loss, 0.0, grads)
    if cfg.algo == "loss-ibp":
        return StepResult(*step_loss_ibp(net, batch, cfg))
    if cfg.algo == "pred-ibp":
        return StepResult(*step_pred_ibp(net, batch, cfg))
    if cfg.algo in ("tbp", "fast-tbp"):
        if tangents is None:
            raise ConfigError(f"{cfg.algo} requires tangent vectors")
        step = step_tbp if cfg.algo == "tbp" else step_fast_tbp
        return StepResult(*step(net, batch, tangents, cfg))
    if cfg.algo == "at":
        loss, grads = step_at(net, batch, cfg)
        return StepResult(loss, 0.0, grads)
    loss, grads = step_fast_at(net, batch, cfg)
    return StepResult(loss, 0.0, grads)


class SgdMomentum:
    """Classical momentum: v <- m*v + g; w <- w - alpha_t*v, with the
    learning rate decayed per epoch as alpha * decay**epoch. The combined
    direction is g = dw + beta*aux_dw for weights and db for biases."""

    def __init__(self, net: Network, cfg: TrainConfig):
        self.cfg = cfg
        self.velocity = [
            (np.zeros_like(w), np.zeros_like(b)) for w, b in net.params()
        ]

    def lr_at(self, epoch: int) -> float:
        return self.cfg.alpha * self.cfg.decay ** epoch

    def update(self, net: Network, grads: GradientSet, epoch: int):
        lr = self.lr_at(epoch)
        m = self.cfg.momentum
        beta = self.cfg.beta
        aux = grads.aux_dw or [None] * len(grads.dw)
        for (w, b), (vw, vb), dw, db, adw in zip(
            net.params(), self.velocity, grads.dw, grads.db, aux
        ):
            # adding beta*0 could still flip signed zeros, so branch instead
            g = dw + beta * adw if adw is not None and beta != 0.0 and adw.any() else dw
            if not (np.isfinite(g).all() and np.isfinite(db).all()):
                raise NumericError("non-finite gradient in sgd update")
            vw *= m
            vw += g
            w -= lr * vw
            vb *= m
            vb += db
            b -= lr * vb


def sgd_update(net: Network, grads: GradientSet, cfg: TrainConfig, epoch: int,
               state: SgdMomentum | None = None):
    """Apply one update; without persistent state this is a zero-velocity step."""
    (state if state is not None else SgdMomentum(net, cfg)).update(net, grads, epoch)


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    mean_aux: float
    lr: float
    seconds: float
    test_error: float | None = None


def input_gradient(net: Network, x: np.ndarray, labels: np.ndarray,
                   loss: str = "nll", batch_size: int = 256) -> np.ndarray:
    """Loss gradient with respect to the inputs, evaluated with the network
    in inference mode (dropout off) and without writing any gradient
    buffers. labels must be one-hot."""
    cfg = TrainConfig(algo="bp", loss=loss)
    grads = []
    for lo in range(0, x.shape[0], batch_size):
        sl = slice(lo, lo + batch_size)
        _, seed, top = _forward_loss(net, x[sl], labels[sl], cfg, train=False)
        dy0 = net.vjp_linear(seed, upto=top)
        # undo the batch-mean factor so each row is that sample's own gradient
        grads.append(dy0 * dy0.shape[0])
    return np.concatenate(grads, axis=0)


def error_rate(net: Network, x: np.ndarray, labels: np.ndarray,
               batch_size: int = 256) -> float:
    """Fraction of samples whose argmax prediction misses the label.

    labels may be integer class ids or one-hot rows.
    """
    labels = np.asarray(labels)
    y = labels.argmax(axis=1) if labels.ndim == 2 else labels
    out = batched_forward(net, x, batch_size)
    return float((out.argmax(axis=1) != y).mean())


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
    if cfg.algo in ("tbp", "fast-tbp") and tangents is None:
        raise ConfigError(f"{cfg.algo} requires tangent vectors")
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
