"""Main losses and the auxiliary losses whose gradients seed extra passes.

Main losses average over the batch so that learning-rate and regularizer
weights transfer across batch sizes. The auxiliary lp helpers are raw (no
batch factor); the training steps apply the batch convention where needed.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError
from .tensor import lp_norm


def _check_pair(a: np.ndarray, b: np.ndarray, op: str):
    if a.shape != b.shape:
        raise ShapeError(f"{op} operands differ in shape: {a.shape} vs {b.shape}")


def nll_softmax_loss(logits: np.ndarray, labels: np.ndarray):
    """Softmax combined with negative log-likelihood, averaged over the batch.

    Returns (L, dy) with dy = (softmax(logits) - labels) / batch, the exact
    gradient of L with respect to the logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    _check_pair(logits, labels, "nll_softmax_loss")
    if not np.isfinite(logits).all():
        raise NumericError("nll_softmax_loss received non-finite logits")
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -float((labels * log_p).sum()) / n
    dy = (np.exp(log_p) - labels) / n
    return loss, dy


def nll_from_probs(probs: np.ndarray, labels: np.ndarray):
    """Negative log-likelihood on probabilities that came out of a softmax
    layer. Returns (L, dy_pre) where dy_pre = (p - labels) / batch is the
    loss gradient at the softmax *input*, so the backward pass is seeded
    below the softmax and never divides by p.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    _check_pair(probs, labels, "nll_from_probs")
    n = probs.shape[0]
    picked = (probs * labels).sum(axis=1)
    with np.errstate(divide="ignore"):
        loss = -float(np.log(picked).sum()) / n
    if not np.isfinite(loss):
        raise NumericError("nll_from_probs: zero probability at a labeled class")
    return loss, (probs - labels) / n


def squared_loss(pred: np.ndarray, target: np.ndarray):
    """Half squared error averaged over the batch; dy = (pred - target)/batch."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_pair(pred, target, "squared_loss")
    n = pred.shape[0]
    diff = pred - target
    return float(0.5 * (diff * diff).sum()) / n, diff / n


def aux_loss_lp(dy0: np.ndarray, r: int):
    """lp penalty of an input-gradient tensor: (1/r)||dy0||_r^r.

    The seed is the exact gradient: sign(dy0) for r=1, dy0 itself for r=2.
    """
    dy0 = np.asarray(dy0, dtype=np.float64)
    if r == 1:
        return lp_norm(dy0, 1), np.sign(dy0)
    return lp_norm(dy0, 2), dy0.copy()


def aux_loss_direction(pred_jvp: np.ndarray, r: int):
    """lp penalty of a prediction sensitivity (the linearized-pass output).

    Same functional form as aux_loss_lp; the returned seed is pulled
    backward through the linearized network rather than pushed forward.
    """
    return aux_loss_lp(pred_jvp, r)


def aux_loss_dot(dy0: np.ndarray, tangent: np.ndarray):
    """Dot-product auxiliary loss dy0 . tangent; its seed is the tangent."""
    dy0 = np.asarray(dy0, dtype=np.float64)
    tangent = np.asarray(tangent, dtype=np.float64)
    _check_pair(dy0, tangent, "aux_loss_dot")
    return float((dy0 * tangent).sum()), tangent
