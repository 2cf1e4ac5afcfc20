"""Independent gradient verification: finite differences, layer pass
identities, route equivalences, the adversarial first-order check, and the
single-neuron noise-injection identity.

Reference values never come from the layer vjp/jvp code paths. Main-loss
gradients are checked against central differences of plain forward
evaluations. Auxiliary gradients are checked against central differences of
the function the algorithms actually differentiate: the penalty evaluated on
a *frozen* linearization of the network, in which data-dependent pieces
(relu masks, max positions, softmax Jacobians, dropout masks, penalty
seeds, adversarial points) are constants captured at the base weights and
only the explicit weight-matrix factors vary. The frozen chain is re-applied
here with loop/einsum arithmetic of its own.

Relative errors compare per coordinate against max(|a|, |b|) with a floor of
1% of the tensor's largest magnitude, so dominant coordinates are compared
relatively and near-zero ones absolutely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
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
from .losses import aux_loss_direction, aux_loss_dot, aux_loss_lp
from .network import Network
from .tensor import rng_stream
from .training import (
    TrainConfig,
    _forward_loss,
    _main_passes,
    adversarial_shift,
    _sum_tangents,
)

# r=1 penalties take absolute values; coordinates whose base magnitude is
# within this of the kink at zero are excluded from finite-difference
# comparisons on both sides (shared convention with the training steps)
KINK_EPS = 1e-7


@dataclass
class CheckReport:
    """Outcome of one verification: worst relative error against tolerance."""

    name: str
    max_rel_err: float
    tol: float
    passed: bool
    worst: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  [{self.worst}]" if self.worst else ""
        return f"{status}  {self.name:<38} max_rel_err={self.max_rel_err:.3e}  tol={self.tol:.0e}{tail}"


def rel_error(a: np.ndarray, b: np.ndarray):
    """(max relative error, flat index of the worst coordinate)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    floor = max(0.01 * scale, 1e-12)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    d = np.abs(a - b) / denom
    idx = int(d.argmax())
    return float(d.flat[idx]), idx


def compare_tensors(name: str, pairs, tol: float) -> CheckReport:
    """pairs: iterable of (label, candidate, reference) tensor triples."""
    worst_err, worst_label = 0.0, ""
    for label, a, b in pairs:
        err, idx = rel_error(a, b)
        if err >= worst_err:
            worst_err, worst_label = err, f"{label}[{idx}]"
    return CheckReport(name, worst_err, tol, worst_err <= tol, worst_label)


# ---------------------------------------------------------------------------
# Finite differences over weights
# ---------------------------------------------------------------------------

def fd_weight_grad(net: Network, eval_fn, h: float = 1e-5, biases: bool = True):
    """Central difference of eval_fn() per weight entry; eval_fn must read
    the network's current parameters. Returns (dw_list, db_list)."""
    dws, dbs = [], []
    for layer in net.param_layers:
        arrays = (layer.w, layer.b) if biases else (layer.w,)
        grads = []
        for arr in arrays:
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = eval_fn()
                flat[i] = orig - h
                fm = eval_fn()
                flat[i] = orig
                g.flat[i] = (fp - fm) / (2.0 * h)
            grads.append(g)
        dws.append(grads[0])
        dbs.append(grads[1] if biases else np.zeros_like(layer.b))
    return dws, dbs


# ---------------------------------------------------------------------------
# Frozen linearization with oracle-side arithmetic
# ---------------------------------------------------------------------------

def _oracle_conv(x, w, pad, stride):
    n, c, hh, ww = x.shape
    f, _, kh, kw = w.shape
    ph, pw = pad
    sh, sw = stride
    ho = (hh + 2 * ph - kh) // sh + 1
    wo = (ww + 2 * pw - kw) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, f, ho, wo))
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
            out += np.einsum("nchw,fc->nfhw", xs, w[:, :, i, j])
    return out


def _oracle_conv_transpose(dy, w, pad, stride, in_hw):
    n, f, ho, wo = dy.shape
    _, c, kh, kw = w.shape
    ph, pw = pad
    sh, sw = stride
    hh, ww = in_hw
    dxp = np.zeros((n, c, hh + 2 * ph, ww + 2 * pw))
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += np.einsum(
                "nfhw,fc->nchw", dy, w[:, :, i, j]
            )
    return dxp[:, :, ph:ph + hh, pw:pw + ww]


def _oracle_gather(v, argmax, in_hw):
    n, c, ho, wo = argmax.shape
    flat = v.reshape(n, c, in_hw[0] * in_hw[1])
    out = np.zeros((n, c, ho, wo))
    for b in range(n):
        for ch in range(c):
            out[b, ch] = flat[b, ch][argmax[b, ch]]
    return out


def _oracle_scatter(dy, argmax, in_hw):
    n, c, ho, wo = dy.shape
    dx = np.zeros((n, c, in_hw[0] * in_hw[1]))
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    dx[b, ch, argmax[b, ch, i, j]] += dy[b, ch, i, j]
    return dx.reshape(n, c, *in_hw)


def _mean_windows(in_hw, window, stride):
    h, w = in_hw
    kh, kw = window
    sh, sw = stride
    ho = min(-((h - kh) // -sh) + 1, (h - 1) // sh + 1)
    wo = min(-((w - kw) // -sw) + 1, (w - 1) // sw + 1)
    for i in range(ho):
        for j in range(wo):
            r0, c0 = i * sh, j * sw
            yield i, j, r0, min(r0 + kh, h), c0, min(c0 + kw, w)


def _oracle_meanpool(v, window, stride):
    slots = list(_mean_windows(v.shape[2:], window, stride))
    ho = max(s[0] for s in slots) + 1
    wo = max(s[1] for s in slots) + 1
    out = np.zeros(v.shape[:2] + (ho, wo))
    for i, j, r0, r1, c0, c1 in slots:
        out[:, :, i, j] = v[:, :, r0:r1, c0:c1].mean(axis=(2, 3))
    return out


def _oracle_meanpool_transpose(dy, window, stride, in_hw):
    dx = np.zeros(dy.shape[:2] + tuple(in_hw))
    for i, j, r0, r1, c0, c1 in _mean_windows(in_hw, window, stride):
        count = (r1 - r0) * (c1 - c0)
        dx[:, :, r0:r1, c0:c1] += dy[:, :, i, j][:, :, None, None] / count
    return dx


class FrozenChain:
    """The network linearized at one batch, with all data-dependent pieces
    captured as constants; push/pull re-apply it with oracle arithmetic.

    Weight matrices are read live from the layers at every evaluation, so
    finite-difference perturbations of the weights are visible while the
    frozen Jacobian structure is not re-derived.
    """

    def __init__(self, net: Network, x, upto: int | None = None,
                 skip_softmax: bool = False):
        self.records = []
        a = np.asarray(x, dtype=np.float64)
        for layer in net.layers[:upto]:
            if isinstance(layer, FullyConnected):
                self.records.append(("fc", layer, a.shape))
            elif isinstance(layer, Conv2D):
                self.records.append(("conv", layer, a.shape[2:]))
            elif isinstance(layer, ReLU):
                self.records.append(("diag", (a > 0.0).astype(np.float64)))
            elif isinstance(layer, Sigmoid):
                y = layer.forward(a)
                self.records.append(("diag", y * (1.0 - y)))
            elif isinstance(layer, Softmax):
                if not skip_softmax:
                    self.records.append(("softmax", layer.forward(a).copy()))
            elif isinstance(layer, MaxPool2D):
                out, argmax = layer.forward(a), layer.argmax.copy()
                self.records.append(("maxpool", argmax, a.shape[2:]))
                a = out
                continue
            elif isinstance(layer, MeanPool2D):
                self.records.append(("meanpool", layer.window, layer.stride, a.shape[2:]))
            elif isinstance(layer, Dropout):
                mask = layer.mask if layer.mask is not None else np.ones_like(a)
                self.records.append(("diag", mask.copy()))
            else:
                raise ConfigError(f"frozen chain cannot handle {type(layer).__name__}")
            a = layer.forward(a)

    def push(self, t: np.ndarray) -> np.ndarray:
        """Bias-free forward through the frozen chain."""
        t = np.asarray(t, dtype=np.float64)
        for rec in self.records:
            kind = rec[0]
            if kind == "fc":
                t = t.reshape(t.shape[0], -1) @ rec[1].w
            elif kind == "conv":
                t = _oracle_conv(t, rec[1].w, rec[1].pad, rec[1].stride)
            elif kind == "diag":
                t = t * rec[1]
            elif kind == "softmax":
                y = rec[1]
                t = y * (t - (y * t).sum(axis=1, keepdims=True))
            elif kind == "maxpool":
                t = _oracle_gather(t, rec[1], rec[2])
            else:
                t = _oracle_meanpool(t, rec[1], rec[2])
        return t

    def pull(self, s: np.ndarray) -> np.ndarray:
        """Transposed chain, top to bottom."""
        s = np.asarray(s, dtype=np.float64)
        for rec in reversed(self.records):
            kind = rec[0]
            if kind == "fc":
                s = (s @ rec[1].w.T).reshape(rec[2])
            elif kind == "conv":
                s = _oracle_conv_transpose(s, rec[1].w, rec[1].pad, rec[1].stride, rec[2])
            elif kind == "diag":
                s = s * rec[1]
            elif kind == "softmax":
                y = rec[1]
                s = y * (s - (y * s).sum(axis=1, keepdims=True))
            elif kind == "maxpool":
                s = _oracle_scatter(s, rec[1], rec[2])
            else:
                s = _oracle_meanpool_transpose(s, rec[1], rec[2], rec[3])
        return s


def _masked_lp(v: np.ndarray, r: int, mask) -> float:
    if r == 1:
        vm = np.abs(v) if mask is None else np.abs(v) * mask
        return float(vm.sum())
    return float(0.5 * np.square(v).sum())


# ---------------------------------------------------------------------------
# Algorithm-side auxiliary gradients (optionally kink-masked)
# ---------------------------------------------------------------------------

def _aux_loss_ibp(net: Network, x, labels, cfg: TrainConfig, mask=None):
    """aux_dw exactly as the loss-ibp step computes them, with an optional
    coordinate mask on the penalty (the shared kink convention)."""
    _, dy0, top = _main_passes(net, x, labels, cfg, train=False)
    _, seed = aux_loss_lp(dy0, cfg.r)
    if cfg.r == 2:
        seed = x.shape[0] * seed
    if mask is not None:
        seed = seed * mask
    net.zero_aux()
    net.jvp(seed, upto=top)
    net.aux_from_cot()
    return [l.aux_dw.copy() for l in net.param_layers], dy0


def _aux_tangent_lp(net: Network, x, labels, cfg: TrainConfig, tangents, masks):
    """aux_dw as the pred-ibp/tbp steps compute them, with per-tangent masks."""
    _main_passes(net, x, labels, cfg, train=False)
    net.zero_aux()
    n = x.shape[0]
    for t, mask in zip(tangents, masks):
        out = net.jvp(t, skip_softmax=cfg.skip_softmax)
        _, seed = aux_loss_direction(out, cfg.r)
        if mask is not None:
            seed = seed * mask
        net.lin_vjp(seed / n, skip_softmax=cfg.skip_softmax)
    return [l.aux_dw.copy() for l in net.param_layers]


def _aux_fast_tbp(net: Network, x, labels, cfg: TrainConfig, tangents):
    """aux_dw as the fast-tbp step computes them: one push of the tangents
    summed in list order."""
    _, dy0, top = _main_passes(net, x, labels, cfg, train=False)
    net.zero_aux()
    _, seed = aux_loss_dot(dy0, _sum_tangents(tangents))
    net.jvp(seed, upto=top)
    net.aux_from_cot()
    return [l.aux_dw.copy() for l in net.param_layers], dy0


# ---------------------------------------------------------------------------
# Check: main-loss weight gradients vs finite differences
# ---------------------------------------------------------------------------

def check_main_grad_fd(net: Network, batch, cfg: TrainConfig,
                       h: float = 1e-5, tol: float = 1e-6) -> CheckReport:
    """dw/db of one step against central differences of the step's main
    objective (with the adversarial point frozen for at/fast-at)."""
    x, labels = batch
    loss_at = lambda inputs: _forward_loss(net, inputs, labels, cfg, train=False)[0]
    if cfg.algo in ("at", "fast-at"):
        _, dy0, _ = _main_passes(net, x, labels, cfg, train=False)
        xs = adversarial_shift(x, dy0, cfg.epsilon, cfg.clip)
        _, _, _ = _main_passes(net, xs, labels, cfg, train=False)
        second = [(l.dw.copy(), l.db.copy()) for l in net.param_layers]
        if cfg.algo == "at":
            _, _, _ = _main_passes(net, x, labels, cfg, train=False)
            first = [(l.dw, l.db) for l in net.param_layers]
            dw = [(a[0] + b[0]) / 2.0 for a, b in zip(first, second)]
            db = [(a[1] + b[1]) / 2.0 for a, b in zip(first, second)]
            eval_fn = lambda: (loss_at(x) + loss_at(xs)) / 2.0
        else:
            dw = [g[0] for g in second]
            db = [g[1] for g in second]
            eval_fn = lambda: loss_at(xs)
    else:
        _, _, _ = _main_passes(net, x, labels, cfg, train=False)
        dw = [l.dw.copy() for l in net.param_layers]
        db = [l.db.copy() for l in net.param_layers]
        eval_fn = lambda: loss_at(x)
    fdw, fdb = fd_weight_grad(net, eval_fn, h=h)
    pairs = []
    for i, (a, b) in enumerate(zip(dw, fdw)):
        pairs.append((f"layer{i}.w", a, b))
    for i, (a, b) in enumerate(zip(db, fdb)):
        pairs.append((f"layer{i}.b", a, b))
    return compare_tensors(f"main-fd/{cfg.algo}", pairs, tol)


# ---------------------------------------------------------------------------
# Check: auxiliary weight gradients vs finite differences of the frozen chain
# ---------------------------------------------------------------------------

def check_aux_grad_fd(net: Network, batch, cfg: TrainConfig, tangents=None,
                      h: float | None = None) -> CheckReport:
    """d~w of the regularized algorithms against central differences of the
    frozen-chain penalty (r=1 penalties are kink-masked on both sides)."""
    x, labels = batch
    n = x.shape[0]
    smooth = cfg.r == 2 or cfg.algo == "fast-tbp"
    if h is None:
        # the smaller r=1 step keeps FD excursions inside the mask band, so
        # no masked-in coordinate crosses its kink within a stencil
        h = 1e-5 if smooth else 1e-6
    tol = 1e-6 if smooth else 1e-4
    name = f"aux-fd/{cfg.algo}" + ("" if cfg.algo == "fast-tbp" else f"/r{cfg.r}")

    if cfg.algo == "loss-ibp":
        _, seed, top = _forward_loss(net, x, labels, cfg, train=False)
        chain = FrozenChain(net, x, upto=top)
        base = chain.pull(seed)
        mask = None if cfg.r == 2 else (np.abs(base) >= KINK_EPS).astype(np.float64)
        aux, _ = _aux_loss_ibp(net, x, labels, cfg, mask=mask)
        scale = n if cfg.r == 2 else 1.0

        def eval_fn():
            return scale * _masked_lp(chain.pull(seed), cfg.r, mask)

    elif cfg.algo in ("pred-ibp", "tbp"):
        _, seed, top = _forward_loss(net, x, labels, cfg, train=False)
        chain = FrozenChain(net, x, skip_softmax=cfg.skip_softmax)
        if cfg.algo == "pred-ibp":
            full = FrozenChain(net, x, upto=top)
            tangents = [full.pull(seed)]
        masks = []
        for t in tangents:
            base = chain.push(t)
            masks.append(None if cfg.r == 2
                         else (np.abs(base) >= KINK_EPS).astype(np.float64))
        frozen = [t.copy() for t in tangents]
        aux = _aux_tangent_lp(net, x, labels, cfg, frozen, masks)

        def eval_fn():
            return sum(
                _masked_lp(chain.push(t), cfg.r, m) for t, m in zip(frozen, masks)
            ) / n

    elif cfg.algo == "fast-tbp":
        _, seed, top = _forward_loss(net, x, labels, cfg, train=False)
        chain = FrozenChain(net, x, upto=top)
        frozen = [t.copy() for t in tangents]
        aux, _ = _aux_fast_tbp(net, x, labels, cfg, frozen)

        def eval_fn():
            return sum(float((seed * chain.push(t)).sum()) for t in frozen)

    else:
        raise ConfigError(f"{cfg.algo} has no auxiliary gradients to check")

    fdw, _ = fd_weight_grad(net, eval_fn, h=h, biases=False)
    pairs = [(f"layer{i}.w", a, b) for i, (a, b) in enumerate(zip(aux, fdw))]
    return compare_tensors(name, pairs, tol)


# ---------------------------------------------------------------------------
# Check: layer pass identities
# ---------------------------------------------------------------------------

def check_layer_identities(net: Network, x, seed: int = 0) -> list:
    """Three reports: linear-layer push equals bias-free forward (exact),
    symmetric-Jacobian layers push and pull identically (1e-12), and the
    adjoint identity <u, Jv> == <J^T u, v> on every layer (1e-10)."""
    rng = rng_stream(seed, "identity-probes")
    inputs = []
    a = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        inputs.append(a)
        a = layer.forward(a, train=True)
    t1_pairs, t2_pairs, adj_pairs = [], [], []
    out = a
    for i, layer in enumerate(net.layers):
        label = f"{i}:{type(layer).__name__}"
        v = rng.normal(size=inputs[i].shape)
        shape_out = out.shape if i == len(net.layers) - 1 else inputs[i + 1].shape
        u = rng.normal(size=shape_out)
        jv = layer.jvp(v)
        ju = layer.vjp_linear(u)
        lhs = float((u * jv).sum())
        rhs = float((ju * v).sum())
        scale = max(abs(lhs), abs(rhs), 1e-12)
        adj_pairs.append((label, np.array([lhs / scale]), np.array([rhs / scale])))
        if isinstance(layer, (ReLU, Sigmoid, Softmax)):
            t2_pairs.append((label, jv, layer.vjp_linear(v)))
        if isinstance(layer, (FullyConnected, Conv2D)):
            saved = layer.b.copy()
            layer.b[...] = 0.0
            ref = layer.forward(v)
            layer.b[...] = saved
            layer.forward(inputs[i], train=False)  # restore caches
            t1_pairs.append((label, jv, ref))
    reports = [compare_tensors("linear-layer/push-is-forward", t1_pairs, 0.0)]
    reports.append(compare_tensors("symmetric-jacobian/push-is-pull", t2_pairs, 1e-12))
    reports.append(compare_tensors("adjoint-identity", adj_pairs, 1e-10))
    return reports


# ---------------------------------------------------------------------------
# Check: route equivalences
# ---------------------------------------------------------------------------

def check_fast_tbp_equivalence(net: Network, batch, tangent,
                               cfg: TrainConfig | None = None) -> CheckReport:
    """One-push route (dot penalty, cached cotangents) against the four-pass
    route (push, dot with the top seed, pull); agreement within 1e-10."""
    x, labels = batch
    if cfg is None:
        cfg = TrainConfig(algo="fast-tbp")
    _, dy0, top = _main_passes(net, x, labels, cfg, train=False)
    _, seed, _ = _forward_loss(net, x, labels, cfg, train=False)  # forward only; cotangents stay

    net.zero_aux()
    val_a, push_seed = aux_loss_dot(dy0, tangent)
    net.jvp(push_seed, upto=top)
    net.aux_from_cot()
    aux_a = [l.aux_dw.copy() for l in net.param_layers]

    net.zero_aux()
    out_b = net.jvp(tangent, upto=top)
    val_b = float((seed * out_b).sum())
    net.lin_vjp(seed, upto=top)
    aux_b = [l.aux_dw.copy() for l in net.param_layers]

    pairs = [(f"layer{i}.w", a, b) for i, (a, b) in enumerate(zip(aux_a, aux_b))]
    pairs.append(("aux-loss", np.array([val_a]), np.array([val_b])))
    return compare_tensors("equivalence/fast-tbp", pairs, 1e-10)


def check_tbp_matches_pred_ibp(net: Network, batch, cfg_r: int = 1) -> CheckReport:
    """tbp with the input cotangent as its single tangent against pred-ibp;
    the two must agree to 1e-12 per weight."""
    from .training import step_pred_ibp, step_tbp

    x, labels = batch
    cfg_pred = TrainConfig(algo="pred-ibp", beta=1.0, r=cfg_r)
    cfg_tbp = TrainConfig(algo="tbp", beta=1.0, r=cfg_r)
    _, dy0, _ = _main_passes(net, x, labels, cfg_pred, train=False)
    _, aux_p, grads_p = step_pred_ibp(net, (x, labels), cfg_pred)
    aux_pred = [a.copy() for a in grads_p.aux_dw]
    _, aux_t, grads_t = step_tbp(net, (x, labels), [dy0], cfg_tbp)
    pairs = [(f"layer{i}.w", a, b)
             for i, (a, b) in enumerate(zip(aux_pred, grads_t.aux_dw))]
    pairs.append(("aux-loss", np.array([aux_p]), np.array([aux_t])))
    return compare_tensors(f"equivalence/tbp-as-pred-ibp/r{cfg_r}", pairs, 1e-12)


# ---------------------------------------------------------------------------
# Check: adversarial first-order expansion
# ---------------------------------------------------------------------------

def check_fast_at_firstorder(net: Network, batch, eps_list=(1e-2, 1e-3, 1e-4),
                             cfg: TrainConfig | None = None) -> CheckReport:
    """Residual |L(x*) - L(x) - eps*||grad||_1| divided by eps must shrink as
    eps does; max ratio between consecutive levels is reported (tol < 1)."""
    x, labels = batch
    if cfg is None:
        cfg = TrainConfig(algo="bp")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError(f"eps list must be decreasing, got {list(eps_list)}")
    loss0, dy0, _ = _main_passes(net, x, labels, cfg, train=False)
    norm1 = float(np.abs(dy0).sum())
    rates = []
    for eps in eps_list:
        xs = adversarial_shift(x, dy0, eps)
        loss_eps = _forward_loss(net, xs, labels, cfg, train=False)[0]
        residual = abs(loss_eps - loss0 - eps * norm1)
        rates.append(residual / eps)
    worst = 0.0
    for prev, nxt in zip(rates, rates[1:]):
        worst = max(worst, nxt / prev if prev > 0 else 0.0)
    passed = all(nxt < prev for prev, nxt in zip(rates, rates[1:]))
    detail = " ".join(f"{r:.3e}" for r in rates)
    return CheckReport("fast-at/first-order", worst, 1.0, passed, f"r/eps: {detail}")


# ---------------------------------------------------------------------------
# Check: single-neuron noise-injection identity
# ---------------------------------------------------------------------------

def _neuron_loss(p, label):
    return -(label * np.log(p) + (1 - label) * np.log(1.0 - p))


def check_noise_injection(w, b: float, x, label: int, sigma: float = 0.01,
                          samples: int = 10 ** 6, seed: int = 0,
                          mc: bool = True, h: float = 3e-5) -> CheckReport:
    """For p = w.x + b and L = -(l ln p + (1-l) ln(1-p)) with l in {0,1}:
    the analytic ||grad_x L||^2 equals the Hessian trace. The trace is
    verified by finite second differences (1e-6) and, optionally, by the
    Monte-Carlo estimate 2*(E[L(x+mu)] - L(x))/sigma^2 with antithetic
    pairs (within 5%)."""
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if label not in (0, 1):
        raise ConfigError(f"label must be 0 or 1, got {label}")
    p = float(w @ x + b)
    if not 0.02 < p < 0.98:
        raise ConfigError(f"p={p:.4f} too close to the log singularities")
    dldp = -1.0 / p if label == 1 else 1.0 / (1.0 - p)
    analytic = dldp * dldp * float(w @ w)

    l0 = _neuron_loss(p, label)
    trace_fd = 0.0
    for i in range(x.size):
        step = h * w[i] if w[i] != 0 else 0.0
        lp = _neuron_loss(p + step, label)
        lm = _neuron_loss(p - step, label)
        if w[i] != 0:
            trace_fd += (lp - 2.0 * l0 + lm) / h ** 2
    err_fd, _ = rel_error(np.array([analytic]), np.array([trace_fd]))

    err = err_fd
    worst = f"p={p:.3f} analytic={analytic:.6g} fd={trace_fd:.6g}"
    tol = 1e-6
    if mc:
        rng = rng_stream(seed, "noise-injection")
        half = samples // 2
        shifts = rng.normal(0.0, sigma, size=(half, x.size)) @ w
        l_plus = _neuron_loss(p + shifts, label)
        l_minus = _neuron_loss(p - shifts, label)
        mc_trace = float((0.5 * (l_plus + l_minus) - l0).mean()) * 2.0 / sigma ** 2
        err_mc = abs(mc_trace - analytic) / abs(analytic)
        if err_mc / 0.05 > err / tol:
            err, tol = err_mc, 0.05
            worst += f" mc={mc_trace:.6g}"
        passed = err_fd <= 1e-6 and err_mc <= 0.05
    else:
        passed = err_fd <= 1e-6
    return CheckReport("noise-injection", err, tol, passed, worst)


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------

def _synthetic_batch(net: Network, in_shape, classes: int, seed: int, n: int = 4):
    rng = rng_stream(seed, "checks/batch")
    x = rng.normal(0.0, 0.5, size=(n,) + tuple(in_shape))
    labels = np.zeros((n, classes))
    labels[np.arange(n), rng.integers(0, classes, size=n)] = 1.0
    return x, labels


def run_all_checks(seed: int = 0) -> list:
    """The gradient-oracle suite on fixed tiny networks; seconds to run."""
    from .presets import acceptance_net, zoo_net

    reports = []
    zoo = zoo_net(seed)
    zx, _ = _synthetic_batch(zoo, (1, 9, 9), 5, seed)
    reports.extend(check_layer_identities(zoo, zx, seed))

    net = acceptance_net(seed)
    batch = _synthetic_batch(net, (1, 7, 7), 16, seed)
    rng = rng_stream(seed, "checks/tangents")
    tangents = [rng.normal(0.0, 0.5, size=batch[0].shape) for _ in range(2)]

    reports.append(check_main_grad_fd(net, batch, TrainConfig(algo="bp")))
    reports.append(check_main_grad_fd(net, batch, TrainConfig(algo="at", epsilon=0.05)))
    reports.append(check_main_grad_fd(net, batch, TrainConfig(algo="fast-at", epsilon=0.05)))
    for r in (1, 2):
        reports.append(check_aux_grad_fd(net, batch, TrainConfig(algo="loss-ibp", beta=0.1, r=r)))
        reports.append(check_aux_grad_fd(net, batch, TrainConfig(algo="pred-ibp", beta=0.1, r=r)))
        reports.append(check_aux_grad_fd(net, batch, TrainConfig(algo="tbp", beta=0.1, r=r),
                                         tangents=tangents))
    reports.append(check_aux_grad_fd(net, batch, TrainConfig(algo="fast-tbp", beta=0.1),
                                     tangents=tangents))

    _, dy0, _ = _main_passes(net, batch[0], batch[1], TrainConfig(algo="bp"), train=False)
    for tag, t in (("zero", np.zeros_like(batch[0])),
                   ("random", tangents[0]),
                   ("input-gradient", dy0)):
        rep = check_fast_tbp_equivalence(net, batch, t)
        rep.name += f"/{tag}"
        reports.append(rep)
    reports.append(check_tbp_matches_pred_ibp(net, batch))

    reports.append(check_fast_at_firstorder(net, batch))

    cfg_rng = rng_stream(seed, "checks/neuron")
    for k in range(3):
        w = cfg_rng.uniform(-0.5, 0.5, size=4)
        x1 = cfg_rng.uniform(-1.0, 1.0, size=4)
        b = 0.5 - float(w @ x1)  # center p, then nudge off-center
        b += cfg_rng.uniform(-0.3, 0.3)
        rep = check_noise_injection(w, b, x1, int(cfg_rng.integers(0, 2)),
                                    mc=(k == 0), seed=seed + k)
        rep.name += f"/{k}"
        reports.append(rep)
    return reports


def format_reports(reports) -> str:
    lines = [r.line() for r in reports]
    n_fail = sum(not r.passed for r in reports)
    lines.append(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return "\n".join(lines)


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
