"""Independent gradient verification: finite differences, layer pass
identities, route equivalences, the adversarial first-order check, and the
single-neuron noise-injection identity.

Reference values never come from the layer vjp/jvp code paths; the
finite-difference checks judge the gradients the training step (run_step)
returns. Main-loss gradients are checked against central differences of
plain forward evaluations. Auxiliary gradients are checked against central
differences of the function the algorithms actually differentiate: the
penalty evaluated on a *frozen* linearization of the network, in which
data-dependent pieces (relu masks, max positions, softmax Jacobians, dropout
masks, the loss seed, the signs of r=1 penalties, adversarial points) are
constants captured at the base weights and only the explicit weight-matrix
factors vary. The frozen penalty is then linear in each weight at r=1 and
quadratic at r=2, so one step and one tolerance serve every penalty. The
frozen chain is re-applied here with loop/einsum arithmetic of its own.

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
from .network import Network
from .tensor import rng_stream
from .training import (
    ADVERSARIAL,
    REGULARIZED,
    TrainConfig,
    _forward_loss,
    _main_passes,
    adversarial_shift,
    run_step,
)

# check_fast_at_firstorder: the most a residual/eps rate may keep between
# consecutive decade-spaced eps levels (second order gives 0.1)
FIRSTORDER_RATIO_TOL = 0.5


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


def _freeze(layer, a):
    """(push, pull): the layer linearized at input a, its data-dependent
    pieces captured now, its weights read live at every call."""
    shape = a.shape
    if isinstance(layer, FullyConnected):
        return (lambda t: t.reshape(t.shape[0], -1) @ layer.w,
                lambda s: (s @ layer.w.T).reshape(shape))
    if isinstance(layer, Conv2D):
        return (lambda t: _oracle_conv(t, layer.w, layer.pad, layer.stride),
                lambda s: _oracle_conv_transpose(s, layer.w, layer.pad, layer.stride, shape[2:]))
    if isinstance(layer, MaxPool2D):
        layer.forward(a)
        argmax = layer.argmax.copy()
        return (lambda t: _oracle_gather(t, argmax, shape[2:]),
                lambda s: _oracle_scatter(s, argmax, shape[2:]))
    if isinstance(layer, MeanPool2D):
        return (lambda t: _oracle_meanpool(t, layer.window, layer.stride),
                lambda s: _oracle_meanpool_transpose(s, layer.window, layer.stride, shape[2:]))
    if isinstance(layer, Softmax):
        y = layer.forward(a).copy()
        symmetric = lambda t: y * (t - (y * t).sum(axis=1, keepdims=True))
        return symmetric, symmetric
    if isinstance(layer, ReLU):
        d = (a > 0.0).astype(np.float64)
    elif isinstance(layer, Sigmoid):
        y = layer.forward(a)
        d = y * (1.0 - y)
    elif isinstance(layer, Dropout):
        d = np.ones_like(a) if layer.mask is None else layer.mask.copy()
    else:
        raise ConfigError(f"frozen chain cannot handle {type(layer).__name__}")
    diagonal = lambda t: t * d
    return diagonal, diagonal


class FrozenChain:
    """The network linearized at one batch, with all data-dependent pieces
    captured as constants; push/pull re-apply it with oracle arithmetic.

    The chain covers net.seeded, so pushes end at the logits under nll as
    the steps' do.
    Weight matrices are read live from the layers at every evaluation, so
    finite-difference perturbations of the weights are visible while the
    frozen Jacobian structure is not re-derived.
    """

    def __init__(self, net: Network, x):
        self.frozen = []  # one (push, pull) pair per layer
        a = np.asarray(x, dtype=np.float64)
        for layer in net.seeded:
            self.frozen.append(_freeze(layer, a))
            a = layer.forward(a)

    def push(self, t: np.ndarray) -> np.ndarray:
        """Bias-free forward through the frozen chain."""
        t = np.asarray(t, dtype=np.float64)
        for push, _ in self.frozen:
            t = push(t)
        return t

    def pull(self, s: np.ndarray) -> np.ndarray:
        """Transposed chain, top to bottom."""
        s = np.asarray(s, dtype=np.float64)
        for _, pull in reversed(self.frozen):
            s = pull(s)
        return s


# ---------------------------------------------------------------------------
# Check: main-loss weight gradients vs finite differences
# ---------------------------------------------------------------------------

def check_main_grad_fd(net: Network, batch, cfg: TrainConfig, h: float = 1e-5) -> CheckReport:
    """dw/db of the training step (run_step) against central differences of
    the step's main objective under train=False forwards, with the
    adversarial point frozen for at/fast-at. The step forwards in training
    mode, so nets with dropout are outside this check. A smaller h tells a
    max-pool tie inside the stencil from a wrong gradient: at seed 42 one
    pool window at x* has its top two values 1.2e-6 apart, so at/fast-at
    fail at h=1e-5 and pass at h=1e-6."""
    x, labels = batch
    grads = run_step(net, batch, cfg).grads
    points = [x]  # the inputs whose mean loss the step differentiates
    if cfg.algo in ADVERSARIAL:
        _, dy0 = _main_passes(net, x, labels, cfg, train=False)
        xs = adversarial_shift(x, dy0, cfg.epsilon)
        points = [x, xs] if cfg.algo == "at" else [xs]
    eval_fn = lambda: sum(_forward_loss(net, p, labels, cfg, train=False)[0]
                          for p in points) / len(points)
    fdw, fdb = fd_weight_grad(net, eval_fn, h=h)
    pairs = [(f"layer{i}.w", a, b) for i, (a, b) in enumerate(zip(grads.dw, fdw))]
    pairs += [(f"layer{i}.b", a, b) for i, (a, b) in enumerate(zip(grads.db, fdb))]
    return compare_tensors(f"main-fd/{cfg.algo}", pairs, 1e-6)


# ---------------------------------------------------------------------------
# Check: auxiliary weight gradients vs finite differences of the frozen chain
# ---------------------------------------------------------------------------

def step_aux(net: Network, batch, cfg: TrainConfig, tangents=None):
    """(StepResult, auxiliary weight gradients) of run_step: every regularized
    step folds beta * aux into dw, so the term is (dw - bp's dw) / beta."""
    res = run_step(net, batch, cfg, tangents)
    if cfg.beta == 0.0:
        raise ConfigError(f"{cfg.algo} at beta 0 folds no auxiliary term into dw")
    main = run_step(net, batch, TrainConfig(algo="bp")).grads.dw
    return res, [(d - m) / cfg.beta for d, m in zip(res.grads.dw, main)]


def check_aux_grad_fd(net: Network, batch, cfg: TrainConfig, tangents=None) -> CheckReport:
    """The step's auxiliary weight gradients (step_aux) against central
    differences of the frozen-chain penalty, whose r=1 signs are frozen at the
    base weights like the other data-dependent pieces: it is linear in each
    weight at r=1 (and for fast-tbp's dot penalty) and quadratic at r=2."""
    if cfg.algo not in REGULARIZED:
        raise ConfigError(f"{cfg.algo} has no auxiliary gradients to check")
    x, labels = batch
    n = x.shape[0]
    name = f"aux-fd/{cfg.algo}" + ("" if cfg.algo == "fast-tbp" else f"/r{cfg.r}")
    aux = step_aux(net, batch, cfg, tangents)[1]
    _, seed = _forward_loss(net, x, labels, cfg, train=False)
    chain = FrozenChain(net, x)

    if cfg.algo == "loss-ibp":
        scale = n if cfg.r == 2 else 1.0
        outputs = lambda: [chain.pull(seed)]
    else:  # pred-ibp is tbp with the frozen input cotangent as its tangent
        if cfg.algo == "pred-ibp":
            tangents = [chain.pull(seed)]
        scale = 1.0 / n
        outputs = lambda: [chain.push(t) for t in tangents]
    if cfg.algo == "fast-tbp":  # the dot penalty sum_k seed . push(t_k)
        coeffs, scale = [seed] * len(tangents), 1.0
    elif cfg.r == 1:  # ||v||_1 with sign(v) frozen at the base weights
        coeffs = [np.sign(v) for v in outputs()]
    else:  # 0.5 ||v||^2
        coeffs = None

    def eval_fn():
        if coeffs is None:
            return scale * sum(0.5 * float((v * v).sum()) for v in outputs())
        return scale * sum(float((c * v).sum()) for c, v in zip(coeffs, outputs()))

    fdw, _ = fd_weight_grad(net, eval_fn, biases=False)
    pairs = [(f"layer{i}.w", a, b) for i, (a, b) in enumerate(zip(aux, fdw))]
    return compare_tensors(name, pairs, 1e-6)


# ---------------------------------------------------------------------------
# Check: layer pass identities
# ---------------------------------------------------------------------------

def check_layer_identities(net: Network, x, seed: int = 0) -> list:
    """Three reports: linear-layer push equals bias-free forward (exact),
    every layer's push and pull equal those of its frozen oracle (1e-12),
    and the adjoint identity <u, Jv> == <J^T u, v> on every layer (1e-10)."""
    rng = rng_stream(seed, "identity-probes")
    inputs = []
    a = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        inputs.append(a)
        a = layer.forward(a, train=True)
    t1_pairs, oracle_pairs, adj_pairs = [], [], []
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
        push, pull = _freeze(layer, inputs[i])
        oracle_pairs += [(f"{label}.push", jv, push(v)), (f"{label}.pull", ju, pull(u))]
        if isinstance(layer, (FullyConnected, Conv2D)):
            saved = layer.b.copy()
            layer.b[...] = 0.0
            ref = layer.forward(v)
            layer.b[...] = saved
            layer.forward(inputs[i], train=False)  # restore caches
            t1_pairs.append((label, jv, ref))
    reports = [compare_tensors("linear-layer/push-is-forward", t1_pairs, 0.0)]
    reports.append(compare_tensors("frozen-oracle/push-and-pull", oracle_pairs, 1e-12))
    reports.append(compare_tensors("adjoint-identity", adj_pairs, 1e-10))
    return reports


# ---------------------------------------------------------------------------
# Check: route equivalences
# ---------------------------------------------------------------------------

def check_fast_tbp_equivalence(net: Network, batch, tangent) -> CheckReport:
    """The fast-tbp step's one push (dot penalty, cached cotangents, folded
    into dw at beta 1 and taken back out by step_aux) against the four-pass
    route (push, dot with the top seed, pull); agreement within 1e-10."""
    x, labels = batch
    cfg = TrainConfig(algo="fast-tbp", beta=1.0)
    fast, fast_aux = step_aux(net, batch, cfg, [tangent])
    _, seed = _forward_loss(net, x, labels, cfg, train=False)
    net.vjp(seed, pull=False, _dw=False)  # starts the pull record
    out = net.jvp(tangent)
    val = float((seed * out).sum())
    net.lin_vjp(seed)
    # the recorded pull alone: a zero main pair adds nothing to it
    four = [l.weight_grad_sum(np.zeros_like(l.x), np.zeros_like(l.cot_out), l.pulls)[0]
            for l in net.param_layers]

    pairs = [(f"layer{i}.w", a, b) for i, (a, b) in enumerate(zip(fast_aux, four))]
    pairs.append(("aux-loss", np.array([fast.aux_loss]), np.array([val])))
    return compare_tensors("equivalence/fast-tbp", pairs, 1e-10)


def check_tbp_matches_pred_ibp(net: Network, batch, cfg_r: int = 1) -> CheckReport:
    """tbp with the input cotangent as its single tangent against pred-ibp:
    their dw (aux folded in at beta 1) must agree to 1e-12 per weight."""
    x, labels = batch
    cfg_pred = TrainConfig(algo="pred-ibp", beta=1.0, r=cfg_r)
    cfg_tbp = TrainConfig(algo="tbp", beta=1.0, r=cfg_r)
    _, dy0 = _main_passes(net, x, labels, cfg_pred, train=False)
    pred = run_step(net, batch, cfg_pred)
    tbp = run_step(net, batch, cfg_tbp, [dy0])
    pairs = [(f"layer{i}.w", a, b)
             for i, (a, b) in enumerate(zip(pred.grads.dw, tbp.grads.dw))]
    pairs.append(("aux-loss", np.array([pred.aux_loss]), np.array([tbp.aux_loss])))
    return compare_tensors(f"equivalence/tbp-as-pred-ibp/r{cfg_r}", pairs, 1e-12)


# ---------------------------------------------------------------------------
# Check: adversarial first-order expansion
# ---------------------------------------------------------------------------

def check_fast_at_firstorder(net: Network, batch,
                             eps_list=(1e-4, 1e-5, 1e-6)) -> CheckReport:
    """Residual |L(x*) - L(x) - eps*||grad||_1| divided by eps must shrink
    with eps: each ratio between consecutive levels must be at most
    FIRSTORDER_RATIO_TOL. At second order the ratio is the ratio of the
    levels (0.1 per decade); a gradient off by a fixed fraction leaves a
    first-order residual, whose ratio tends to 1. The default levels are
    small enough that no max-pool position moves at the shifted input."""
    x, labels = batch
    cfg = TrainConfig(algo="bp")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError(f"eps list must be decreasing, got {list(eps_list)}")
    loss0, dy0 = _main_passes(net, x, labels, cfg, train=False)
    norm1 = float(np.abs(dy0).sum())
    rates = []
    for eps in eps_list:
        xs = adversarial_shift(x, dy0, eps)
        loss_eps = _forward_loss(net, xs, labels, cfg, train=False)[0]
        residual = abs(loss_eps - loss0 - eps * norm1)
        rates.append(residual / eps)
    worst = max((nxt / prev if prev > 0 else np.inf if nxt > 0 else 0.0)
                for prev, nxt in zip(rates, rates[1:]))
    detail = " ".join(f"{r:.3e}" for r in rates)
    return CheckReport("fast-at/first-order", worst, FIRSTORDER_RATIO_TOL,
                       worst <= FIRSTORDER_RATIO_TOL, f"r/eps: {detail}")


# ---------------------------------------------------------------------------
# Check: single-neuron noise-injection identity
# ---------------------------------------------------------------------------

_MC_BLOCK = 1 << 14  # Monte-Carlo pairs drawn and summed at a time


def _neuron_loss(p, label):
    return -(label * np.log(p) + (1 - label) * np.log(1.0 - p))


def _mc_trace(w, p: float, label: int, sigma: float, samples: int, seed: int) -> float:
    """2*(E[L(x+mu)] - L(x))/sigma^2 over samples//2 antithetic pairs, drawn
    and summed _MC_BLOCK pairs at a time: block after block, the stream gives
    the samples of one whole draw."""
    rng = rng_stream(seed, "noise-injection")
    half, total, l0 = samples // 2, 0.0, _neuron_loss(p, label)
    for lo in range(0, half, _MC_BLOCK):
        shifts = rng.normal(0.0, sigma, size=(min(_MC_BLOCK, half - lo), w.size)) @ w
        pairs = 0.5 * (_neuron_loss(p + shifts, label) + _neuron_loss(p - shifts, label))
        total += float((pairs - l0).sum())
    return total / half * 2.0 / sigma ** 2


def check_noise_injection(w, b: float, x, label: int, sigma: float = 0.01,
                          samples: int = 10 ** 6, seed: int = 0,
                          mc: bool = True, h: float = 1e-3) -> CheckReport:
    """For p = w.x + b and L = -(l ln p + (1-l) ln(1-p)) with l in {0,1}:
    the analytic ||grad_x L||^2 equals the Hessian trace. The trace is
    verified by finite second differences (1e-6) and, optionally, by the
    Monte-Carlo estimate 2*(E[L(x+mu)] - L(x))/sigma^2 with antithetic
    pairs (within 5%). The difference step along x_i is h*m*w_i, with m the
    distance from p to the log singularity, so truncation and roundoff stay
    in proportion whatever p is."""
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
    hm = h * (p if label == 1 else 1.0 - p)
    trace_fd = 0.0
    for wi in w[w != 0]:
        lp = _neuron_loss(p + hm * wi, label)
        lm = _neuron_loss(p - hm * wi, label)
        trace_fd += (lp - 2.0 * l0 + lm) / hm ** 2
    err_fd, _ = rel_error(np.array([analytic]), np.array([trace_fd]))

    err = err_fd
    worst = f"p={p:.3f} analytic={analytic:.6g} fd={trace_fd:.6g}"
    tol = 1e-6
    if mc:
        mc_trace = _mc_trace(w, p, label, sigma, samples, seed)
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


def _neuron_cases(seed: int):
    """Three (w, b, x, label) single-neuron configurations with p near 0.5."""
    rng = rng_stream(seed, "checks/neuron")
    for _ in range(3):
        w = rng.uniform(-0.5, 0.5, size=4)
        x = rng.uniform(-1.0, 1.0, size=4)
        b = 0.5 - float(w @ x)  # center p, then nudge off-center
        b += rng.uniform(-0.3, 0.3)
        yield w, b, x, int(rng.integers(0, 2))


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

    _, dy0 = _main_passes(net, batch[0], batch[1], TrainConfig(algo="bp"), train=False)
    for tag, t in (("zero", np.zeros_like(batch[0])),
                   ("random", tangents[0]),
                   ("input-gradient", dy0)):
        rep = check_fast_tbp_equivalence(net, batch, t)
        rep.name += f"/{tag}"
        reports.append(rep)
    reports.append(check_tbp_matches_pred_ibp(net, batch))

    reports.append(check_fast_at_firstorder(net, batch))

    for k, (w, b, x1, label) in enumerate(_neuron_cases(seed)):
        rep = check_noise_injection(w, b, x1, label, mc=(k == 0), seed=seed + k)
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
