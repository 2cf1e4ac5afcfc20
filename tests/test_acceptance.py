"""Release gate: one test per advertised guarantee, at pinned tolerances.

Criteria 1-6 verify gradients and algebraic identities on tiny fixed
networks and run in seconds. Criteria 7-9 train desk-scale models and
dominate the file's runtime (a few minutes total): 7 and 9 on the built-in
digits (skipped without scikit-learn), 8 on the built-in glyphs. Criterion
10 checks byte-level reproducibility through the command line.
"""

import hashlib
import time

import numpy as np
import pytest

from ibpnet.cli import main
from ibpnet.datasets import subset
from ibpnet.gradcheck import (
    check_aux_grad_fd,
    check_fast_at_firstorder,
    check_fast_tbp_equivalence,
    check_main_grad_fd,
    check_noise_injection,
    check_tbp_matches_pred_ibp,
    check_layer_identities,
)
from ibpnet.perturb import sweep
from ibpnet.presets import acceptance_net, build_net, zoo_net
from ibpnet.tangents import dataset_tangents
from ibpnet.tensor import rng_stream
from ibpnet.training import (
    SgdMomentum,
    TrainConfig,
    adversarial_shift,
    error_rate,
    fit,
    input_gradient,
    run_step,
)


def synth_batch(seed: int, n: int, in_shape, classes: int):
    rng = rng_stream(seed, "checks/batch")
    x = rng.normal(0.0, 0.5, size=(n,) + tuple(in_shape))
    labels = np.zeros((n, classes))
    labels[np.arange(n), rng.integers(0, classes, size=n)] = 1.0
    return x, labels


def probe_tangents(seed: int, shape, count: int = 2):
    rng = rng_stream(seed, "checks/tangents")
    return [rng.normal(0.0, 0.5, size=shape) for _ in range(count)]


def test_criterion_01_every_algorithm_matches_finite_differences():
    """dw and aux dw of all seven algorithms, as run_step returns them, agree
    with central differences on a sub-600-parameter conv net to 1e-6; the
    r=1 penalties are differentiated with their signs frozen at the base
    weights. Budget: two minutes."""
    t0 = time.perf_counter()
    net = acceptance_net(0)
    assert sum(w.size + b.size for w, b in net.params()) <= 600
    batch = synth_batch(0, 4, (1, 7, 7), 16)
    tangents = probe_tangents(0, batch[0].shape)

    reports = [
        check_main_grad_fd(net, batch, TrainConfig(algo="bp")),
        check_main_grad_fd(net, batch, TrainConfig(algo="at", epsilon=0.05)),
        check_main_grad_fd(net, batch, TrainConfig(algo="fast-at", epsilon=0.05)),
    ]
    assert all(rep.tol == 1e-6 for rep in reports)
    for r in (1, 2):
        for algo in ("loss-ibp", "pred-ibp", "tbp"):
            cfg = TrainConfig(algo=algo, beta=0.1, r=r)
            tan = tangents if algo == "tbp" else None
            rep = check_aux_grad_fd(net, batch, cfg, tangents=tan)
            assert rep.tol == 1e-6
            reports.append(rep)
    rep = check_aux_grad_fd(net, batch, TrainConfig(algo="fast-tbp", beta=0.1),
                            tangents=tangents)
    assert rep.tol == 1e-6
    reports.append(rep)

    failed = [rep.line() for rep in reports if not rep.passed]
    assert not failed, "\n".join(failed)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_02_layer_identities_hold_on_every_layer_kind():
    """On a net with every layer kind: push through weight layers equals the
    bias-free forward map exactly, every layer's push and pull equal those
    of its frozen oracle to 1e-12, and <u, Jv> == <J^T u, v> everywhere to
    1e-10."""
    net = zoo_net(0)
    x, _ = synth_batch(0, 4, (1, 9, 9), 5)
    reports = {rep.name: rep for rep in check_layer_identities(net, x)}
    assert reports["linear-layer/push-is-forward"].tol == 0.0
    assert reports["frozen-oracle/push-and-pull"].tol == 1e-12
    assert reports["adjoint-identity"].tol == 1e-10
    failed = [rep.line() for rep in reports.values() if not rep.passed]
    assert not failed, "\n".join(failed)


def test_criterion_03_fast_routes_match_their_reference_routes():
    """The one-push fast-tbp route matches the four-pass route to 1e-10 on
    zero, random, and input-gradient tangents; tbp fed the input gradient
    as its single tangent reproduces pred-ibp to 1e-12 for both penalties."""
    net = acceptance_net(0)
    batch = synth_batch(0, 4, (1, 7, 7), 16)
    x, labels = batch
    dy0, _ = input_gradient(net, x, labels, batch_size=x.shape[0])
    probes = [
        ("zero", np.zeros_like(x)),
        ("random", probe_tangents(0, x.shape, count=1)[0]),
        ("input-gradient", dy0),
    ]
    for tag, tangent in probes:
        rep = check_fast_tbp_equivalence(net, batch, tangent)
        assert rep.tol == 1e-10
        assert rep.passed, f"{tag}: {rep.line()}"
    for r in (1, 2):
        rep = check_tbp_matches_pred_ibp(net, batch, cfg_r=r)
        assert rep.tol == 1e-12
        assert rep.passed, rep.line()


def test_criterion_04_degenerate_settings_reproduce_bp_bitwise():
    """beta=0, epsilon=0, and all-zero tangents must not merely approximate
    plain backprop: the weight trajectories stay bitwise identical across
    50 momentum steps, including the learning-rate decay boundary. pred-ibp
    and tbp at beta 0 still push their tangents, but fold nothing into dw."""
    steps = 50
    x, labels = synth_batch(11, 64, (1, 7, 7), 16)
    zero_tangents = [np.zeros((16,) + x.shape[1:]) for _ in range(2)]
    rng = np.random.default_rng(13)
    random_tangents = [rng.normal(0.0, 0.5, size=(16,) + x.shape[1:]) for _ in range(2)]

    def trajectory(cfg, tangents=None):
        net = acceptance_net(5)
        opt = SgdMomentum(net, cfg)
        snaps = []
        for k in range(steps):
            lo = (k * 16) % x.shape[0]
            batch = (x[lo:lo + 16], labels[lo:lo + 16])
            res = run_step(net, batch, cfg, tangents)
            opt.update(net, res.grads, epoch=k // 10)
            snaps.append([w.copy() for w, b in net.params()]
                         + [b.copy() for w, b in net.params()])
        return snaps

    reference = trajectory(TrainConfig(algo="bp"))
    variants = [
        (TrainConfig(algo="loss-ibp", beta=0.0, r=1), None),
        (TrainConfig(algo="loss-ibp", beta=0.0, r=2), None),
        (TrainConfig(algo="pred-ibp", beta=0.0, r=1), None),
        (TrainConfig(algo="pred-ibp", beta=0.0, r=2), None),
        (TrainConfig(algo="at", epsilon=0.0), None),
        (TrainConfig(algo="fast-at", epsilon=0.0), None),
        (TrainConfig(algo="tbp", beta=1.0), zero_tangents),
        (TrainConfig(algo="tbp", beta=0.0), random_tangents),
        (TrainConfig(algo="fast-tbp", beta=1.0), zero_tangents),
    ]
    for cfg, tangents in variants:
        got = trajectory(cfg, tangents)
        for k, (a, b) in enumerate(zip(reference, got)):
            same = all(np.array_equal(p, q) for p, q in zip(a, b))
            assert same, f"{cfg.algo} diverges from bp at step {k}"


@pytest.mark.parametrize("name, in_shape", [("mnist-paper", (1, 28, 28)),
                                            ("cifar-paper", (3, 32, 32))])
def test_criterion_04_degenerate_settings_reproduce_bp_bitwise_in_float32(name, in_shape):
    """The degenerate settings on a float32 paper net at batch 3:
    every algorithm's weight trajectory equals bp's bit for bit, across a
    learning-rate decay boundary. At lr 0.1 the net diverges on these noise
    images in its second step (mnist-paper), in float64 as in float32, so lr
    is 0.01."""
    steps = 6
    x, labels = synth_batch(12, 3 * steps, in_shape, 10)
    zero_tangents = [np.zeros((3,) + x.shape[1:]) for _ in range(5)]

    def trajectory(cfg, tangents=None):
        net = build_net(name, 5)
        opt = SgdMomentum(net, cfg)
        snaps = []
        for k in range(steps):
            batch = (x[3 * k:3 * k + 3], labels[3 * k:3 * k + 3])
            res = run_step(net, batch, cfg, tangents)
            opt.update(net, res.grads, epoch=k // 3)
            snaps.append([p.copy() for pair in net.params() for p in pair])
        return snaps

    reference = trajectory(TrainConfig(algo="bp", alpha=0.01))
    assert all(p.dtype == np.float32 for p in reference[0])
    variants = [
        (TrainConfig(algo="loss-ibp", alpha=0.01, beta=0.0, r=1), None),
        (TrainConfig(algo="loss-ibp", alpha=0.01, beta=0.0, r=2), None),
        (TrainConfig(algo="pred-ibp", alpha=0.01, beta=0.0, r=2), None),
        (TrainConfig(algo="at", alpha=0.01, epsilon=0.0), None),
        (TrainConfig(algo="fast-at", alpha=0.01, epsilon=0.0), None),
        (TrainConfig(algo="tbp", alpha=0.01, beta=1.0), zero_tangents),
        (TrainConfig(algo="fast-tbp", alpha=0.01, beta=1.0), zero_tangents),
    ]
    for cfg, tangents in variants:
        got = trajectory(cfg, tangents)
        for k, (a, b) in enumerate(zip(reference, got)):
            same = all(np.array_equal(p, q) for p, q in zip(a, b))
            assert same, f"{cfg.algo} diverges from bp at step {k}"


def test_criterion_05_fast_at_is_first_order_exact():
    """The shifted-input loss matches its first-order expansion with a
    residual-over-epsilon that falls by at least half per decade across
    three decades, and a fast-at step equals a plain bp step at the frozen
    shifted inputs."""
    net = acceptance_net(0)
    batch = synth_batch(0, 4, (1, 7, 7), 16)
    rep = check_fast_at_firstorder(net, batch, eps_list=(1e-2, 1e-3, 1e-4))
    assert rep.passed, rep.line()

    epsilon = 0.1
    x, labels = batch
    dy0, _ = input_gradient(net, x, labels, batch_size=x.shape[0])
    xs = adversarial_shift(x, dy0, epsilon)
    fast = run_step(acceptance_net(0), (x, labels),
                    TrainConfig(algo="fast-at", epsilon=epsilon))
    ref = run_step(acceptance_net(0), (xs, labels), TrainConfig(algo="bp"))
    assert fast.main_loss == ref.main_loss
    for a, b in zip(fast.grads.dw, ref.grads.dw):
        assert np.array_equal(a, b)
    for a, b in zip(fast.grads.db, ref.grads.db):
        assert np.array_equal(a, b)


def test_criterion_06_noise_injection_identity():
    """For a single sigmoid-output neuron, the analytic squared input
    gradient equals the loss curvature trace: verified by second differences
    to 1e-6 on 20 configurations spanning p in [0.05, 0.95], and by a
    million-sample antithetic Monte-Carlo estimate to 5% on one of them."""
    rng = rng_stream(2026, "acceptance/neuron")
    first = None
    for k, p_target in enumerate(np.linspace(0.05, 0.95, 20)):
        w = rng.uniform(-0.5, 0.5, size=6)
        x = rng.uniform(-1.0, 1.0, size=6)
        b = float(p_target - w @ x)
        label = k % 2
        rep = check_noise_injection(w, b, x, label, mc=False)
        assert rep.tol == 1e-6
        assert rep.passed, f"p={p_target:.2f}: {rep.line()}"
        if first is None:
            first = (w, b, x, label)
    w, b, x, label = first
    rep = check_noise_injection(w, b, x, label, sigma=0.01, samples=10 ** 6,
                                seed=7, mc=True)
    assert rep.passed, rep.line()


def test_criterion_07_prediction_penalty_beats_bp_on_digit_subsets(digits_pair):
    """1000-sample stratified subsets, 20 epochs, 3 seeds: some beta in
    {0.3, 1, 3} gives pred-ibp a strictly lower mean test error than bp."""
    train, test = digits_pair

    def mean_error(algo: str, beta: float) -> float:
        errs = []
        for seed in (0, 1, 2):
            sub = subset(train, 1000, seed)
            net = build_net("mnist-tiny", seed)
            cfg = TrainConfig(algo=algo, beta=beta, epochs=20, seed=seed)
            fit(net, sub.images, sub.labels, cfg)
            errs.append(error_rate(net, test.images, test.labels))
        return float(np.mean(errs))

    bp_err = mean_error("bp", 0.0)
    grid = {beta: mean_error("pred-ibp", beta) for beta in (0.3, 1.0, 3.0)}
    best = min(grid.values())
    assert best < bp_err, f"bp {bp_err:.4f} vs pred-ibp grid {grid}"


def test_criterion_08_per_epoch_cost_ratios_stay_in_band(glyphs_pair):
    """Median per-epoch training cost of the 28x28 two-conv-block preset
    net at batch size 32, relative to bp: loss-ibp in [1.2, 1.8], pred-ibp
    in [1.5, 2.2], five-tangent tbp at most 7, fast-tbp cheaper than tbp,
    fast-at cheaper than at. Epoch ratios are size-free, so a short subset
    keeps the criterion affordable. The algorithms take turns, one epoch
    each per round with the first turn rotating, so a slow spell on a
    shared machine falls on all of them alike."""
    train, _ = glyphs_pair
    n = 256
    x, labels = train.images[:n], train.labels[:n]
    tangents = dataset_tangents(x, sigma=0.9)
    settings = {
        "bp": dict(algo="bp"),
        "loss-ibp": dict(algo="loss-ibp", beta=0.1, r=2),
        "pred-ibp": dict(algo="pred-ibp", beta=0.1, r=2),
        "tbp": dict(algo="tbp", beta=0.1, r=2),
        "fast-tbp": dict(algo="fast-tbp", beta=0.1),
        "at": dict(algo="at", epsilon=0.1),
        "fast-at": dict(algo="fast-at", epsilon=0.1),
    }
    runs = [(algo, build_net("mnist-paper", 0),
             TrainConfig(batch_size=32, epochs=1, seed=0, **kw),
             tangents if algo in ("tbp", "fast-tbp") else None)
            for algo, kw in settings.items()]
    epochs = {algo: [] for algo in settings}
    for k in range(4):
        for algo, net, cfg, tan in runs[k:] + runs[:k]:
            epochs[algo].append(fit(net, x, labels, cfg, tangents=tan)[0].seconds)
    # the first round pays one-off allocations
    seconds = {algo: float(np.median(s[1:])) for algo, s in epochs.items()}
    ratio = {algo: s / seconds["bp"] for algo, s in seconds.items() if algo != "bp"}
    # the medians show whether bp or the other algorithm moved
    why = f"ratios {ratio}; median epoch seconds {seconds}"
    assert 1.2 <= ratio["loss-ibp"] <= 1.8, why
    assert 1.5 <= ratio["pred-ibp"] <= 2.2, why
    assert ratio["tbp"] <= 7.0, why
    assert ratio["fast-tbp"] < ratio["tbp"], why
    assert ratio["fast-at"] < ratio["at"], why


def test_criterion_09_adversarial_training_lowers_attack_error(digits_pair):
    """Models trained with at (epsilon=0.1) have a lower mean error under the
    epsilon=0.1 sign attack than bp-trained twins across 3 seeds, and the
    clean sweep entry is bitwise the standalone test error."""
    train, test = digits_pair
    epsilon = 0.1
    errors = {"bp": [], "at": []}
    first_bp = None
    for seed in (0, 1, 2):
        sub = subset(train, 1000, seed)
        for algo in ("bp", "at"):
            net = build_net("mnist-tiny", seed)
            cfg = TrainConfig(algo=algo, epochs=10, seed=seed,
                              epsilon=epsilon if algo == "at" else 0.0)
            fit(net, sub.images, sub.labels, cfg)
            sw = sweep(net, test.images, test.labels, "adversarial",
                       [0.0, epsilon], seed=seed)
            errors[algo].append(sw.errors[1])
            if first_bp is None and algo == "bp":
                first_bp = (net, sw)
    assert np.mean(errors["at"]) < np.mean(errors["bp"]), errors

    net, sw = first_bp
    assert sw.errors[0] == error_rate(net, test.images, test.labels)


def test_criterion_10_identical_cli_runs_are_byte_identical(glyphs_dir, tmp_path):
    """Training plus a corruption sweep, run twice with the same flags and
    seed, emit byte-identical model files and CSV tables."""
    name = "glyphs-loss-ibp-beta0.3-r2-seed3"

    def run(out) -> list:
        args = ["train", "--dataset", "glyphs", "--data-dir", glyphs_dir,
                "--subset-size", "300", "--epochs", "2", "--batch-size", "32",
                "--algo", "loss-ibp", "--beta", "0.3", "--r", "2",
                "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        model = out / f"{name}.ibpnet"
        noise_csv = out / "noise.csv"
        assert main(["eval-noise", "--model", str(model),
                     "--dataset", "glyphs", "--data-dir", glyphs_dir,
                     "--noise", "gaussian", "--levels", "0,0.1,0.2",
                     "--seed", "3", "--out", str(noise_csv)]) == 0
        return [model.read_bytes(), (out / f"{name}.csv").read_bytes(),
                noise_csv.read_bytes()]

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    digests = [hashlib.sha256(blob).hexdigest() for blob in first]
    assert digests == [hashlib.sha256(blob).hexdigest() for blob in second]
