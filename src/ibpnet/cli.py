"""Command-line harness.

Subcommands: train (one run, or a --beta-grid sweep of runs), eval-noise
(corruption sweeps of a saved model), gradcheck (the verification suite on
fixed tiny networks), and report (Table-style aggregation of run records).

Outputs under --out: MODEL files (one per run), per-epoch CSV curves, and a
runs.jsonl file with one JSON record per run. Re-running a command with the
same flags and seed reproduces model files and CSVs byte for byte; wall-time
fields live only in the JSON records. Exit codes: 0 success, 1 check or
numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .datasets import (
    DATASETS,
    AugmentSpec,
    augment_batch,
    denormalize,
    load_split_pair,
    normalize,
    subset,
)
from .errors import ConfigError, FormatError, NumericError, ShapeError
from .gradcheck import all_passed, format_reports, run_all_checks
from .network import Network
from .perturb import CSV_HEADER, SWEEP_KINDS, sweep
from .presets import PRESETS, TANGENT_SIGMA, build_net
from .tangents import load_or_build_tangents
from .tensor import rng_stream
from .training import (
    ADVERSARIAL,
    ALGOS,
    LP_ALGOS,
    REGULARIZED,
    TANGENT_ALGOS,
    TrainConfig,
    fit,
)
from . import __version__

EPOCH_CSV_HEADER = "epoch,train_loss,aux_loss,test_error,lr"


def _parse_floats(text: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated float list, got {text!r}")
    if not values:
        raise ConfigError(f"empty value list {text!r}")
    return values


def _data_dir(args) -> str:
    return args.data_dir or os.environ.get("IBP_DATA_DIR", "data")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _train_settings(args) -> tuple:
    """(cfg, betas, run): the TrainConfig from the flags set over the preset
    over TrainConfig's defaults, the --beta-grid values, and the run settings
    TrainConfig does not hold. Flags without effect are rejected."""
    preset = PRESETS.get(args.preset, {})
    names = [f.name for f in fields(TrainConfig)]  # each the dest of its train flag
    from_preset = {k: preset[k] for k in names if k in preset}
    from_flags = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    cfg = TrainConfig(**{**from_preset, **from_flags})
    if args.beta is not None and args.beta_grid is not None:
        raise ConfigError("--beta and --beta-grid are mutually exclusive")
    beta = args.beta if args.beta_grid is None else args.beta_grid
    for flag, value, family in (("--beta", beta, REGULARIZED),
                                ("--epsilon", args.epsilon, ADVERSARIAL),
                                ("--r", args.r, LP_ALGOS)):
        if value is not None and cfg.algo not in family:
            raise ConfigError(f"{flag} has no effect with --algo {cfg.algo}")
    dataset = args.dataset or preset.get("dataset", "mnist")
    default_net = {"mnist": "mnist-paper", "digits": "mnist-tiny",
                   "glyphs": "mnist-tiny", "cifar10": "cifar-paper"}[dataset]
    betas = [cfg.beta] if args.beta_grid is None else _parse_floats(args.beta_grid)
    subset_size = preset.get("subset", 0) if args.subset_size is None else args.subset_size
    run = dict(dataset=dataset, net=args.preset or default_net, subset=subset_size,
               sigma=TANGENT_SIGMA, augment=args.augment,
               normalize_tangents=args.normalize_tangents, preset=args.preset)
    return cfg, betas, run


def run_name(cfg: TrainConfig, dataset: str) -> str:
    name = f"{dataset}-{cfg.algo}"
    if cfg.algo in REGULARIZED:
        name += f"-beta{cfg.beta:g}"
    if cfg.algo in LP_ALGOS:
        name += f"-r{cfg.r}"
    if cfg.algo in ADVERSARIAL:
        name += f"-eps{cfg.epsilon:g}"
    return name + f"-seed{cfg.seed}"


def _write_epoch_csv(path: str, history):
    with open(path, "w") as fh:
        fh.write(EPOCH_CSV_HEADER + "\n")
        for st in history:
            fh.write(f"{st.epoch},{st.mean_loss:.12g},{st.mean_aux:.12g},"
                     f"{st.test_error:.12g},{st.lr:.12g}\n")


def train_once(cfg: TrainConfig, run: dict, train_ds, test_ds, tangents, out: str):
    net = build_net(run["net"], cfg.seed)
    batch_transform = None
    if run["augment"]:
        aug_rng = rng_stream(cfg.seed, "augment")
        spec = AugmentSpec()
        mean = train_ds.mean_pixel

        def batch_transform(xb):
            raw = denormalize(xb, mean)
            return normalize(augment_batch(raw, spec, aug_rng), mean)

    name = run_name(cfg, run["dataset"])
    print(f"== {name} ==", flush=True)
    log = lambda st: print(
        f"epoch {st.epoch:3d}  loss {st.mean_loss:.6f}  aux {st.mean_aux:.6f}"
        f"  test_err {st.test_error:.4f}  lr {st.lr:.5f}  {st.seconds:.1f}s",
        flush=True,
    )
    history = fit(
        net, train_ds.images, train_ds.labels, cfg, tangents=tangents,
        eval_set=(test_ds.images, test_ds.labels), log=log,
        batch_transform=batch_transform,
    )
    model_path = os.path.join(out, name + ".ibpnet")
    net.save(model_path)
    _write_epoch_csv(os.path.join(out, name + ".csv"), history)
    record = dict(
        name=name,
        build_id=f"ibpnet-{__version__}",
        config={**asdict(cfg), **run},
        epochs=[
            dict(epoch=st.epoch, train_loss=st.mean_loss, aux_loss=st.mean_aux,
                 test_error=st.test_error, lr=st.lr, seconds=st.seconds)
            for st in history
        ],
        final_test_error=history[-1].test_error if history else None,
        seconds_per_epoch=(
            float(np.mean([st.seconds for st in history])) if history else 0.0
        ),
        model_path=model_path,
    )
    with open(os.path.join(out, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if history:
        print(f"final test_err {history[-1].test_error:.4f}  model {model_path}")


def cmd_train(args) -> int:
    cfg, betas, run = _train_settings(args)
    cfgs = [replace(cfg, beta=beta) for beta in betas]  # all checked before any data is read
    train_ds, test_ds = load_split_pair(_data_dir(args), run["dataset"])
    if run["subset"]:
        train_ds = subset(train_ds, run["subset"], cfg.seed)
    tangents = None
    if cfg.algo in TANGENT_ALGOS:
        tangents = load_or_build_tangents(
            train_ds.images, run["sigma"], run["normalize_tangents"]
        )
    os.makedirs(args.out, exist_ok=True)
    for beta_cfg in cfgs:
        train_once(beta_cfg, run, train_ds, test_ds, tangents, args.out)
    return 0


# ---------------------------------------------------------------------------
# eval-noise
# ---------------------------------------------------------------------------

def cmd_eval_noise(args) -> int:
    if not os.path.isfile(args.model):
        raise ConfigError(f"model file not found: {args.model}")
    net = Network.load(args.model)
    _, test_ds = load_split_pair(_data_dir(args), args.dataset)
    result = sweep(
        net, test_ds.images, test_ds.labels, args.noise,
        _parse_floats(args.levels), args.seed,
    )
    if args.out:
        result.to_csv(args.out)
    else:
        print("\n".join([CSV_HEADER, *result.rows()]))
    return 0


# ---------------------------------------------------------------------------
# gradcheck / report
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    reports = run_all_checks(args.seed)
    print(format_reports(reports))
    return 0 if all_passed(reports) else 1


def _group_key(record: dict) -> tuple:
    c = record["config"]
    return (c["dataset"], c["algo"], c["beta"], c["epsilon"], c["r"], c["net"], c["epochs"])


def cmd_report(args) -> int:
    path = os.path.join(args.runs, "runs.jsonl")
    if not os.path.exists(path):
        raise ConfigError(f"no run records at {path}")
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    raise FormatError(f"{path} line {lineno}: not a JSON record") from None
    if not records:
        raise ConfigError(f"{path} holds no runs")
    groups = {}
    for rec in records:
        groups.setdefault(_group_key(rec), []).append(rec)
    rows = []
    for key in sorted(groups, key=str):
        dataset, algo, beta, epsilon, r, net, epochs = key
        recs = groups[key]
        # a 0-epoch run records no test error (null): its group reads nan
        errs = np.array([rec["final_test_error"] for rec in recs], dtype=float) * 100.0
        secs = np.mean([rec["seconds_per_epoch"] for rec in recs])
        rows.append(dict(
            dataset=dataset, algo=algo, beta=beta, epsilon=epsilon, r=r,
            net=net, epochs=epochs, runs=len(recs), err_mean=float(errs.mean()),
            err_std=float(errs.std()), sec_per_epoch=float(secs),
        ))
    # flag the best hyperparameters per dataset/algorithm pair; a nan group
    # is never best
    best = {}
    for i, row in enumerate(rows):
        key = (row["dataset"], row["algo"])
        if np.isnan(row["err_mean"]):
            continue
        if key not in best or row["err_mean"] < rows[best[key]]["err_mean"]:
            best[key] = i
    header = (f"{'dataset':<9} {'algo':<9} {'beta':>6} {'eps':>5} {'r':>2} "
              f"{'net':<11} {'epochs':>6} {'runs':>4} {'err% mean+/-std':>17} {'s/epoch':>8}")
    print(header)
    print("-" * len(header))
    for i, row in enumerate(rows):
        mark = " *" if best.get((row["dataset"], row["algo"])) == i else ""
        print(f"{row['dataset']:<9} {row['algo']:<9} {row['beta']:>6g} "
              f"{row['epsilon']:>5g} {row['r']:>2d} {row['net']:<11} "
              f"{row['epochs']:>6d} {row['runs']:>4d} "
              f"{row['err_mean']:>8.2f} +/- {row['err_std']:<5.2f} "
              f"{row['sec_per_epoch']:>8.2f}{mark}")
    if args.csv:
        cols = ("dataset", "algo", "beta", "epsilon", "r", "net", "epochs", "runs",
                "err_mean", "err_std", "sec_per_epoch")
        with open(args.csv, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(f"{row[c]:g}" if isinstance(row[c], float)
                                  else str(row[c]) for c in cols) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ibpnet",
        description="Invariant-backpropagation training and verification harness.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    # the dests of the TrainConfig flags are its field names, and a flag left
    # at None takes the preset's value or else the field's default
    t = sub.add_parser("train", help="train one model (or a --beta-grid sweep)")
    t.add_argument("--algo", choices=ALGOS, default=None)
    t.add_argument("--dataset", choices=DATASETS, default=None)
    t.add_argument("--subset-size", type=int, default=None,
                   help="stratified training subset size (0 = full split)")
    t.add_argument("--beta", type=float, default=None,
                   help="auxiliary gradient weight (regularized algorithms)")
    t.add_argument("--beta-grid", default=None,
                   help="comma-separated betas; one run per value")
    t.add_argument("--epsilon", type=float, default=None,
                   help="adversarial step size (at / fast-at)")
    t.add_argument("--r", type=int, choices=(1, 2), default=None,
                   help="penalty norm order for lp-penalized algorithms")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--lr", dest="alpha", type=float, default=None,
                   help="learning rate alpha")
    t.add_argument("--momentum", type=float, default=None)
    t.add_argument("--gamma", dest="decay", type=float, default=None,
                   help="per-epoch learning-rate decay factor")
    t.add_argument("--batch-size", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--augment", action="store_true",
                   help="random shift/scale/rotation per training batch")
    t.add_argument("--preset", choices=sorted(PRESETS), default=None)
    t.add_argument("--out", default="runs", help="output directory")
    t.add_argument("--data-dir", default=None,
                   help="dataset directory (default $IBP_DATA_DIR or ./data)")
    t.add_argument("--normalize-tangents", action="store_true",
                   help="scale each tangent image to unit L2 norm")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval-noise", help="corruption sweep of a saved model")
    e.add_argument("--model", required=True, help="path to a saved model file")
    e.add_argument("--noise", choices=SWEEP_KINDS, required=True)
    e.add_argument("--levels", required=True,
                   help="comma-separated levels; must start at 0 and increase")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--dataset", choices=DATASETS, default="mnist")
    e.add_argument("--data-dir", default=None)
    e.add_argument("--out", default=None, help="CSV path (default stdout)")
    e.set_defaults(fn=cmd_eval_noise)

    g = sub.add_parser("gradcheck", help="run the gradient verification suite")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gradcheck)

    r = sub.add_parser("report", help="aggregate run records into a table")
    r.add_argument("--runs", default="runs", help="run directory")
    r.add_argument("--csv", default=None, help="also write the table as CSV")
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FormatError, ShapeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
