#!/usr/bin/env python3
"""ibpnet benchmark: closed-loop, single-process training and eval workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload mnist-paper-train --seed 1 \
        --seconds 50 --trace 0

Each run generates its inputs from --seed, runs the correctness gate
(``gradcheck.run_all_checks``), then the workload: every training phase as
timed ``training.fit`` calls, the bp model written with ``Network.save`` and
read back with ``Network.load``, and ``perturb.sweep`` with gaussian and
adversarial levels. Every step or eval batch starts after the previous one
returned. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of a second, traced
pass of the same seed, whose model bytes must equal the untraced pass's.
See perfbench/README.md for the metric definitions.
"""

import os
import sys

# BLAS threads are fixed here, before NumPy loads: one thread spreads least.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from probes import instrument  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    ADVERSARIAL_LEVELS,
    BATCH,
    EVAL_BATCH,
    EVAL_PHASES,
    GAUSSIAN_LEVELS,
    PHASE_CONFIG,
    TANGENT_SIGMA,
    TRAIN_N,
    TRAIN_PHASES,
    WORKLOADS,
    write_dataset,
)

# set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have passed,
# so that a cheap set-up is repeated enough for a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
TRACED_KERNELS = ("conv2d", "conv2d_weight_grad", "conv2d_input_grad",
                  "maxpool_forward", "maxpool_scatter", "maxpool_gather")
EVAL_KERNELS = {
    "gaussian": ("conv2d", "maxpool_forward"),
    "adversarial": ("conv2d", "maxpool_forward", "conv2d_input_grad",
                    "maxpool_scatter"),
}
CONV_KERNELS = TRACED_KERNELS[:3]


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def end_to_end_names() -> list:
    return ([f"train_sps.{p}" for p in TRAIN_PHASES]
            + ["eval_sps", "attack_sps", "setup_s", "peak_rss_mb"])


def per_layer_names() -> list:
    names = [f"tensor.{k}.ms.{p}" for p in TRAIN_PHASES for k in TRACED_KERNELS]
    names += [f"tensor.{k}.ms.{p}" for p in EVAL_PHASES for k in EVAL_KERNELS[p]]
    names += [f"tensor.{k}.calls.{p}" for p in TRAIN_PHASES for k in CONV_KERNELS]
    names += [f"tensor.{k}.vs_gemm" for k in CONV_KERNELS]
    for family in ("layers.fc.ms", "network.passes", "training.step_ms.tail",
                   "training.other_ms"):
        names += [f"{family}.{p}" for p in TRAIN_PHASES]
    names += ["training.sgd_update.ms", "losses.ms", "tangents.build_ms",
              "tangents.mb", "datasets.load_ms", "datasets.augment_batch.ms",
              "perturb.input_gradient.ms", "training.error_rate.ms",
              "trace_overhead"]
    return names


END_TO_END_UNITS = dict(
    {f"train_sps.{p}": "samples/s" for p in TRAIN_PHASES},
    eval_sps="images/s", attack_sps="images/s", setup_s="s", peak_rss_mb="MiB",
)


def per_layer_unit(name: str) -> str:
    if ".calls." in name or name.startswith("network.passes."):
        return "count"
    if name.endswith(".vs_gemm") or name == "trace_overhead":
        return "ratio"
    if name == "tangents.mb":
        return "MiB"
    return "ms"


# ---------------------------------------------------------------------------
# library and environment
# ---------------------------------------------------------------------------

def import_library():
    """Import ibpnet from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import ibpnet
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ibpnet from {SRC}: {exc}")
    if not os.path.abspath(ibpnet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: ibpnet imported from {ibpnet.__file__}, not {SRC}")


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return dict(
        numpy=np.__version__, blas=blas.get("name", "unknown"),
        blas_version=blas.get("version", "unknown"),
        blas_threads=int(BLAS_THREADS), nproc=os.cpu_count(),
        python=platform.python_version(),
    )


# ---------------------------------------------------------------------------
# one pass over a workload
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """What one pass over a workload measured and checked."""

    setup_s: list = field(default_factory=list)
    block_s: dict = field(default_factory=dict)      # phase -> seconds per block
    sweep_s: dict = field(default_factory=dict)      # eval phase -> seconds per sweep
    losses: dict = field(default_factory=dict)       # phase -> {(loss, aux)} seen
    errors: dict = field(default_factory=dict)       # eval phase -> {error rates} seen
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)     # failed correctness checks
    failures: list = field(default_factory=list)     # failed operations
    digests: dict = field(default_factory=dict)      # phase -> sha256 of model bytes
    tangent_bytes: int = 0
    round_s: list = field(default_factory=list)      # wall seconds per round


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class WorkloadState:
    """State shared by the phases of one pass: data, one net, configs."""

    def __init__(self, wl, data_dir, seed):
        from ibpnet import datasets, presets, tangents
        from ibpnet.training import TrainConfig

        self.seed = seed
        self.train, self.test = datasets.load_split_pair(data_dir, "mnist")
        self.net = presets.build_net(wl.net, seed)
        self.init = [(w.copy(), b.copy()) for w, b in self.net.params()]
        self.tangents = tangents.load_or_build_tangents(self.train.images,
                                                        TANGENT_SIGMA)
        preset = presets.PRESETS[wl.net]
        self.cfg = {
            phase: TrainConfig(**PHASE_CONFIG[phase], alpha=preset["alpha"],
                               momentum=preset["momentum"], decay=preset["decay"],
                               epochs=1, batch_size=BATCH, seed=seed)
            for phase in TRAIN_PHASES
        }

    def augment_transform(self):
        """The CLI's --augment batch transform, with a fresh RNG stream."""
        from ibpnet import datasets
        from ibpnet.tensor import rng_stream

        rng = rng_stream(self.seed, "augment")
        spec = datasets.AugmentSpec()
        mean = self.train.mean_pixel

        def transform(xb):
            raw = datasets.denormalize(xb, mean)
            return datasets.normalize(datasets.augment_batch(raw, spec, rng), mean)

        return transform

    def block(self, phase: str, steps: int):
        """One fit call of `steps` batches from the initial weights."""
        from ibpnet import training

        for (w, b), (w0, b0) in zip(self.net.params(), self.init):
            w[...] = w0
            b[...] = b0
        n = steps * BATCH
        cfg = self.cfg[phase]
        tan = self.tangents[:n] if cfg.algo in ("tbp", "fast-tbp") else None
        transform = self.augment_transform() if phase == "bp-augment" else None
        return training.fit(self.net, self.train.images[:n], self.train.labels[:n],
                            cfg, tangents=tan, batch_transform=transform)


def _train_block(state, phase, steps, out: Pass, tracer) -> bool:
    """Run and time one block; False when it failed with a NumericError."""
    from ibpnet.errors import NumericError

    t0 = time.perf_counter()
    try:
        with _span(tracer, f"phase.{phase}"):
            history = state.block(phase, steps)
    except NumericError as exc:
        out.failures.append(f"{phase}: NumericError: {exc}")
        return False
    out.block_s.setdefault(phase, []).append(time.perf_counter() - t0)
    losses = (history[0].mean_loss, history[0].mean_aux)
    out.losses.setdefault(phase, set()).add(losses)
    if not all(math.isfinite(v) for v in losses):
        out.problems.append(f"{phase}: non-finite training loss {losses}")
    return True


def _sweep(model, test, kind, levels, seed, out: Pass, tracer):
    from ibpnet import perturb

    t0 = time.perf_counter()
    with _span(tracer, f"phase.{kind}"):
        res = perturb.sweep(model, test.images, test.labels, kind, levels, seed)
    out.sweep_s.setdefault(kind, []).append(time.perf_counter() - t0)
    out.errors.setdefault(kind, set()).add(tuple(res.errors))


def _load_model(path, out: Pass):
    """Network.load the saved model, as eval-noise does, and check that
    saving it again gives the same bytes."""
    from ibpnet.network import Network

    model = Network.load(path)
    resaved = path + ".resaved"
    model.save(resaved)
    if _sha256(resaved) != _sha256(path):
        out.problems.append("Network.load/save round trip changed the bp model")
    return model


def run_pass(wl, seed: int, seconds: float, tracer=None) -> Pass:
    """Generate the inputs, set up, then run rounds of the workload until
    `seconds` have passed since the pass began; at least one round."""
    out = Pass()
    start = time.perf_counter()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        data_dir = os.path.join(workdir, "data")
        write_dataset(data_dir, seed, TRAIN_N, wl.test_n)
        while (len(out.setup_s) < SETUP_REPEATS
               or math.fsum(out.setup_s) < SETUP_MIN_S):
            state = None  # free the last set-up first, so peak RSS holds one
            t0 = time.perf_counter()
            with _span(tracer, "setup"):
                state = WorkloadState(wl, data_dir, seed)
                for phase in TRAIN_PHASES:  # one untimed warm-up step each
                    state.block(phase, 1)
            out.setup_s.append(time.perf_counter() - t0)
        out.tangent_bytes = state.tangents.nbytes

        dead = set()  # phases whose block failed; their later steps fail too
        model = None
        batches = math.ceil(wl.test_n / EVAL_BATCH)
        while True:
            t_round = time.perf_counter()
            for phase in TRAIN_PHASES:
                steps = wl.steps[phase]
                out.attempted += steps
                if phase in dead:
                    out.failed += steps
                    continue
                if not _train_block(state, phase, steps, out, tracer):
                    out.failed += steps
                    dead.add(phase)
                    continue
                if phase not in out.digests:
                    path = os.path.join(workdir, f"{phase}.ibpnet")
                    state.net.save(path)
                    out.digests[phase] = _sha256(path)
                    if phase == "bp":
                        model = _load_model(path, out)
            for kind, levels in (("gaussian", GAUSSIAN_LEVELS),
                                 ("adversarial", ADVERSARIAL_LEVELS)):
                out.attempted += len(levels) * batches
                if model is None:  # bp failed, so there is no model to sweep
                    out.failed += len(levels) * batches
                else:
                    _sweep(model, state.test, kind, levels, seed, out, tracer)
            now = time.perf_counter()
            out.round_s.append(now - t_round)
            # stop unless another round of the mean length still fits
            if now - start + statistics.fmean(out.round_s) > seconds:
                break
        for phase, seen in out.losses.items():
            if len(seen) > 1:
                out.problems.append(f"{phase}: identical blocks gave different losses")
        for kind, seen in out.errors.items():
            if len(seen) > 1 or not all(0.0 <= e <= 1.0 for e in next(iter(seen))):
                out.problems.append(f"{kind}: inconsistent or invalid error rates {seen}")
        clean = {next(iter(seen))[0] for seen in out.errors.values()}
        if len(clean) > 1:
            out.problems.append(f"level-0 error differs between sweeps: {clean}")
        if not all(np.isfinite(w).all() and np.isfinite(b).all()
                   for w, b in state.net.params()):
            out.problems.append("non-finite weights after training")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(wl, p: Pass) -> dict:
    """Throughputs over all the identical blocks and sweeps of the pass."""
    values = {}
    for phase in TRAIN_PHASES:
        if p.block_s.get(phase):
            samples = wl.steps[phase] * BATCH * len(p.block_s[phase])
            values[f"train_sps.{phase}"] = samples / math.fsum(p.block_s[phase])
    for name, kind, levels in (("eval_sps", "gaussian", GAUSSIAN_LEVELS),
                               ("attack_sps", "adversarial", ADVERSARIAL_LEVELS)):
        if p.sweep_s.get(kind):
            images = wl.test_n * len(levels) * len(p.sweep_s[kind])
            values[name] = images / math.fsum(p.sweep_s[kind])
    values["setup_s"] = statistics.median(p.setup_s)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def tail_ms(durations_ms: list) -> tuple:
    """(percentile, value, n): the highest percentile with at least ten
    samples beyond it; the median when there are too few samples."""
    n = len(durations_ms)
    if n == 0:
        return 50.0, 0.0, 0
    pct = 100.0 * (1.0 - 10.0 / n) if n >= 20 else 50.0
    return pct, float(np.percentile(durations_ms, pct)), n


def per_layer_metrics(wl, spans, p: Pass, plain: Pass, vs_gemm: dict):
    """Per-layer values from the traced pass; returns (values, notes)."""
    own = self_times(spans)
    phase_of = []
    for i, s in enumerate(spans):
        if s.name.startswith("phase."):
            phase_of.append(s.name[len("phase."):])
        else:
            phase_of.append(phase_of[s.parent] if s.parent >= 0 else None)

    ms, calls, step_ms = {}, {}, {}
    by_name = {}
    for i, s in enumerate(spans):
        phase = phase_of[i]
        key = (s.name, phase)
        ms[key] = ms.get(key, 0.0) + own[i] * 1e3
        calls[key] = calls.get(key, 0) + 1
        by_name.setdefault(s.name, []).append(i)
        if s.name == "training.run_step" and phase in TRAIN_PHASES:
            step_ms.setdefault(phase, []).append((s.end - s.start) * 1e3)

    steps = {ph: calls.get(("training.run_step", ph), 0) for ph in TRAIN_PHASES}
    # eval phases are normalized per 256 images scored
    per_sweep = wl.test_n / EVAL_BATCH
    eval_units = {ph: calls.get(("training.error_rate", ph), 0) * per_sweep
                  for ph in EVAL_PHASES}

    def per(value, count):
        return value / count if count else 0.0

    def phase_sum(table, prefix, phase):
        return sum(v for (name, ph), v in table.items()
                   if ph == phase and name.startswith(prefix))

    values, notes = {}, {}
    for ph in TRAIN_PHASES:
        for k in TRACED_KERNELS:
            values[f"tensor.{k}.ms.{ph}"] = per(ms.get((f"tensor.{k}", ph), 0.0), steps[ph])
        for k in CONV_KERNELS:
            values[f"tensor.{k}.calls.{ph}"] = per(calls.get((f"tensor.{k}", ph), 0), steps[ph])
        values[f"layers.fc.ms.{ph}"] = per(phase_sum(ms, "layers.fc.", ph), steps[ph])
        values[f"network.passes.{ph}"] = per(phase_sum(calls, "network.", ph), steps[ph])
        pct, val, n = tail_ms(step_ms.get(ph, []))
        values[f"training.step_ms.tail.{ph}"] = val
        notes[f"training.step_ms.tail.{ph}"] = f"p{pct:.1f} of {n} steps"
        values[f"training.other_ms.{ph}"] = per(ms.get(("training.run_step", ph), 0.0),
                                                steps[ph])
    for ph in EVAL_PHASES:
        for k in EVAL_KERNELS[ph]:
            values[f"tensor.{k}.ms.{ph}"] = per(ms.get((f"tensor.{k}", ph), 0.0),
                                                eval_units[ph])
    for k in CONV_KERNELS:
        values[f"tensor.{k}.vs_gemm"] = vs_gemm[k]

    total_steps = sum(steps.values())
    values["training.sgd_update.ms"] = per(
        sum(ms.get(("training.sgd_update", ph), 0.0) for ph in TRAIN_PHASES), total_steps)
    values["losses.ms"] = per(
        sum(phase_sum(ms, "losses.", ph) for ph in TRAIN_PHASES), total_steps)

    def median_duration_ms(name):
        d = [(spans[i].end - spans[i].start) * 1e3 for i in by_name.get(name, [])]
        return statistics.median(d) if d else 0.0

    def inclusive_ms(name, phases):
        return sum((spans[i].end - spans[i].start) * 1e3 for i in by_name.get(name, [])
                   if phase_of[i] in phases)

    values["tangents.build_ms"] = median_duration_ms("tangents.load_or_build_tangents")
    values["tangents.mb"] = p.tangent_bytes / 2**20
    values["datasets.load_ms"] = median_duration_ms("datasets.load_split_pair")
    values["datasets.augment_batch.ms"] = per(
        ms.get(("datasets.augment_batch", "bp-augment"), 0.0),
        calls.get(("datasets.augment_batch", "bp-augment"), 0))
    # the two eval entry points are reported inclusive: their children are
    # the traced layers, whose own times appear above
    values["perturb.input_gradient.ms"] = per(
        inclusive_ms("perturb.input_gradient", ("adversarial",)),
        calls.get(("perturb.input_gradient", "adversarial"), 0) * per_sweep)
    values["training.error_rate.ms"] = per(
        inclusive_ms("training.error_rate", EVAL_PHASES), sum(eval_units.values()))
    # rounds do identical work, so their median times compare the passes
    values["trace_overhead"] = (statistics.median(p.round_s)
                                / statistics.median(plain.round_s))
    return values, notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _emit(correct, attempted, failed, metrics):
    print(json.dumps(dict(correct=correct, attempted=attempted, failed=failed,
                          metrics=metrics)), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    import_library()
    from ibpnet.gradcheck import all_passed, format_reports, run_all_checks

    wl = WORKLOADS[args.workload]
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"workload {wl.name}: {wl.why}")

    reports = run_all_checks(0)
    gate_ok = all_passed(reports)
    print("gate " + format_reports(reports).splitlines()[-1])
    if not gate_ok:
        print(format_reports(reports), file=sys.stderr)
        _emit(False, len(reports), sum(not r.passed for r in reports), {})
        return 1

    # a traced run makes two passes, each of half the time
    plain = run_pass(wl, args.seed, args.seconds / (2 if args.trace else 1))
    problems = list(plain.problems)
    attempted, failed = plain.attempted, plain.failed
    if args.trace:
        import kernels

        tracer = Tracer()
        instrument(tracer)
        try:
            traced = run_pass(wl, args.seed, args.seconds / 2, tracer)
        finally:
            tracer.restore()
        problems += [f"traced: {m}" for m in traced.problems]
        if traced.digests != plain.digests:
            problems.append("traced and untraced passes saved different models")
        bench = kernels.microbench()
        for shape, table in bench.items():
            for k, r in table.items():
                print(f"kernel {shape} {k}: {r['ms']:.3f} ms vs GEMM {r['gemm_ms']:.3f} ms"
                      f" = {r['vs_gemm']:.3f}x, {r['gflops']:.2f} G(FL)OP/s computed,"
                      f" {r['mbytes']:.2f} MiB moved computed")
        values, notes = per_layer_metrics(
            wl, tracer.spans, traced, plain,
            {k: bench["conv2"][k]["vs_gemm"] for k in CONV_KERNELS})
        for name, note in notes.items():
            print(f"note {name}: {note}")
        metrics = {n: dict(value=values[n], unit=per_layer_unit(n))
                   for n in per_layer_names()}
    else:
        values = end_to_end_metrics(wl, plain)
        bp = values.get("train_sps.bp")
        for phase in TRAIN_PHASES[1:7]:
            sps = values.get(f"train_sps.{phase}")
            if bp and sps:
                print(f"ratio.{phase} {bp / sps:.3f} (train_sps.bp / train_sps.{phase})")
        metrics = {n: dict(value=values[n], unit=END_TO_END_UNITS[n])
                   for n in end_to_end_names() if n in values}
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for m in plain.failures:
        print(f"failure {m}")
    for m in problems:
        print(f"problem {m}", file=sys.stderr)
    _emit(not problems, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
