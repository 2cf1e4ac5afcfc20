"""End-to-end command-line tests: exit codes, output files, and the
degenerate-settings equivalences visible through the CSV curves."""

import json
import os
import struct
from dataclasses import asdict, fields

import pytest

from ibpnet.cli import EPOCH_CSV_HEADER, main, run_name
from ibpnet.perturb import CSV_HEADER
from ibpnet.presets import build_net
from ibpnet.training import TrainConfig


def train_args(glyphs_dir, out, *extra):
    return ["train", "--dataset", "glyphs", "--subset-size", "200",
            "--epochs", "1", "--batch-size", "32",
            "--data-dir", glyphs_dir, "--out", str(out), *extra]


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == EPOCH_CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestRunName:
    def test_variants(self):
        assert run_name(TrainConfig(), "digits") == "digits-bp-seed0"
        cfg = TrainConfig(algo="loss-ibp", beta=0.3, r=2, seed=1)
        assert run_name(cfg, "digits") == "digits-loss-ibp-beta0.3-r2-seed1"
        cfg = TrainConfig(algo="at", epsilon=0.1)
        assert run_name(cfg, "mnist") == "mnist-at-eps0.1-seed0"
        cfg = TrainConfig(algo="fast-tbp", beta=1.0)
        assert run_name(cfg, "digits") == "digits-fast-tbp-beta1-seed0"


class TestTrain:
    def test_happy_path_writes_model_csv_and_record(self, glyphs_dir, tmp_path, capsys):
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "bp")) == 0
        out = capsys.readouterr().out
        assert "== glyphs-bp-seed0 ==" in out
        assert "final test_err" in out
        model = tmp_path / "glyphs-bp-seed0.ibpnet"
        csv = tmp_path / "glyphs-bp-seed0.csv"
        assert model.exists() and csv.exists()
        rows = read_csv_rows(csv)
        assert len(rows) == 1 and rows[0][0] == "0"
        records = [json.loads(line)
                   for line in (tmp_path / "runs.jsonl").read_text().splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert rec["name"] == "glyphs-bp-seed0"
        assert rec["build_id"].startswith("ibpnet-")
        assert rec["config"]["algo"] == "bp"
        assert rec["config"]["subset"] == 200
        assert rec["model_path"] == str(model)
        assert 0.0 <= rec["final_test_error"] <= 1.0
        assert rec["epochs"][0]["seconds"] > 0

    def test_flags_override_preset_over_train_config_defaults(self, glyphs_dir,
                                                               tmp_path):
        args = ["train", "--preset", "mnist-tiny", "--dataset", "glyphs",
                "--subset-size", "100", "--epochs", "1", "--lr", "0.05",
                "--data-dir", glyphs_dir, "--out", str(tmp_path)]
        assert main(args) == 0
        config = json.loads((tmp_path / "runs.jsonl").read_text())["config"]
        assert (config["alpha"], config["epochs"]) == (0.05, 1)  # flags
        assert (config["momentum"], config["batch_size"]) == (0.9, 32)  # preset
        assert config["preset"] == config["net"] == "mnist-tiny"
        assert (config["dataset"], config["subset"]) == ("glyphs", 100)
        # every TrainConfig field is recorded, so the record rebuilds the run
        cfg = TrainConfig(**{f.name: config[f.name] for f in fields(TrainConfig)})
        assert cfg == TrainConfig(alpha=0.05, epochs=1, momentum=0.9, decay=0.98,
                                  batch_size=32)
        run_keys = {"dataset", "net", "subset", "sigma", "augment",
                    "normalize_tangents", "preset"}
        assert set(config) == set(asdict(cfg)) | run_keys

    def test_bad_value_fails_before_any_data_is_read(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        args = ["train", "--lr", "0", "--data-dir", str(empty),
                "--out", str(tmp_path / "out")]
        assert main(args) == 2
        assert "alpha must be positive" in capsys.readouterr().err
        assert not any(empty.iterdir())

    def test_beta_grid_one_run_per_value(self, glyphs_dir, tmp_path):
        args = train_args(glyphs_dir, tmp_path, "--algo", "loss-ibp",
                          "--beta-grid", "0.1,0.3")
        assert main(args) == 0
        names = {json.loads(line)["name"]
                 for line in (tmp_path / "runs.jsonl").read_text().splitlines()}
        assert names == {"glyphs-loss-ibp-beta0.1-r1-seed0",
                         "glyphs-loss-ibp-beta0.3-r1-seed0"}

    def test_rerun_is_byte_identical(self, glyphs_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(glyphs_dir, a, "--algo", "bp")) == 0
        assert main(train_args(glyphs_dir, b, "--algo", "bp")) == 0
        name = "glyphs-bp-seed0"
        assert (a / f"{name}.ibpnet").read_bytes() == (b / f"{name}.ibpnet").read_bytes()
        assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()

    def test_loss_ibp_beta_zero_curve_equals_bp(self, glyphs_dir, tmp_path):
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "bp")) == 0
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "loss-ibp",
                               "--beta", "0")) == 0
        bp = read_csv_rows(tmp_path / "glyphs-bp-seed0.csv")
        ibp = read_csv_rows(tmp_path / "glyphs-loss-ibp-beta0-r1-seed0.csv")
        for row_bp, row_ibp in zip(bp, ibp):
            # identical trajectories: only the reported aux loss may differ
            assert row_bp[:2] == row_ibp[:2]
            assert row_bp[3:] == row_ibp[3:]

    def test_env_var_supplies_data_dir(self, glyphs_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("IBP_DATA_DIR", glyphs_dir)
        args = ["train", "--dataset", "glyphs", "--subset-size", "200",
                "--epochs", "1", "--algo", "bp", "--out", str(tmp_path)]
        assert main(args) == 0

    @pytest.mark.parametrize("extra", [
        ("--algo", "bp", "--beta", "1"),
        ("--algo", "bp", "--epsilon", "0.1"),
        ("--algo", "fast-tbp", "--r", "2"),
        ("--algo", "at", "--r", "1"),
        ("--algo", "loss-ibp", "--beta", "1", "--beta-grid", "1,2"),
    ])
    def test_flag_combinations_without_effect_exit_2(self, tmp_path, extra, capsys):
        assert main(["train", "--out", str(tmp_path), *extra]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_data_exit_2(self, tmp_path, capsys):
        args = ["train", "--dataset", "mnist", "--data-dir", str(tmp_path),
                "--out", str(tmp_path)]
        assert main(args) == 2
        assert "missing dataset files" in capsys.readouterr().err

    def test_bad_label_byte_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for split, labels in (("train", [0, 12, 1, 2]), ("t10k", [0, 1, 2, 3])):
            (data / f"{split}-images-idx3-ubyte").write_bytes(
                struct.pack(">iiii", 2051, 4, 28, 28) + bytes(4 * 28 * 28))
            (data / f"{split}-labels-idx1-ubyte").write_bytes(
                struct.pack(">ii", 2049, 4) + bytes(labels))
        args = ["train", "--dataset", "mnist", "--data-dir", str(data),
                "--out", str(tmp_path / "runs")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "label byte 12 out of range" in err
        assert str(data / "train-labels-idx1-ubyte") in err

    def test_empty_idx_split_exit_2(self, tmp_path, capsys):
        # a 0-image training split would otherwise train on nothing
        data = tmp_path / "data"
        data.mkdir()
        for split, count in (("train", 0), ("t10k", 4)):
            (data / f"{split}-images-idx3-ubyte").write_bytes(
                struct.pack(">iiii", 2051, count, 28, 28) + bytes(count * 28 * 28))
            (data / f"{split}-labels-idx1-ubyte").write_bytes(
                struct.pack(">ii", 2049, count) + bytes(count))
        runs = tmp_path / "runs"
        args = ["train", "--dataset", "mnist", "--data-dir", str(data), "--out", str(runs)]
        assert main(args) == 2
        assert f"{data / 'train-images-idx3-ubyte'}: holds no images" in capsys.readouterr().err
        assert not list(runs.glob("*.ibpnet")) and not list(runs.glob("*.csv"))

    def test_negative_subset_size_exit_2(self, glyphs_dir, tmp_path, capsys):
        args = train_args(glyphs_dir, tmp_path) + ["--subset-size", "-5"]
        assert main(args) == 2
        assert "subset size must be at least 1, got -5" in capsys.readouterr().err

    def test_bad_cifar_label_byte_names_its_batch_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
        for name in names:
            # one record each: a label byte, then 3072 zero pixel bytes
            label = 11 if name == "data_batch_2.bin" else 3
            (data / name).write_bytes(bytes([label]) + bytes(3 * 32 * 32))
        args = ["train", "--dataset", "cifar10", "--data-dir", str(data),
                "--out", str(tmp_path / "runs")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{data / 'data_batch_2.bin'}: label byte 11 out of range" in err

    def test_unknown_algo_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--algo", "dropconnect"])
        assert exc.value.code == 2

    def test_net_that_does_not_fit_the_data_exit_2(self, glyphs_dir, tmp_path, capsys):
        # cifar-paper takes 3x32x32 images; glyphs are 1x28x28
        assert main(train_args(glyphs_dir, tmp_path, "--preset", "cifar-paper")) == 2
        assert "error: conv expects (N,3,H,W)" in capsys.readouterr().err

    def test_clip_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--clip"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def trained_model(glyphs_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model-out")
    code = main(["train", "--dataset", "glyphs", "--subset-size", "200",
                 "--epochs", "1", "--batch-size", "32", "--algo", "bp",
                 "--data-dir", glyphs_dir, "--out", str(out)])
    assert code == 0
    return str(out / "glyphs-bp-seed0.ibpnet")


class TestEvalNoise:
    def test_stdout_csv_and_determinism(self, glyphs_dir, glyphs_pair, trained_model,
                                        capsys):
        _, test = glyphs_pair
        args = ["eval-noise", "--model", trained_model, "--noise", "gaussian",
                "--levels", "0,0.2", "--dataset", "glyphs",
                "--data-dir", glyphs_dir, "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        lines = first.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("gaussian,0,")
        assert lines[1].endswith(f",{len(test)},3")
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, glyphs_dir, trained_model, tmp_path, capsys):
        dest = tmp_path / "sweep.csv"
        args = ["eval-noise", "--model", trained_model, "--noise", "adversarial",
                "--levels", "0,0.1", "--dataset", "glyphs",
                "--data-dir", glyphs_dir, "--out", str(dest)]
        assert main(args) == 0
        assert capsys.readouterr().out == ""
        lines = dest.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 3

    def test_missing_model_exit_2(self, glyphs_dir, capsys):
        args = ["eval-noise", "--model", "no-such.ibpnet", "--noise", "gaussian",
                "--levels", "0,0.1", "--dataset", "glyphs", "--data-dir", glyphs_dir]
        assert main(args) == 2
        assert "model file not found" in capsys.readouterr().err

    def test_directory_as_model_exit_2(self, tmp_path, capsys):
        args = ["eval-noise", "--model", str(tmp_path), "--noise", "gaussian",
                "--levels", "0,0.1", "--data-dir", str(tmp_path / "no-data")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: model file not found: {tmp_path}\n"

    def test_malformed_layer_record_exit_2(self, tmp_path, capsys):
        # the model loads before any data, so no dataset is needed
        rec = json.dumps({"kind": "fc", "in_features": 4}).encode()
        model = tmp_path / "bad.ibpnet"
        model.write_bytes(b"IBPNET1" + struct.pack("<II", 1, len(rec)) + rec)
        args = ["eval-noise", "--model", str(model), "--noise", "gaussian",
                "--levels", "0,0.1", "--data-dir", str(tmp_path / "no-data")]
        assert main(args) == 2
        assert "fc record: missing fields ['out_features']" in capsys.readouterr().err

    def test_bad_levels_exit_2(self, glyphs_dir, trained_model, capsys):
        for levels in ("0.1,0.2", "0,0.2,0.1", "abc"):
            args = ["eval-noise", "--model", trained_model, "--noise", "gaussian",
                    "--levels", levels, "--dataset", "glyphs",
                    "--data-dir", glyphs_dir]
            assert main(args) == 2

    def test_net_that_does_not_fit_the_data_exit_2(self, glyphs_dir, tmp_path, capsys):
        model = tmp_path / "cifar.ibpnet"
        build_net("cifar-paper", 0).save(model)
        args = ["eval-noise", "--model", str(model), "--noise", "gaussian",
                "--levels", "0,0.1", "--dataset", "glyphs", "--data-dir", glyphs_dir]
        assert main(args) == 2
        assert "error: conv expects (N,3,H,W)" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
        assert out.count("PASS") >= 20


class TestReport:
    def test_table_and_csv(self, glyphs_dir, tmp_path, capsys):
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "bp")) == 0
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "bp",
                               "--seed", "1")) == 0
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "loss-ibp",
                               "--beta", "0.3")) == 0
        capsys.readouterr()
        csv_path = tmp_path / "table.csv"
        assert main(["report", "--runs", str(tmp_path), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("dataset")
        body = [l for l in lines[2:] if l]
        assert len(body) == 2  # bp (2 seeds pooled) and loss-ibp
        bp_row = next(l for l in body if " bp " in l)
        assert "   2 " in bp_row  # both seeds aggregated
        assert sum(l.endswith("*") for l in body) == 2  # best per dataset/algo
        table = csv_path.read_text().splitlines()
        assert table[0].startswith("dataset,algo,beta")
        assert len(table) == 3

    def test_runs_of_different_epochs_are_not_pooled(self, glyphs_dir, tmp_path, capsys):
        for epochs in ("1", "2"):
            assert main(train_args(glyphs_dir, tmp_path, "--algo", "bp",
                                   "--epochs", epochs)) == 0
        capsys.readouterr()
        csv_path = tmp_path / "table.csv"
        assert main(["report", "--runs", str(tmp_path), "--csv", str(csv_path)]) == 0
        body = [l for l in capsys.readouterr().out.splitlines()[2:] if l]
        assert len(body) == 2
        table = [line.split(",") for line in csv_path.read_text().splitlines()]
        assert table[0][:8] == ["dataset", "algo", "beta", "epsilon", "r", "net",
                                "epochs", "runs"]
        assert sorted(row[5:8] for row in table[1:]) == [["mnist-tiny", "1", "1"],
                                                         ["mnist-tiny", "2", "1"]]

    def test_empty_runs_exit_2(self, tmp_path, capsys):
        assert main(["report", "--runs", str(tmp_path)]) == 2
        assert "no run records" in capsys.readouterr().err
        (tmp_path / "runs.jsonl").write_text("\n")
        assert main(["report", "--runs", str(tmp_path)]) == 2

    def test_zero_epoch_run_reads_nan_and_is_never_best(self, glyphs_dir, tmp_path,
                                                       capsys):
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "bp",
                               "--epochs", "0")) == 0
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "loss-ibp",
                               "--beta", "0.3")) == 0
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "loss-ibp",
                               "--beta", "0.5", "--epochs", "0")) == 0
        capsys.readouterr()
        assert main(["report", "--runs", str(tmp_path)]) == 0
        body = capsys.readouterr().out.splitlines()[2:]
        assert len(body) == 3
        nan_rows = [l for l in body if "nan +/- nan" in l]
        assert len(nan_rows) == 2
        assert not any(l.endswith("*") for l in nan_rows)
        assert sum(l.endswith("*") for l in body) == 1  # the trained loss-ibp run

    def test_line_that_is_not_json_exit_2(self, glyphs_dir, tmp_path, capsys):
        assert main(train_args(glyphs_dir, tmp_path, "--algo", "bp")) == 0
        with open(tmp_path / "runs.jsonl", "a") as fh:
            fh.write('{"name": "cut-off mid-wri\n')
        capsys.readouterr()
        assert main(["report", "--runs", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'runs.jsonl'} line 2: not a JSON record\n"
