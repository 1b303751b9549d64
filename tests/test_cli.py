import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclearn import diagnostics, trainer
from cclearn.centroids import CentroidBank, load_bank, save_bank
from cclearn.cli import main
from cclearn.codec import csv_cell
from cclearn.data import Dataset, load_table, save_table
from cclearn.model import load_model

SYNTH = {
    "num_classes": 3,
    "input_dim": 5,
    "samples_per_class": 40,
    "spread": 8.0,
    "class_std": 1.5,
    "rotation_angle": 0.3,
    "translation": 1.5,
    "scale": 1.1,
    "target_noise_std": 0.5,
    "seed": 11,
}

TRAIN = {
    "alpha": 1.0,
    "epochs": 3,
    "seed": 4,
    "feature_dim": 4,
    "hidden_dims": [12],
    "m0": 0.9,
}


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture()
def data_dir(tmp_path):
    config = write_json(tmp_path / "synth.json", SYNTH)
    out = tmp_path / "data"
    assert main(["synth-data", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def run_dir(tmp_path, data_dir):
    config = write_json(tmp_path / "train.json", TRAIN)
    out = tmp_path / "run1"
    code = main([
        "train", "--config", str(config), "--data", str(data_dir / "source.csv"),
        "--out", str(out),
    ])
    assert code == 0
    return out


def cli_in_a_subprocess(*argv: str) -> subprocess.CompletedProcess:
    """``cclearn *argv`` in a subprocess whose address space is capped at 1 GiB,
    so that a crash, or an allocation that a size budget should have refused,
    fails one test rather than the whole suite or the machine."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "cclearn.cli", *argv], env=env, capture_output=True, text=True,
        timeout=300, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )


def read_all_bytes(directory: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


class TestSynthData:
    def test_writes_both_domains_and_echo(self, data_dir):
        src = load_table(data_dir / "source.csv")
        tgt = load_table(data_dir / "target.csv")
        assert len(src) == 120 and len(tgt) == 120
        assert src.domain == "source" and tgt.domain == "target"
        echo = json.loads((data_dir / "synth_config.json").read_text())
        assert echo["seed"] == 11

    def test_seed_override_logged(self, tmp_path):
        config = write_json(tmp_path / "synth.json", SYNTH)
        out = tmp_path / "d2"
        assert main(["synth-data", "--config", str(config), "--out", str(out),
                     "--seed", "99"]) == 0
        echo = json.loads((out / "synth_config.json").read_text())
        assert echo["seed"] == 99

    def test_unknown_key_fails_cleanly(self, tmp_path, capsys):
        config = write_json(tmp_path / "synth.json", dict(SYNTH, blur=True))
        assert main(["synth-data", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert "blur" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("num_classes", "4"), ("samples_per_class", "40"), ("samples_per_class", [40, 40.5, 40]),
        ("seed", True), ("spread", None), ("translation", ["1"]), ("num_classes", [4]),
        ("rotation_angle", math.inf), ("rotation_angle", [0.1, -math.inf]),
        ("spread", math.nan), ("translation", [0.0, 0.0, 0.0, 0.0, math.nan]), ("seed", -1),
        ("spread", 0), ("class_std", -1), ("num_classes", 1), ("samples_per_class", [40, 40]),
        ("translation", [1.0, 2.0]), ("rotation_angle", [0.1, 0.2, 0.3]),
        ("samples_per_class", 0), ("samples_per_class", [40, 0, 40]),
    ])
    def test_wrong_value_type_fails_cleanly(self, tmp_path, capsys, key, value):
        config = write_json(tmp_path / "synth.json", dict(SYNTH, **{key: value}))
        assert main(["synth-data", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # refused before any table is written

    def test_negative_seed_override_fails_cleanly(self, tmp_path, capsys):
        config = write_json(tmp_path / "synth.json", SYNTH)
        assert main(["synth-data", "--config", str(config), "--out", str(tmp_path / "x"),
                     "--seed", "-3"]) == 2
        assert "config key 'seed' must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_a_failed_draw_writes_nothing(self, tmp_path, capsys):
        # the target's scale overflows to infinity: the source draw is fine
        config = write_json(tmp_path / "synth.json", {"scale": 1e308, "samples_per_class": 5})
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["synth-data", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: features contain non-finite values")
        assert not (tmp_path / "x").exists()

    @staticmethod
    def synth_data_in_a_subprocess(tmp_path, payload: dict) -> subprocess.CompletedProcess:
        """``cclearn synth-data`` of the config ``payload`` into ``tmp_path / "x"``."""
        config = write_json(tmp_path / "synth.json", payload)
        return cli_in_a_subprocess("synth-data", "--config", str(config), "--out", str(tmp_path / "x"))

    @pytest.mark.parametrize("counts", [2**62, [2**62] * 4])
    def test_a_huge_class_count_fails_cleanly(self, tmp_path, counts):
        """The counts sum past int64. As Python ints their sum is too large
        to size an array; summed as int64 it would wrap, and numpy would
        write past its buffers."""
        proc = self.synth_data_in_a_subprocess(
            tmp_path, dict(SYNTH, num_classes=4, samples_per_class=counts))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: "), proc.stderr
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("input_dim", [134217728, 50000])
    def test_a_wide_table_is_written_or_fails_for_memory_cleanly(self, tmp_path, input_dim):
        """Both tables fit the cell budget. One row of 2**27 features is 1 GiB,
        past the subprocess's address cap; 50 000 features are written."""
        proc = self.synth_data_in_a_subprocess(
            tmp_path, {"num_classes": 2, "samples_per_class": 1, "input_dim": input_dim})
        if input_dim == 50000:
            assert proc.returncode == 0, proc.stderr
            for domain in ("source", "target"):
                assert load_table(tmp_path / "x" / f"{domain}.csv").features.shape == (2, 50000)
        else:
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.startswith("error: synth-data ran out of memory: "), proc.stderr
            assert proc.stderr.count("\n") == 1, proc.stderr
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("changes, key", [
        ({"num_classes": 2**70}, "num_classes"),  # past the index range: numpy could not size it
        # one cell past the budget: 2**31 + 1 rows of one feature
        ({"num_classes": 2, "input_dim": 1, "samples_per_class": [2**30, 2**30 + 1]}, "samples_per_class"),
    ])
    def test_a_table_past_the_cell_budget_fails_cleanly(self, tmp_path, changes, key):
        proc = self.synth_data_in_a_subprocess(tmp_path, dict(SYNTH, **changes))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: config key '{key}' must keep a table within"), proc.stderr
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, message", [
        (b'{"seed": 1', "malformed JSON"), (b'{"seed": 1,}', "malformed JSON"),
        (b'{"seed": \xff}', "malformed JSON"), (b"\xef\xbb\xbf{}", "malformed JSON"),
        (b"[1, 2]", "must hold a JSON object"), (b"null", "must hold a JSON object"),
    ])
    def test_unreadable_config_fails_naming_it(self, tmp_path, capsys, text, message):
        config = tmp_path / "bad.json"
        config.write_bytes(text)
        assert main(["synth-data", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and str(config) in err, err
        assert not (tmp_path / "x").exists()

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        assert main(["synth-data", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2
        assert "not found" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_present(self, run_dir):
        for name in ("config.json", "model.txt", "bank.txt", "history.csv",
                     "report.txt", "holdout_test.csv", "holdout_test.csv.parsed"):
            assert (run_dir / name).exists(), name
        history = (run_dir / "history.csv").read_text().splitlines()
        assert history[0].startswith("epoch,m,lr,ce,cont,total")
        assert len(history) == 1 + TRAIN["epochs"]

    def test_config_echo_reflects_overrides(self, tmp_path, data_dir):
        config = write_json(tmp_path / "train.json", TRAIN)
        out = tmp_path / "run_o"
        assert main([
            "train", "--config", str(config), "--data", str(data_dir / "source.csv"),
            "--out", str(out), "--seed", "77", "--alpha", "0.0", "--epochs", "2",
        ]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["seed"] == 77 and echo["alpha"] == 0.0 and echo["epochs"] == 2

    @pytest.mark.parametrize("row", ["1,99999999999999999999,s", '1,0,"' + "s" * 140000 + '"'])
    def test_unreadable_table_fails_cleanly(self, tmp_path, capsys, row):
        config = write_json(tmp_path / "train.json", TRAIN)
        table = tmp_path / "bad.csv"
        table.write_text(f"f0,label,domain\n{row}\n")
        assert main([
            "train", "--config", str(config), "--data", str(table), "--out", str(tmp_path / "r"),
        ]) == 2
        assert "bad.csv: line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("epochs", "5"), ("epochs", 2.5), ("epochs", [5]), ("hidden_dims", 5),
        ("hidden_dims", [12, "x"]),
        ("alpha", "1"), ("batch_size", False), ("shuffle", "no"), ("shuffle", 0),
        ("alpha", math.nan), ("base_lr", math.nan), ("tau", math.inf), ("m0", -math.inf),
        ("seed", -1), ("tau", 0), ("m0", 1.0), ("batch_size", 0), ("hidden_dims", [0]),
    ])
    def test_wrong_value_type_fails_cleanly(self, tmp_path, capsys, key, value):
        config = write_json(tmp_path / "train.json", dict(TRAIN, **{key: value}))
        assert main([
            "train", "--config", str(config), "--data", str(tmp_path / "source.csv"),
            "--out", str(tmp_path / "r"),
        ]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 1])
    def test_features_dead_at_init_are_no_divergence(self, tmp_path, capsys, data_dir, seed):
        # one hidden unit whose ReLU is dead at init: every feature row is zero before any step
        config = write_json(tmp_path / "train.json", {"hidden_dims": [1], "feature_dim": 1, "epochs": 2})
        assert main(["train", "--config", str(config), "--data", str(data_dir / "source.csv"),
                     "--out", str(tmp_path / "r"), "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the initial model's features cannot be normalised before any step "
                              f"(hidden_dims [1], feature_dim 1, seed {seed}): "), err
        assert "diverged" not in err and not (tmp_path / "r").exists()

    def test_same_seed_reruns_are_byte_identical(self, tmp_path, data_dir):
        config = write_json(tmp_path / "train.json", TRAIN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "train", "--config", str(config),
                "--data", str(data_dir / "source.csv"), "--out", str(out),
            ]) == 0
        assert read_all_bytes(out_a) == read_all_bytes(out_b)

    def test_rerun_from_echo_reproduces_artifacts(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "from_echo"
        assert main([
            "train", "--config", str(run_dir / "config.json"),
            "--data", str(data_dir / "source.csv"), "--out", str(out),
        ]) == 0
        assert read_all_bytes(out) == read_all_bytes(run_dir)

    @pytest.mark.parametrize("hidden", [[1000000, 1000000], [2**70]])
    def test_a_model_past_the_parameter_budget_fails_cleanly(self, tmp_path, data_dir, hidden):
        """Without the budget, the first allocates 7.28 TiB (a MemoryError in the
        capped subprocess) and numpy refuses the second with a message that
        names no size."""
        config = write_json(tmp_path / "train.json", dict(TRAIN, hidden_dims=hidden))
        proc = cli_in_a_subprocess("train", "--config", str(config), "--data", str(data_dir / "source.csv"),
                                   "--out", str(tmp_path / "x"))
        sizes = [SYNTH["input_dim"], *hidden, TRAIN["feature_dim"], SYNTH["num_classes"]]
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: layer sizes {sizes} hold more than {2**31} parameters\n"
        assert not (tmp_path / "x").exists()


class TestEvaluate:
    def test_writes_metrics_file(self, data_dir, run_dir, capsys):
        code = main(["evaluate", "--run", str(run_dir),
                     "--data", str(data_dir / "target.csv")])
        assert code == 0
        eval_file = run_dir / "eval_target.csv"
        assert eval_file.exists()
        lines = eval_file.read_text().splitlines()
        assert lines[0] == "metric,domain,value"
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert "accuracy" in names and "quadratic_weighted_kappa" in names

    def test_dimension_mismatch_is_clean_error(self, tmp_path, run_dir, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,label,domain\n1,2,0,target\n3,4,1,target\n")
        assert main(["evaluate", "--run", str(run_dir), "--data", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "dimension" in err and "Traceback" not in err
        assert str(bad) in err and str(run_dir / "model.txt") in err

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["evaluate", "--run", str(tmp_path / "ghost"),
                     "--data", str(tmp_path / "no.csv")]) == 2
        assert "run directory" in capsys.readouterr().err


class TestFinetune:
    def test_produces_new_run_dir(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "run_ft"
        assert main(["finetune", "--run", str(run_dir),
                     "--data", str(data_dir / "target.csv"), "--out", str(out)]) == 0
        for name in ("config.json", "model.txt", "bank.txt", "history.csv", "report.txt"):
            assert (out / name).exists(), name
        echo = json.loads((out / "config.json").read_text())
        assert echo["alpha"] == 0.0
        assert echo["base_lr"] == 1e-6
        assert echo["epochs"] == 1
        # bank rides along unchanged
        assert (out / "bank.txt").read_bytes() == (run_dir / "bank.txt").read_bytes()

    def test_model_changes_but_stays_compatible(self, tmp_path, data_dir, run_dir):
        out = tmp_path / "run_ft2"
        assert main(["finetune", "--run", str(run_dir),
                     "--data", str(data_dir / "target.csv"), "--out", str(out)]) == 0
        assert (out / "model.txt").read_bytes() != (run_dir / "model.txt").read_bytes()
        assert main(["evaluate", "--run", str(out),
                     "--data", str(data_dir / "target.csv")]) == 0

    def test_refuses_to_write_into_its_own_run(self, data_dir, run_dir, capsys):
        before = read_all_bytes(run_dir)
        for out in (run_dir, run_dir / ".." / run_dir.name):
            assert main(["finetune", "--run", str(run_dir),
                         "--data", str(data_dir / "target.csv"), "--out", str(out)]) == 2
            assert f"--out {out} is its --run" in capsys.readouterr().err
        assert read_all_bytes(run_dir) == before


class TestDiagnose:
    def test_emits_heatmap_pca_spread(self, data_dir, run_dir):
        assert main(["diagnose", "--run", str(run_dir),
                     "--data", str(data_dir / "target.csv"),
                     "--fit-data", str(data_dir / "source.csv")]) == 0
        heat = (run_dir / "heatmap_target.csv").read_text().splitlines()
        assert heat[0] == "class,count,c0,c1,c2"
        pca = (run_dir / "pca_target.csv").read_text().splitlines()
        assert pca[0] == "pc1,pc2,label,domain"
        assert len(pca) == 121
        spread = (run_dir / "spread_target.txt").read_text()
        assert "spread " in spread and "explained_pc1" in spread

    def test_empirical_centroid_fallback(self, tmp_path, data_dir):
        config = write_json(tmp_path / "t.json", dict(TRAIN, alpha=0.0))
        run = tmp_path / "run_a0"
        assert main(["train", "--config", str(config),
                     "--data", str(data_dir / "source.csv"), "--out", str(run)]) == 0
        assert main(["diagnose", "--run", str(run),
                     "--data", str(data_dir / "target.csv")]) == 0
        spread = (run / "spread_target.txt").read_text()
        assert "centroids empirical" in spread


@pytest.mark.parametrize("domain", ['site "A", 5%', "", "line\r\nbreak"])
def test_eval_and_pca_files_quote_the_domain(tmp_path, data_dir, run_dir, domain):
    target = load_table(data_dir / "target.csv")
    table = tmp_path / "odd.csv"
    save_table(Dataset(target.features, target.labels, domain, target.num_classes), table)
    assert main(["evaluate", "--run", str(run_dir), "--data", str(table)]) == 0
    for args in ([], ["--fit-data", str(data_dir / "source.csv")]):
        assert main(["diagnose", "--run", str(run_dir), "--data", str(table), *args]) == 0
        for name, width, column in (("eval_odd.csv", 3, 1), ("pca_odd.csv", 4, 3)):
            text = (run_dir / name).read_bytes().decode()
            rows = list(csv.reader(text.splitlines(keepends=True)))
            assert {len(row) for row in rows} == {width}, name
            assert {row[column] for row in rows[1:]} == {domain}, name
            assert "\r" not in text.replace(domain, ""), name  # rows end with \n


@pytest.mark.parametrize("fit", [False, True])
@pytest.mark.parametrize("domain", ["target", 'site "A", 5%'])
def test_eval_and_spread_files_equal_an_in_process_oracle(tmp_path, data_dir, run_dir, domain, fit):
    """The header, ``csv_cell`` and ``:.17g`` f-strings that the CLI wrote these
    files with before the codec did, over the values that ``evaluate_model``,
    ``feature_spread``, ``pca_2d`` and the heatmap give in this process."""
    target = load_table(data_dir / "target.csv")
    ds = Dataset(target.features, target.labels, domain, target.num_classes)
    save_table(ds, tmp_path / "odd.csv")
    args = ["--run", str(run_dir), "--data", str(tmp_path / "odd.csv")]
    assert main(["evaluate", *args]) == 0
    fit_args = ["--fit-data", str(data_dir / "source.csv")] if fit else []
    assert main(["diagnose", *args, *fit_args]) == 0

    params, bank = load_model(run_dir / "model.txt"), load_bank(run_dir / "bank.txt")
    lines = ["metric,domain,value"]
    for res in trainer.evaluate_model(params, ds):
        cells = [(res.name, res.value)]
        cells += [(f"{res.name}_class{k}", v) for k, v in enumerate(res.per_class or ())]
        lines += [f"{name},{csv_cell(domain)},{value:.17g}" for name, value in cells]
    assert (run_dir / "eval_odd.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    feats = trainer.infer(params, ds.features, 1)
    fit_rows = load_table(data_dir / "source.csv").features if fit else ds.features
    basis = diagnostics.pca_2d(trainer.infer(params, fit_rows, 1))
    assert bank.seen.all()  # so diagnose uses the trained centroids
    heatmap = diagnostics.class_centroid_heatmap(feats, ds.labels, bank)
    assert (run_dir / "spread_odd.txt").read_bytes() == (
        f"spread {diagnostics.feature_spread(feats):.17g}\n"
        f"explained_pc1 {basis.explained[0]:.17g}\n"
        f"explained_pc2 {basis.explained[1]:.17g}\n"
        "centroids trained\n"
        f"mean_heatmap_diagonal {heatmap.mean_diagonal:.17g}\n"
    ).encode()


def test_plain_domain_cells_are_written_bare(data_dir, run_dir):
    assert main(["evaluate", "--run", str(run_dir), "--data", str(data_dir / "target.csv")]) == 0
    assert main(["diagnose", "--run", str(run_dir), "--data", str(data_dir / "target.csv")]) == 0
    assert (run_dir / "eval_target.csv").read_text().splitlines()[1].startswith("accuracy,target,")
    assert (run_dir / "pca_target.csv").read_text().splitlines()[1].endswith(",target")


def test_train_with_no_epochs_writes_a_header_only_history(tmp_path, data_dir):
    out = tmp_path / "run0"
    assert main(["train", "--epochs", "0", "--data", str(data_dir / "source.csv"),
                 "--out", str(out)]) == 0
    assert (out / "history.csv").read_bytes() == (
        b"epoch,m,lr,ce,cont,total,ema_samples,val_accuracy,val_kappa\n"
    )


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """A trained run and its data, plus the model and bank files of a run with
    another F and of one with another D."""
    root = tmp_path_factory.mktemp("run_files")
    for data, input_dim in (("data", SYNTH["input_dim"]), ("data_d", 6)):
        config = write_json(root / f"{data}.json", dict(SYNTH, input_dim=input_dim))
        assert main(["synth-data", "--config", str(config), "--out", str(root / data)]) == 0
    runs = (("run", "data", 4), ("run_f", "data", 5), ("run_d", "data_d", 4))
    for run, data, feature_dim in runs:
        config = write_json(root / f"{run}.json", dict(TRAIN, feature_dim=feature_dim))
        assert main(["train", "--config", str(config), "--data", str(root / data / "source.csv"),
                     "--out", str(root / run)]) == 0
    return root


def resize_bank(path: Path, num_classes: int) -> None:
    """Rewrite the bank at ``path`` with ``num_classes`` classes, consistently:
    a dropped class loses its row, an added one is an unseen zero row."""
    bank = load_bank(path)
    resized = CentroidBank(num_classes, bank.feature_dim, bank.m0)
    kept = min(num_classes, bank.num_classes)
    resized.centroids[:kept], resized.seen[:kept] = bank.centroids[:kept], bank.seen[:kept]
    resized.m = bank.m
    save_bank(resized, path)


def corrupt(root: Path, run: Path, name: str, corruption: str, position: int) -> None:
    path = run / name
    if corruption == "truncate":
        path.write_bytes(path.read_bytes()[: position % path.stat().st_size])
    elif corruption == "flip":
        data = bytearray(path.read_bytes())
        data[position // 8 % len(data)] ^= 1 << position % 8
        path.write_bytes(bytes(data))
    elif corruption in ("delete", "directory"):
        path.unlink()
        if corruption == "directory":
            path.mkdir()
    elif corruption == "huge":  # the header claims 10**7 for each size; a model keeps its L
        lines = path.read_text().split("\n")
        if name == "bank.txt":
            lines[0] = "10000000 10000000"
        else:
            layers = len(lines[1].split())
            lines[0], lines[1] = f"10000000 10000000 10000000 {layers}", " ".join(["10000000"] * layers)
        path.write_text("\n".join(lines))
    elif corruption in ("other F", "other D"):
        shutil.copyfile(root / ("run_f" if corruption == "other F" else "run_d") / name, path)
    else:  # "K-1" or "K+1": only the bank has a class count of its own
        resize_bank(run / "bank.txt", SYNTH["num_classes"] + (1 if corruption == "K+1" else -1))


def input_bytes(*dirs: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for d in dirs for p in sorted(d.rglob("*")) if p.is_file()}


@st.composite
def run_file_cases(draw):
    command = draw(st.sampled_from(["evaluate", "diagnose", "finetune"]))
    corruption = draw(st.sampled_from(
        ["truncate", "flip", "delete", "directory", "huge", "other F", "other D", "K-1", "K+1"]
    ))
    files = ["bank.txt"] if corruption in ("K-1", "K+1") else ["model.txt", "bank.txt"]
    name = draw(st.sampled_from(files))
    return command, name, corruption, draw(st.integers(0, 2**31))


@settings(max_examples=100, deadline=None)
@given(case=run_file_cases())
@example(case=("diagnose", "bank.txt", "K-1", 0))
@example(case=("finetune", "bank.txt", "other F", 0))
@example(case=("evaluate", "bank.txt", "K+1", 0))
@example(case=("diagnose", "model.txt", "other D", 0))
@example(case=("evaluate", "bank.txt", "huge", 0))
@example(case=("finetune", "model.txt", "huge", 0))
def test_run_file_errors_name_a_path(run_files, case):
    """Each corrupt model or bank file ends in exit 0, or in exit 2 with an
    ``error:`` line naming the file's run; no input file changes. A bank
    whose K or F is not the model's is refused, naming both files."""
    command, name, corruption, position = case
    with tempfile.TemporaryDirectory(dir=run_files) as tmp:
        run, data = Path(tmp) / "run", run_files / "data"
        shutil.copytree(run_files / "run", run)
        corrupt(run_files, run, name, corruption, position)
        argv = [command, "--run", str(run), "--data", str(data / "target.csv")]
        argv += {"evaluate": [], "diagnose": ["--fit-data", str(data / "source.csv")],
                 "finetune": ["--out", str(Path(tmp) / "tuned")]}[command]
        before = input_bytes(run, data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        err = err.getvalue()
        assert input_bytes(run, data).items() >= before.items()
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors and str(run) in errors[0], err
    if corruption in ("K-1", "K+1") or corruption == "other F" and name == "bank.txt":
        assert code == 2 and str(run / "bank.txt") in err and str(run / "model.txt") in err, err
    if corruption in ("other F", "other D") and name == "model.txt" or corruption == "huge":
        assert code == 2 and str(run / name) in err, err


# each integer key small or past 2**31, never at it: a num_classes of 2**31 with
# one feature and one row per class is a table within the budget, of 16 GiB
SIZE = st.one_of(st.integers(1, 8), st.integers(2**31 + 1, 2**70))


@st.composite
def size_cases(draw):
    """A synth-data or a train config, each integer key drawn from SIZE. The
    epoch count is drawn small: it sets how long a run takes, which no budget
    bounds, and 2**31 epochs of a small model is a valid run."""
    if draw(st.booleans()):
        config = {key: draw(SIZE) for key in ("num_classes", "input_dim", "seed")}
        config["samples_per_class"] = draw(SIZE | st.lists(SIZE, min_size=1, max_size=8))
        return "synth-data", config
    config = {key: draw(SIZE) for key in ("feature_dim", "batch_size", "warmup_epochs", "seed")}
    config.update(hidden_dims=draw(st.lists(SIZE, max_size=3)), epochs=draw(st.integers(0, 2)))
    return "train", config


@settings(max_examples=100, deadline=None)
@given(case=size_cases())
@example(case=("synth-data", {"num_classes": 2**70}))
@example(case=("synth-data", {"num_classes": 2, "input_dim": 2**31 + 1, "samples_per_class": 1}))
@example(case=("train", {"hidden_dims": [1000000, 1000000]}))
@example(case=("train", {"hidden_dims": [2**70]}))
def test_configs_past_a_size_budget_fail_cleanly(run_files, case):
    """Each config ends in exit 0, or in exit 2 with an ``error:`` line and no
    --out written. A table over 2**31 cells is refused, naming a config key;
    a model over 2**31 parameters (of the SYNTH table's D and K), naming its
    layer sizes."""
    command, payload = case
    with tempfile.TemporaryDirectory(dir=run_files) as tmp:
        config, out = write_json(Path(tmp) / "config.json", payload), Path(tmp) / "out"
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "train":
            argv += ["--data", str(run_files / "data" / "source.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2) and (code == 0) == out.exists(), err
    assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1, err
    if command == "synth-data":
        counts = payload.get("samples_per_class", 200)
        k, d = payload.get("num_classes", 4), payload.get("input_dim", 16)
        rows = sum(counts) if isinstance(counts, list) else counts * k
        assert code == 0 or err.startswith("error: config key '"), err
        assert rows * d <= 2**31 or code == 2, err
    else:
        sizes = [SYNTH["input_dim"], *payload["hidden_dims"], payload.get("feature_dim", 32),
                 SYNTH["num_classes"]]
        over = sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:])) > 2**31
        assert not over or err == f"error: layer sizes {sizes} hold more than {2**31} parameters\n", err


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["train", "--bogus"])
