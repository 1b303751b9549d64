import csv
import json
from pathlib import Path

import pytest

from cclearn.cli import main
from cclearn.data import Dataset, load_table, save_table

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
    ])
    def test_wrong_value_type_fails_cleanly(self, tmp_path, capsys, key, value):
        config = write_json(tmp_path / "synth.json", dict(SYNTH, **{key: value}))
        assert main(["synth-data", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

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
    ])
    def test_wrong_value_type_fails_cleanly(self, tmp_path, capsys, key, value):
        config = write_json(tmp_path / "train.json", dict(TRAIN, **{key: value}))
        assert main([
            "train", "--config", str(config), "--data", str(tmp_path / "source.csv"),
            "--out", str(tmp_path / "r"),
        ]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

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


def test_plain_domain_cells_are_written_bare(data_dir, run_dir):
    assert main(["evaluate", "--run", str(run_dir), "--data", str(data_dir / "target.csv")]) == 0
    assert main(["diagnose", "--run", str(run_dir), "--data", str(data_dir / "target.csv")]) == 0
    assert (run_dir / "eval_target.csv").read_text().splitlines()[1].startswith("accuracy,target,")
    assert (run_dir / "pca_target.csv").read_text().splitlines()[1].endswith(",target")


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["train", "--bogus"])
