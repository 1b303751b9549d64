"""Command-line pipeline: synth-data, train, finetune, evaluate, diagnose.

Every run directory uses fixed file names (config.json echo, model.txt,
bank.txt, history.csv, report.txt) so later commands can address a run by
its directory. All randomness hangs off the seed in the active config (or
the --seed override), and no artifact embeds timestamps, so re-running a
command with the same inputs reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import centroids, diagnostics, trainer
from .codec import csv_cell, write_file
from .data import SynthConfig, generate_domains, load_table, save_table, split_dataset
from .errors import StateError
from .model import load_model, save_model
from .trainer import TrainConfig, finetune_config

MODEL_FILE = "model.txt"
BANK_FILE = "bank.txt"
CONFIG_FILE = "config.json"
HISTORY_FILE = "history.csv"
REPORT_FILE = "report.txt"
HOLDOUT_FILE = "holdout_test.csv"


def _load_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ValueError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _echo_config(config, path: Path) -> None:
    text = json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True)  # tuples as lists
    write_file(path, " ", "\n", text + "\n")


def _command_config(args, cls, default=None):
    """The --config JSON file's config (``default`` without one) with the
    command's given --seed, --alpha and --epochs overrides; validated."""
    config = cls.from_dict(_load_json(Path(args.config))) if args.config else default
    given = {key: getattr(args, key, None) for key in ("seed", "alpha", "epochs")}
    config = dataclasses.replace(config, **{k: v for k, v in given.items() if v is not None})
    config.validate()
    return config


def _write_run(out: Path, params, bank, report, **artifacts: str) -> None:
    """Write a run directory's fixed files; ``artifacts`` lists further ones."""
    _echo_config(report.config, out / CONFIG_FILE)
    save_model(params, out / MODEL_FILE)
    centroids.save_bank(bank, out / BANK_FILE)
    trainer.write_history_csv(report, out / HISTORY_FILE)
    report.artifacts = {
        "config": CONFIG_FILE, "model": MODEL_FILE, "bank": BANK_FILE, "history": HISTORY_FILE,
        **artifacts,
    }
    write_file(out / REPORT_FILE, " ", "\n", trainer.render_report(report))


def _model_table(path: str, run: Path, params, what: str = "dataset"):
    """The table at ``path``, checked against the classes and input dimension of ``run``'s model."""
    ds = load_table(Path(path), num_classes=params.num_classes)
    if ds.input_dim != params.input_dim:
        raise ValueError(
            f"dimension mismatch: {what} {path} has {ds.input_dim} features, "
            f"model {run / MODEL_FILE} expects {params.input_dim}"
        )
    return ds


def _open_run(path: str):
    """(run directory, model, bank) at ``path``; refuses a bank whose K or F is not the model's."""
    run = Path(path)
    if not (run / MODEL_FILE).exists():
        raise ValueError(f"{run} is not a run directory (missing {MODEL_FILE})")
    params = load_model(run / MODEL_FILE)
    bank = centroids.load_bank(run / BANK_FILE)
    if (bank.num_classes, bank.feature_dim) != (params.num_classes, params.feature_dim):
        raise StateError(
            f"bank file {run / BANK_FILE} holds K={bank.num_classes}, F={bank.feature_dim}; "
            f"model file {run / MODEL_FILE} has K={params.num_classes}, F={params.feature_dim}"
        )
    return run, params, bank


def cmd_synth_data(args) -> None:
    config = _command_config(args, SynthConfig)
    tables = generate_domains(config)  # drawn before --out is made: a failed draw writes nothing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for ds in tables:
        save_table(ds, out / f"{ds.domain}.csv")
        print(f"wrote {out / (ds.domain + '.csv')} ({len(ds)} rows)")
    _echo_config(config, out / "synth_config.json")
    print(f"wrote {out / 'synth_config.json'}")


def cmd_train(args) -> None:
    config = _command_config(args, TrainConfig, TrainConfig())
    ds = load_table(Path(args.data))
    train_ds, val_ds, test_ds = split_dataset(ds, seed=config.seed)
    del ds  # the parts are copies
    params, bank, report = trainer.train(train_ds, val_ds, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_table(test_ds, out / HOLDOUT_FILE)
    _write_run(out, params, bank, report, holdout_test=HOLDOUT_FILE)
    print(f"trained {config.epochs} epoch(s) on {len(train_ds)} samples; run dir: {out}")


def cmd_finetune(args) -> None:
    out = Path(args.out)
    if out.resolve() == Path(args.run).resolve():  # it would overwrite the run it tunes
        raise ValueError(f"finetune --out {out} is its --run; give a new run directory")
    run, params, bank = _open_run(args.run)
    config = _command_config(args, TrainConfig, finetune_config())
    config = dataclasses.replace(
        config, hidden_dims=params.hidden_dims, feature_dim=params.feature_dim
    )
    target = _model_table(args.data, run, params)
    params, report = trainer.finetune(params, bank, target, config)

    out.mkdir(parents=True, exist_ok=True)
    _write_run(out, params, bank, report)
    print(f"fine-tuned on {len(target)} pseudo-labeled samples; run dir: {out}")


def cmd_evaluate(args) -> None:
    run, params, _ = _open_run(args.run)
    ds = _model_table(args.data, run, params)
    results = trainer.evaluate_model(params, ds)
    stem = Path(args.data).stem
    out_path = run / f"eval_{stem}.csv"
    names, values = [], []
    for res in results:
        names += [res.name] + [f"{res.name}_class{k}" for k in range(len(res.per_class or ()))]
        values += [res.value, *(res.per_class or ())]
    write_file(out_path, ",", "\n", "metric,domain,value\n", (names, csv_cell(ds.domain), values))
    for res in results:
        print(f"{res.name} [{res.domain}]: {res.value:.6g}")
    print(f"wrote {out_path}")


def cmd_diagnose(args) -> None:
    run, params, bank = _open_run(args.run)
    basis = None
    if args.fit_data:  # fitted first: its table and features are freed before ds loads
        basis = diagnostics.pca_2d(
            trainer.infer(params, _model_table(args.fit_data, run, params, "fit dataset").features, 1)
        )
    ds = _model_table(args.data, run, params)
    feats = trainer.infer(params, ds.features, 1)
    labels, domain, num_classes = ds.labels, ds.domain, ds.num_classes
    del ds  # the table's features are not read again

    labels_seen = bank.seen[labels].all()
    use_trained = labels_seen and not args.empirical_centroids
    if not use_trained:
        bank = centroids.bank_from_features(feats, labels, num_classes)
    heatmap = diagnostics.class_centroid_heatmap(feats, labels, bank)

    if basis is None:
        basis = diagnostics.pca_2d(feats)
    coords = diagnostics.project_into(basis, feats)
    spread = diagnostics.feature_spread(feats)

    stem = Path(args.data).stem
    heat_path = run / f"heatmap_{stem}.csv"
    pca_path = run / f"pca_{stem}.csv"
    spread_path = run / f"spread_{stem}.txt"
    diagnostics.save_heatmap(heatmap, heat_path)
    diagnostics.save_projection(coords, labels, domain, pca_path)
    write_file(
        spread_path, " ", "\n",
        (["spread", "explained_pc1", "explained_pc2"], [spread, *basis.explained]),
        f"centroids {'trained' if use_trained else 'empirical'}\n",
        (["mean_heatmap_diagonal"], [heatmap.mean_diagonal]),
    )
    for path in (heat_path, pca_path, spread_path):
        print(f"wrote {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cclearn",
        description="Centroid-contrast training, fine-tuning, and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate source/target CSV datasets")
    p.add_argument("--config", required=True, help="SynthConfig JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_synth_data)

    overrides = argparse.ArgumentParser(add_help=False)  # what _command_config overrides
    overrides.add_argument("--seed", type=int, help="override the config seed")
    overrides.add_argument("--alpha", type=float, help="override the contrast weight")
    overrides.add_argument("--epochs", type=int, help="override the epoch count")

    p = sub.add_parser("train", parents=[overrides], help="train on a source dataset (70/10/20 split)")
    p.add_argument("--config", help="TrainConfig JSON file (defaults if omitted)")
    p.add_argument("--data", required=True, help="source dataset CSV")
    p.add_argument("--out", required=True, help="run directory to create")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", parents=[overrides], help="pseudo-label fine-tune a trained run")
    p.add_argument("--run", required=True, help="existing run directory")
    p.add_argument("--data", required=True, help="target dataset CSV (labels ignored)")
    p.add_argument("--out", required=True, help="new run directory")
    p.add_argument("--config", help="TrainConfig JSON overriding the fine-tune defaults")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="compute metrics for a run on a dataset")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="emit heatmap/PCA/spread files for a run")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--data", required=True, help="dataset CSV to diagnose")
    p.add_argument("--fit-data", help="dataset CSV whose features define the PCA basis")
    p.add_argument(
        "--empirical-centroids",
        action="store_true",
        help="recompute centroids from the data instead of using the trained bank",
    )
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        memory = f"{args.command} ran out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {memory}{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
