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
from .codec import FLOAT, csv_format, write_rows
from .data import SynthConfig, generate_blobs, load_table, save_table, split_dataset
from .model import forward, load_model, save_model
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
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _echo_config(config, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)  # tuples as lists
        fh.write("\n")


def _apply_overrides(config: TrainConfig, args) -> TrainConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "alpha", None) is not None:
        updates["alpha"] = args.alpha
    if getattr(args, "epochs", None) is not None:
        updates["epochs"] = args.epochs
    if updates:
        config = dataclasses.replace(config, **updates)
    config.validate()
    return config


def _write_run(out: Path, config, params, bank, report, **artifacts: str) -> None:
    """Write a run directory's fixed files; ``artifacts`` lists further ones."""
    _echo_config(config, out / CONFIG_FILE)
    save_model(params, out / MODEL_FILE)
    centroids.save_bank(bank, out / BANK_FILE)
    trainer.write_history_csv(report, out / HISTORY_FILE)
    report.artifacts = {
        "config": CONFIG_FILE, "model": MODEL_FILE, "bank": BANK_FILE, "history": HISTORY_FILE,
        **artifacts,
    }
    with open(out / REPORT_FILE, "w", encoding="utf-8") as fh:
        fh.write(trainer.render_report(report))


def _model_table(path: str, params, what: str = "dataset"):
    """The table at ``path``, checked against the model's classes and input dimension."""
    ds = load_table(Path(path), num_classes=params.num_classes)
    if ds.input_dim != params.input_dim:
        raise ValueError(
            f"dimension mismatch: {what} has {ds.input_dim} features, "
            f"model expects {params.input_dim}"
        )
    return ds


def _run_dir(path: str) -> Path:
    run = Path(path)
    if not (run / MODEL_FILE).exists():
        raise ValueError(f"{run} is not a run directory (missing {MODEL_FILE})")
    return run


def cmd_synth_data(args) -> None:
    config = SynthConfig.from_dict(_load_json(Path(args.config)))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for domain in ("source", "target"):
        ds = generate_blobs(config, domain)
        save_table(ds, out / f"{domain}.csv")
        print(f"wrote {out / (domain + '.csv')} ({len(ds)} rows)")
    _echo_config(config, out / "synth_config.json")
    print(f"wrote {out / 'synth_config.json'}")


def cmd_train(args) -> None:
    config = TrainConfig.from_dict(_load_json(Path(args.config))) if args.config else TrainConfig()
    config = _apply_overrides(config, args)
    ds = load_table(Path(args.data))
    train_ds, val_ds, test_ds = split_dataset(ds, seed=config.seed)
    params, bank, report = trainer.train(train_ds, val_ds, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_table(test_ds, out / HOLDOUT_FILE)
    _write_run(out, config, params, bank, report, holdout_test=HOLDOUT_FILE)
    print(f"trained {config.epochs} epoch(s) on {len(train_ds)} samples; run dir: {out}")


def cmd_finetune(args) -> None:
    run = _run_dir(args.run)
    config = (
        TrainConfig.from_dict(_load_json(Path(args.config))) if args.config else finetune_config()
    )
    config = _apply_overrides(config, args)
    params = load_model(run / MODEL_FILE)
    bank = centroids.load_bank(run / BANK_FILE)
    config = dataclasses.replace(
        config, hidden_dims=params.hidden_dims, feature_dim=params.feature_dim
    )
    target = load_table(Path(args.data), num_classes=params.num_classes)
    params, report = trainer.finetune(params, bank, target, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_run(out, config, params, bank, report)
    print(f"fine-tuned on {len(target)} pseudo-labeled samples; run dir: {out}")


def cmd_evaluate(args) -> None:
    run = _run_dir(args.run)
    params = load_model(run / MODEL_FILE)
    ds = _model_table(args.data, params)
    results = trainer.evaluate_model(params, ds)
    stem = Path(args.data).stem
    out_path = run / f"eval_{stem}.csv"
    names, values = [], []
    for res in results:
        names += [res.name] + [f"{res.name}_class{k}" for k in range(len(res.per_class or ()))]
        values += [res.value, *(res.per_class or ())]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("metric,domain,value\n")
        row = csv_format(["%s", ds.domain.replace("%", "%%"), FLOAT], "\n")
        write_rows(fh, row, names, values)
    for res in results:
        print(f"{res.name} [{res.domain}]: {res.value:.6g}")
    print(f"wrote {out_path}")


def cmd_diagnose(args) -> None:
    run = _run_dir(args.run)
    params = load_model(run / MODEL_FILE)
    bank = centroids.load_bank(run / BANK_FILE)
    ds = _model_table(args.data, params)
    _, feats, _, _ = forward(params, ds.features)

    labels_seen = bank.seen[ds.labels].all() if bank.seen.any() else False
    use_trained = labels_seen and not args.empirical_centroids
    if not use_trained:
        bank = centroids.bank_from_features(feats, ds.labels, ds.num_classes)
    heatmap = diagnostics.class_centroid_heatmap(feats, ds.labels, bank, ds.domain)

    fit_feats = feats
    if args.fit_data:
        fit_ds = _model_table(args.fit_data, params, "fit dataset")
        _, fit_feats, _, _ = forward(params, fit_ds.features)
    basis = diagnostics.pca_2d(fit_feats)
    projection = dataclasses.replace(
        basis, coords=diagnostics.project_into(basis, feats), labels=ds.labels, domain=ds.domain
    )
    spread = diagnostics.feature_spread(feats)

    stem = Path(args.data).stem
    heat_path = run / f"heatmap_{stem}.csv"
    pca_path = run / f"pca_{stem}.csv"
    spread_path = run / f"spread_{stem}.txt"
    diagnostics.save_heatmap(heatmap, heat_path)
    diagnostics.save_projection(projection, pca_path)
    with open(spread_path, "w", encoding="utf-8") as fh:
        fh.write(f"spread {spread:.17g}\n")
        fh.write(f"explained_pc1 {projection.explained[0]:.17g}\n")
        fh.write(f"explained_pc2 {projection.explained[1]:.17g}\n")
        fh.write(f"centroids {'trained' if use_trained else 'empirical'}\n")
        fh.write(f"mean_heatmap_diagonal {heatmap.mean_diagonal:.17g}\n")
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

    p = sub.add_parser("train", help="train on a source dataset (70/10/20 split)")
    p.add_argument("--config", help="TrainConfig JSON file (defaults if omitted)")
    p.add_argument("--data", required=True, help="source dataset CSV")
    p.add_argument("--out", required=True, help="run directory to create")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--alpha", type=float, help="override the contrast weight")
    p.add_argument("--epochs", type=int, help="override the epoch count")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="pseudo-label fine-tune a trained run")
    p.add_argument("--run", required=True, help="existing run directory")
    p.add_argument("--data", required=True, help="target dataset CSV (labels ignored)")
    p.add_argument("--out", required=True, help="new run directory")
    p.add_argument("--config", help="TrainConfig JSON overriding the fine-tune defaults")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--alpha", type=float, help="override the contrast weight")
    p.add_argument("--epochs", type=int, help="override the epoch count")
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
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
