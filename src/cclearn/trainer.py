"""Training orchestration: source-domain runs with the centroid-contrast
objective, and target-domain pseudo-label fine-tuning.

One source epoch: advance the smoothing coefficient, then for every batch
run forward, blend the losses, backpropagate, take the SGD step at the
scheduled rate, and finally fold the batch's (pre-step) normalized features
into the centroid bank. With alpha = 0 the contrast/centroid machinery is
never touched, so such a run is bit-for-bit a plain cross-entropy run.

Fine-tuning adapts a trained model to unlabeled target data: pseudo-labels
are the argmax of the model's logits computed once up front, then one epoch
of cross-entropy-only training at a constant 1e-6 rate, bank untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .centroids import CentroidBank, batch_class_means, ema_update, init_bank, update_smoothing
from .codec import floats, write_rows
from .data import Dataset, JsonConfig, make_batches, require_numbers
from .errors import DegenerateVectorError, TrainingError, UndefinedMetricError
from .losses import combined_loss_and_grads, softmax
from .metrics import EvalResult, accuracy, auc_macro_ovr, quadratic_weighted_kappa
from .model import ModelParams, OptimState, backward, forward, init_params, lr_at, sgd_step

# sub-stream tags hung off the one user seed
_STREAM_INIT = 101
_STREAM_SHUFFLE = 202

@dataclass
class TrainConfig(JsonConfig):
    """Hyperparameters; defaults are the source-training recipe."""

    alpha: float = 1.0
    tau: float = 1.0
    m0: float = 0.999
    epochs: int = 50
    batch_size: int = 32
    base_lr: float = 1e-3
    warmup_epochs: int = 1
    seed: int = 0
    hidden_dims: tuple[int, ...] = (64, 64)
    feature_dim: int = 32
    shuffle: bool = True

    def validate(self) -> None:
        require_numbers(self, Integral, ("epochs", "batch_size", "warmup_epochs", "seed",
                                         "feature_dim"), ("hidden_dims",))
        require_numbers(self, Real, ("alpha", "tau", "m0", "base_lr"))
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not 0.0 <= self.m0 < 1.0:
            raise ValueError(f"m0 must lie in [0, 1), got {self.m0}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.base_lr < 0:
            raise ValueError(f"base_lr must be >= 0, got {self.base_lr}")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if not isinstance(self.hidden_dims, (tuple, list)) or any(h < 1 for h in self.hidden_dims):
            raise ValueError(
                f"config key 'hidden_dims' must list positive sizes, got {self.hidden_dims!r}"
            )
        if not isinstance(self.shuffle, (bool, np.bool_)):
            raise ValueError(f"config key 'shuffle' must be true or false, got {self.shuffle!r}")


def finetune_config(**overrides) -> TrainConfig:
    """Fine-tuning defaults: alpha 0, lr 1e-6, one epoch, no warm-up."""
    base = TrainConfig(alpha=0.0, base_lr=1e-6, epochs=1, warmup_epochs=0)
    return replace(base, **overrides) if overrides else base


@dataclass
class EpochRecord:
    epoch: int
    m: float
    lr: float
    ce: float
    cont: float
    total: float
    ema_samples: int
    val_accuracy: float = math.nan
    val_kappa: float = math.nan


@dataclass
class RunReport:
    """Everything a run produced, minus the heavyweight arrays themselves."""

    config: TrainConfig
    history: list[EpochRecord] = field(default_factory=list)
    eval_results: list[EvalResult] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)


def predict_logits(params: ModelParams, ds: Dataset) -> np.ndarray:
    if ds.input_dim != params.input_dim:
        raise ValueError(
            f"dataset dim {ds.input_dim} does not match model input {params.input_dim}"
        )
    _, _, logits, _ = forward(params, ds.features)
    return logits


def pseudo_label(params: ModelParams, ds: Dataset) -> np.ndarray:
    """Argmax of the head's softmax per sample; ties go to the lowest index."""
    return np.argmax(predict_logits(params, ds), axis=1)


def _accuracy_and_kappa(logits: np.ndarray, ds: Dataset) -> tuple[float, float]:
    """Accuracy and quadratic weighted kappa (NaN when undefined) of the argmax."""
    preds = np.argmax(logits, axis=1)
    acc = accuracy(ds.labels, preds)
    try:
        kappa = quadratic_weighted_kappa(ds.labels, preds, ds.num_classes)
    except UndefinedMetricError:
        kappa = math.nan
    return acc, kappa


def evaluate_model(params: ModelParams, ds: Dataset) -> list[EvalResult]:
    """Accuracy, quadratic weighted kappa, and macro one-vs-rest AUC on a dataset.

    Metrics that are undefined for the dataset at hand come back as NaN
    rather than failing the whole evaluation.
    """
    logits = predict_logits(params, ds)
    acc, kappa = _accuracy_and_kappa(logits, ds)
    results = [
        EvalResult("accuracy", acc, ds.domain),
        EvalResult("quadratic_weighted_kappa", kappa, ds.domain),
    ]
    try:
        macro, per_class = auc_macro_ovr(softmax(logits), ds.labels)
        results.append(EvalResult("auc_macro_ovr", macro, ds.domain, tuple(per_class)))
    except UndefinedMetricError:
        results.append(EvalResult("auc_macro_ovr", math.nan, ds.domain))
    return results


def train(
    train_ds: Dataset,
    val_ds: Dataset | None,
    config: TrainConfig,
    epoch_callback=None,
) -> tuple[ModelParams, CentroidBank, RunReport]:
    """Source-domain training run; deterministic under config.seed.

    Returns the final model, the centroid bank (untouched when alpha = 0),
    and a report with one record per epoch. ``epoch_callback(epoch, params,
    bank, record)`` runs after each epoch when given.
    """
    config.validate()
    if val_ds is not None and val_ds.input_dim != train_ds.input_dim:
        raise ValueError("train and val datasets disagree on input dimension")
    num_classes = train_ds.num_classes
    if num_classes < 2:
        raise ValueError(f"training needs >= 2 classes, got {num_classes}")

    params = init_params(
        train_ds.input_dim,
        config.hidden_dims,
        config.feature_dim,
        num_classes,
        np.random.default_rng([config.seed, _STREAM_INIT]),
    )
    bank = init_bank(num_classes, config.feature_dim, config.m0)
    steps_per_epoch = math.ceil(len(train_ds) / config.batch_size)
    opt = OptimState(config.base_lr, config.warmup_epochs, config.epochs, steps_per_epoch)
    report = RunReport(config=config)

    for epoch in range(config.epochs):
        update_smoothing(bank, epoch, config.epochs)
        record = _run_epoch(params, bank, train_ds, config, opt, epoch, source=True)
        if val_ds is not None:
            logits = predict_logits(params, val_ds)
            if not np.isfinite(logits).all():
                raise TrainingError(
                    f"non-finite validation logits after epoch {epoch}, step {opt.step - 1}"
                )
            record.val_accuracy, record.val_kappa = _accuracy_and_kappa(logits, val_ds)
        report.history.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, params, bank, record)

    if val_ds is not None and config.epochs > 0:
        report.eval_results = evaluate_model(params, val_ds)
    return params, bank, report


def finetune(
    params: ModelParams,
    bank: CentroidBank,
    target_ds: Dataset,
    config: TrainConfig | None = None,
    epoch_callback=None,
) -> tuple[ModelParams, RunReport]:
    """Adapt a trained model to unlabeled target data via pseudo-labels.

    Labels are assigned once before training (argmax of the current model's
    logits); the dataset's own labels are ignored. Training runs at the
    constant configured rate with no schedule, and the bank is never updated.
    """
    if config is None:
        config = finetune_config()
    config.validate()
    labels = pseudo_label(params, target_ds)
    ds = Dataset(target_ds.features, labels, target_ds.domain, target_ds.num_classes)
    report = RunReport(config=config)
    opt = OptimState(config.base_lr, 0, config.epochs, math.ceil(len(ds) / config.batch_size))
    for epoch in range(config.epochs):
        record = _run_epoch(params, bank, ds, config, opt, epoch, source=False)
        report.history.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, params, bank, record)
    return params, report


def _run_epoch(
    params: ModelParams, bank: CentroidBank, ds: Dataset, config: TrainConfig,
    opt: OptimState, epoch: int, source: bool,
) -> EpochRecord:
    """One pass over ``ds``: forward, blended loss, backward and an SGD step per batch.

    Source training (``source``) takes the rate from ``opt``'s schedule and,
    when alpha > 0, folds each batch's features into the bank. Fine-tuning
    runs at the constant ``opt.base_lr`` and never updates the bank.
    """
    n = len(ds)
    ce_sum = cont_sum = 0.0
    ema_samples = 0
    lr = opt.base_lr
    batches = make_batches(
        ds, config.batch_size, seed=[config.seed, _STREAM_SHUFFLE, epoch], shuffle=config.shuffle
    )
    for batch in batches:
        y = ds.labels[batch]
        try:
            _, fhat, logits, cache = forward(params, ds.features[batch])
        except DegenerateVectorError as exc:
            raise TrainingError(
                f"degenerate features at epoch {epoch}, step {opt.step}: {exc}"
            ) from exc
        if not np.isfinite(logits).all():
            raise TrainingError(
                f"non-finite logits at epoch {epoch}, step {opt.step}; training has diverged"
            )
        breakdown, d_feat, d_logits = combined_loss_and_grads(
            fhat, logits, y, bank, config.alpha, config.tau
        )
        if not math.isfinite(breakdown.total):
            raise TrainingError(f"non-finite loss at epoch {epoch}, step {opt.step}: {breakdown}")
        grads = backward(params, cache, d_feat, d_logits)
        if source:
            lr = lr_at(opt, opt.step)
        opt.step += 1
        sgd_step(params, grads, lr)
        if source and config.alpha > 0:
            # the EMA sees the same features the loss saw (pre-step)
            means, mask = batch_class_means(fhat, y, ds.num_classes)
            ema_update(bank, means, mask)
            ema_samples += len(batch)
        ce_sum += breakdown.ce * len(batch)
        cont_sum += breakdown.cont * len(batch)
    # the loop checks only each step's input
    if not all(np.isfinite(t).all() for layer in params.layers for t in layer):
        raise TrainingError(f"non-finite parameters after epoch {epoch}, step {opt.step - 1}")
    return EpochRecord(
        epoch=epoch, m=bank.m, lr=lr, ce=ce_sum / n, cont=cont_sum / n,
        total=ce_sum / n + config.alpha * cont_sum / n, ema_samples=ema_samples,
    )


def write_history_csv(report: RunReport, path) -> None:
    h = report.history
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,m,lr,ce,cont,total,ema_samples,val_accuracy,val_kappa\n")
        write_rows(
            fh, "%d," + floats(5, ",") + ",%d," + floats(2, ",") + "\n",
            [r.epoch for r in h], [[r.m, r.lr, r.ce, r.cont, r.total] for r in h],
            [r.ema_samples for r in h], [[r.val_accuracy, r.val_kappa] for r in h],
        )


def render_report(report: RunReport) -> str:
    """Deterministic human-readable run summary."""
    cfg = report.config
    out = [
        "centroid-contrast run report",
        "============================",
        f"seed: {cfg.seed}",
        f"alpha: {cfg.alpha:g}  tau: {cfg.tau:g}  m0: {cfg.m0:g}",
        f"epochs: {cfg.epochs}  batch_size: {cfg.batch_size}  base_lr: {cfg.base_lr:g}"
        f"  warmup_epochs: {cfg.warmup_epochs}",
        f"model: hidden={list(cfg.hidden_dims)} feature_dim={cfg.feature_dim}",
        "",
    ]
    if report.history:
        last = report.history[-1]
        out.append(f"epochs run: {len(report.history)}")
        out.append(
            f"final epoch: ce={last.ce:.6g} cont={last.cont:.6g} total={last.total:.6g} "
            f"m={last.m:.6g}"
        )
        if not math.isnan(last.val_accuracy):
            out.append(
                f"final val: accuracy={last.val_accuracy:.6g} kappa={last.val_kappa:.6g}"
            )
    else:
        out.append("epochs run: 0")
    if report.eval_results:
        out.append("")
        out.append("evaluation:")
        for res in report.eval_results:
            tag = f" [{res.domain}]" if res.domain else ""
            out.append(f"  {res.name}{tag}: {res.value:.6g}")
            if res.per_class is not None:
                cells = " ".join(f"{v:.6g}" for v in res.per_class)
                out.append(f"    per-class: {cells}")
    if report.artifacts:
        out.append("")
        out.append("artifacts:")
        for name in sorted(report.artifacts):
            out.append(f"  {name}: {report.artifacts[name]}")
    return "\n".join(out) + "\n"
