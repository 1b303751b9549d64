"""Training orchestration: source-domain runs with the centroid-contrast
objective, and target-domain pseudo-label fine-tuning.

One source epoch: advance the smoothing coefficient, then for every batch
run forward, blend the losses, backpropagate, take the SGD step at the
scheduled rate, and finally fold the batch's (pre-step) normalized features
into the centroid bank. With alpha = 0 the contrast/centroid machinery is
never touched, so such a run is bit-for-bit a plain cross-entropy run.
Each epoch is validated by accuracy and kappa only. A per-epoch AUC would
change the columns and bytes of history.csv, and report.txt already holds
the final validation AUC from ``evaluate_model``.

Fine-tuning adapts a trained model to unlabeled target data: pseudo-labels
are the argmax of the model's logits computed once up front, then one epoch
of cross-entropy-only training at a constant 1e-6 rate, bank untouched. Both
run through one loop, ``_fit``, which continues a run from epoch ``len(report.history)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real

import numpy as np

from .centroids import CentroidBank, batch_class_means, ema_update, update_smoothing
from .codec import write_file
from .data import Dataset, JsonConfig, key, make_batches
from .errors import DegenerateVectorError, TrainingError, UndefinedMetricError
from .losses import combined_loss_and_grads, softmax
from .metrics import EvalResult, accuracy, auc_macro_ovr, quadratic_weighted_kappa
from .model import ModelParams, backward, forward, init_params, lr_at, sgd_step

# sub-stream tags hung off the one user seed
_STREAM_INIT = 101
_STREAM_SHUFFLE = 202
# ``infer`` runs ``forward`` per block of this many rows, the last one shorter: one block's cache is
# alive at a time, and each block's bits do not follow the BLAS thread count on any kernel tested
INFER_ROWS = 256

@dataclass
class TrainConfig(JsonConfig):
    """Hyperparameters; defaults are the source-training recipe."""

    alpha: float = key(1.0, Real, ge=0)
    tau: float = key(1.0, Real, gt=0)
    m0: float = key(0.999, Real, ge=0, lt=1)
    epochs: int = key(50, Integral, ge=0)
    batch_size: int = key(32, Integral, ge=1)
    base_lr: float = key(1e-3, Real, ge=0)
    warmup_epochs: int = key(1, Integral, ge=0)
    seed: int = key(0, Integral, ge=0)
    hidden_dims: tuple[int, ...] = key((64, 64), Integral, each="only", ge=1)
    feature_dim: int = key(32, Integral, ge=1)
    shuffle: bool = key(True, bool)


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


def infer(params: ModelParams, x: np.ndarray, output: int) -> np.ndarray:
    """``forward(params, block)[output]`` (1: normalized features, 2: logits) of each block
    of INFER_ROWS rows in turn, in one output: up to INFER_ROWS rows are one ``forward``."""
    for start in range(0, max(1, len(x)), INFER_ROWS):
        try:
            block = forward(params, x[start : start + INFER_ROWS])[output]
        except DegenerateVectorError as exc:
            if start:  # the error numbers the rows of its block
                raise DegenerateVectorError(f"in the block from row {start}: {exc}") from exc
            raise
        if not start:
            out = np.empty((len(x), *block.shape[1:]), block.dtype)
        out[start : start + len(block)] = block
    return out


def predict_logits(params: ModelParams, ds: Dataset) -> np.ndarray:
    return infer(params, ds.features, 2)  # forward refuses a dataset of another dim


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
    params = init_params(  # it and the bank refuse fewer than 2 classes
        train_ds.input_dim,
        config.hidden_dims,
        config.feature_dim,
        train_ds.num_classes,
        np.random.default_rng([config.seed, _STREAM_INIT]),
    )
    bank = CentroidBank(train_ds.num_classes, config.feature_dim, config.m0)
    report = _fit(params, bank, RunReport(config), train_ds, val_ds, epoch_callback, source=True)
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
    ``params`` is updated in place and returned: deep-copy it first to keep the source model.
    """
    if config is None:
        config = finetune_config()
    config.validate()
    labels = pseudo_label(params, target_ds)
    ds = Dataset(target_ds.features, labels, target_ds.domain, target_ds.num_classes)
    return params, _fit(params, bank, RunReport(config), ds, None, epoch_callback, source=False)


def _fit(
    params: ModelParams, bank: CentroidBank, report: RunReport, ds: Dataset,
    val_ds: Dataset | None, epoch_callback, source: bool,
) -> RunReport:
    """Epochs ``len(report.history)`` to ``report.config.epochs - 1`` of ``train`` or ``finetune``
    over ``ds``, each validated on ``val_ds`` when given and added to ``report``. Only ``source``
    runs advance the smoothing, follow ``lr_at``'s schedule and, when alpha > 0, fold into the bank."""
    config, n = report.config, len(ds)
    fold = source and config.alpha > 0  # fold the batch's features into the bank
    steps = math.ceil(n / config.batch_size)
    schedule = config.base_lr, config.warmup_epochs * steps, config.epochs * steps
    grads = None  # the first step's backward allocates the one buffer every step writes
    for epoch in range(len(report.history), config.epochs):
        if source:
            update_smoothing(bank, epoch, config.epochs)
        ce_sum = cont_sum = 0.0
        batches = make_batches(
            ds, config.batch_size, seed=[config.seed, _STREAM_SHUFFLE, epoch],
            shuffle=config.shuffle,
        )
        for step, batch in enumerate(batches, epoch * steps):
            y = ds.labels[batch]
            try:  # ds is finite and of the model's input dim, so forward only refuses a norm
                _, fhat, logits, cache = forward(params, ds.features[batch])
                breakdown, d_feat, d_logits = combined_loss_and_grads(
                    fhat, logits, y, bank, config.alpha, config.tau
                )
            except ValueError as exc:
                if not isinstance(exc, DegenerateVectorError) and np.isfinite(logits).all():
                    raise  # not a divergence: the error keeps its type
                what = f"diverged at epoch {epoch}, step {step}" if step else (  # nothing moved yet
                    "the initial model's features cannot be normalised before any step (hidden_dims "
                    f"{list(config.hidden_dims)}, feature_dim {config.feature_dim}, seed {config.seed})")
                raise TrainingError(f"{what}: {exc}") from exc
            if not math.isfinite(breakdown.total):
                raise TrainingError(f"non-finite loss at epoch {epoch}, step {step}: {breakdown}")
            grads = backward(params, cache, d_feat, d_logits, out=grads)
            lr = lr_at(step, *schedule) if source else config.base_lr
            sgd_step(params, grads, lr)
            if fold:
                # the EMA sees the same features the loss saw (pre-step)
                means, mask = batch_class_means(fhat, y, ds.num_classes)
                ema_update(bank, means, mask)
            ce_sum += breakdown.ce * len(batch)
            cont_sum += breakdown.cont * len(batch)
        after = f"after epoch {epoch}, step {step}"
        # the loop checks only each step's input
        if not np.isfinite(params.flat).all():
            raise TrainingError(f"non-finite parameters {after}")
        record = EpochRecord(
            epoch=epoch, m=bank.m, lr=lr, ce=ce_sum / n, cont=cont_sum / n,
            total=ce_sum / n + config.alpha * cont_sum / n, ema_samples=n if fold else 0,
        )
        if val_ds is not None:
            try:
                logits = predict_logits(params, val_ds)
            except DegenerateVectorError as exc:  # finite parameters may still overflow a norm
                raise TrainingError(f"degenerate validation features {after}: {exc}") from exc
            if not np.isfinite(logits).all():
                raise TrainingError(f"non-finite validation logits {after}")
            record.val_accuracy, record.val_kappa = _accuracy_and_kappa(logits, val_ds)
        report.history.append(record)
        if epoch_callback is not None:
            epoch_callback(epoch, params, bank, record)
    return report


def write_history_csv(report: RunReport, path) -> None:
    columns = fields(EpochRecord)  # in order: each column's header name and its cells' type
    write_file(
        path, ",", "\n", ",".join(f.name for f in columns) + "\n",
        tuple(np.array([getattr(r, f.name) for r in report.history], f.type) for f in columns),
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
        f"epochs run: {len(report.history)}",
    ]
    if report.history:
        last = report.history[-1]
        out.append(
            f"final epoch: ce={last.ce:.6g} cont={last.cont:.6g} total={last.total:.6g} "
            f"m={last.m:.6g}"
        )
        if not math.isnan(last.val_accuracy):
            out.append(
                f"final val: accuracy={last.val_accuracy:.6g} kappa={last.val_kappa:.6g}"
            )
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
