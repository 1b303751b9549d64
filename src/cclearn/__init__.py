"""Centroid-contrast training for domain-shift robustness.

A classifier is trained with cross-entropy plus a contrastive term that
pulls each sample's (l2-normalized) feature vector toward its own class
centroid and away from the centroids of other classes. Centroids live in an
EMA-updated bank whose smoothing coefficient tightens over epochs. The
package also ships the pseudo-label fine-tuning recipe, ordinal/ranking
metrics (quadratic weighted kappa, ROC-AUC), and feature-space diagnostics.
"""

from .centroids import (
    CentroidBank,
    bank_from_features,
    batch_class_means,
    ema_update,
    init_bank,
    load_bank,
    normalize_rows,
    save_bank,
    update_smoothing,
)
from .data import Dataset, SynthConfig, generate_blobs, load_table, make_batches, save_table, split_dataset
from .diagnostics import (
    HeatmapMatrix,
    PcaProjection,
    class_centroid_heatmap,
    feature_spread,
    pca_2d,
    project_into,
)
from .errors import (
    DegenerateVectorError,
    StateError,
    TableParseError,
    TrainingError,
    UndefinedMetricError,
    UndefinedProjectionError,
)
from .losses import (
    LossBreakdown,
    combined_loss,
    combined_loss_and_grads,
    softmax,
)
from .metrics import EvalResult, accuracy, auc_binary, auc_macro_ovr, quadratic_weighted_kappa
from .model import (
    ForwardCache,
    Gradients,
    ModelParams,
    OptimState,
    backward,
    forward,
    init_params,
    load_model,
    lr_at,
    save_model,
    sgd_step,
)
from .trainer import (
    EpochRecord,
    RunReport,
    TrainConfig,
    evaluate_model,
    finetune,
    finetune_config,
    pseudo_label,
    train,
)

__version__ = "0.1.0"
