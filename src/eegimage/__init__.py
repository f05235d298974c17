"""EEG harmful-brain-activity classification with a learnable EEG-to-image
embedding, a small convolutional backbone and a soft-label training protocol."""

__version__ = "0.1.0"

from .analysis import (  # noqa: F401
    PretextConfig,
    extract_embeddings,
    pretrain_backbone,
    run_ablation,
)
from .augment import AugmentConfig  # noqa: F401
from .data import (  # noqa: F401
    CLASS_NAMES,
    ClassId,
    DatasetManifest,
    EegSegment,
    FoldAssignment,
    consensus,
    soft_label,
    split_folds,
)
from .metrics import EvalReport, evaluate, mean_kld, wilcoxon_rank_sum  # noqa: F401
from .model import ModelConfig, init_params  # noqa: F401
from .preprocess import FilterSpec  # noqa: F401
from .synthgen import SynthConfig, generate  # noqa: F401
from .train import (  # noqa: F401
    RunRecord,
    StageConfig,
    default_stage1,
    default_stage2,
    ensemble_predict,
    load_dataset,
    run_cv,
)
from .tsne import TsneConfig, tsne  # noqa: F401
