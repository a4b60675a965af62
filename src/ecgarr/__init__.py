"""ECG arrhythmia detection with fixed-point neural inference.

Subpackages cover signal ingestion, wavelet-domain QRS detection,
feature extraction, a small trainable classifier with a quantized
deployment path, an RR-interval self-learning monitor, and evaluation
tooling.  Everything is importable from the submodules; this top level
re-exports only the handful of names used most.
"""

from .fixedpoint import QFormat
from .activation import platanh, tanh_exact
from .dsp import PeakTrain, detect_r_peaks
from .features import PCAModel, fit_pca
from .mlp import (
    MlpModel,
    init_model,
    load_model,
    predict,
    predict_batch,
    quantize_model,
    save_model,
    train,
)
from .selflearn import AnomalyEvent, run_self_learner
from .metrics import ConfusionCounts, MetricsReport, compute_metrics, match_beats
from .experiment import PipelineConfig, run_experiment, sweep_fraction_bits

__all__ = [
    "AnomalyEvent",
    "ConfusionCounts",
    "MetricsReport",
    "MlpModel",
    "PCAModel",
    "PeakTrain",
    "PipelineConfig",
    "QFormat",
    "compute_metrics",
    "detect_r_peaks",
    "fit_pca",
    "init_model",
    "load_model",
    "match_beats",
    "platanh",
    "predict",
    "predict_batch",
    "quantize_model",
    "run_experiment",
    "run_self_learner",
    "save_model",
    "sweep_fraction_bits",
    "tanh_exact",
    "train",
]

__version__ = "0.1.0"
