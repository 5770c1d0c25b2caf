"""smoothcert: train, certify, and bound noise-smoothed majority-vote MLPs.

The package trains ReLU MLPs under input noise with an optional
row-decorrelation spectral regularizer, certifies per-example L2 robustness
radii by Monte-Carlo voting under joint weight+input Gaussian noise, and
evaluates closed-form generalization bounds from per-layer weight norms.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    eps_x,
    evaluate_bound,
    generalization_bound,
    kl_term,
    phi,
    psi,
    tau_solve,
    vote_probability_gap,
)
from .data import (
    Dataset,
    augment,
    load_checkpoint,
    load_idx,
    save_checkpoint,
    synth_blobs,
    synth_digits,
)
from .nn import MlpModel, init_model
from .rng import stream
from .sigma_select import SigmaSearchConfig, SigmaSearchResult, select_sigma
from .smoothing import (
    ABSTAIN,
    CertifyResult,
    NoiseConfig,
    VoteCounts,
    certified_accuracy_curve,
    certified_radius,
    certify,
    empirical_margin_loss,
    lower_conf_bound,
    sample_under_noise,
)
from .spectral import (
    SpectralReport,
    collapsed_weight,
    gershgorin_bound,
    regularizer_and_gradient,
    spectral_norm,
    spectral_report,
)
from .train import EpochMetrics, TrainConfig, TrainingDiverged, train

__version__ = "0.1.0"

__all__ = [
    "ABSTAIN",
    "BoundInputs",
    "BoundReport",
    "CertifyResult",
    "Dataset",
    "EpochMetrics",
    "MlpModel",
    "NoiseConfig",
    "SigmaSearchConfig",
    "SigmaSearchResult",
    "SpectralReport",
    "TrainConfig",
    "TrainingDiverged",
    "VoteCounts",
    "augment",
    "certified_accuracy_curve",
    "certified_radius",
    "certify",
    "collapsed_weight",
    "empirical_margin_loss",
    "eps_x",
    "evaluate_bound",
    "generalization_bound",
    "gershgorin_bound",
    "init_model",
    "kl_term",
    "load_checkpoint",
    "load_idx",
    "lower_conf_bound",
    "phi",
    "psi",
    "regularizer_and_gradient",
    "sample_under_noise",
    "save_checkpoint",
    "select_sigma",
    "spectral_norm",
    "spectral_report",
    "stream",
    "synth_blobs",
    "synth_digits",
    "tau_solve",
    "train",
    "vote_probability_gap",
]
