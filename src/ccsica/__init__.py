"""Blind source separation with a convex Cauchy-Schwarz contrast."""

from .errors import (CcsIcaError, DegenerateDivergence, InvalidInput, IoFailure,
                     NonFinite, RankDeficient, SingularDemixer)
from .preprocess import WhiteningTransform, center_and_whiten, validate_signal
from .divergences import (DIVERGENCE_IDS, DiscreteBivariate, alpha_div, beta_div,
                          c_div, ccs_div, convex_f, convex_f_prime, cs_div,
                          divergence_slice, divergence_surface, e_div, js_div,
                          kl_div, make_divergence)
from .density import default_bandwidth
from .objective import CcsObjective
from .optimizers import (ALGORITHMS, GdConfig, JacobiConfig, SeparationResult, rotation,
                         separate)
from .sources import (SOURCE_KINDS, MixingModel, draw_source, mix,
                      noise_sigma_for_snr, random_mixing_matrix, rng_for, source_bank)
from .metrics import align_sources, amari_index, kurtosis, sir_db

__version__ = "0.1.0"

__all__ = [
    "CcsIcaError", "DegenerateDivergence", "InvalidInput", "IoFailure",
    "NonFinite", "RankDeficient", "SingularDemixer",
    "WhiteningTransform", "center_and_whiten", "validate_signal",
    "DIVERGENCE_IDS", "DiscreteBivariate", "alpha_div", "beta_div", "c_div",
    "ccs_div", "convex_f", "convex_f_prime", "cs_div",
    "divergence_slice", "divergence_surface", "e_div", "js_div",
    "kl_div", "make_divergence",
    "default_bandwidth",
    "CcsObjective",
    "ALGORITHMS", "GdConfig", "JacobiConfig", "SeparationResult", "rotation", "separate",
    "SOURCE_KINDS", "MixingModel", "draw_source", "mix",
    "noise_sigma_for_snr", "random_mixing_matrix", "rng_for", "source_bank",
    "align_sources", "amari_index", "kurtosis", "sir_db",
    "__version__",
]
