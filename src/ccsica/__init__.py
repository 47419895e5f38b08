"""Blind source separation with a convex Cauchy-Schwarz contrast."""

from .errors import (CcsIcaError, DegenerateDivergence, InvalidInput, IoFailure,
                     NonFinite, RankDeficient, SingularDemixer)
from .preprocess import (WhiteningTransform, center_and_whiten, remove_mean,
                         validate_signal, whiten)
from .divergences import (DIVERGENCE_IDS, DiscreteBivariate, alpha_div, beta_div,
                          c_div, ccs_angle, ccs_div, convex_f, convex_f_prime,
                          cs_angle, cs_div, divergence_slice, divergence_surface,
                          e_div, f_div, js_div, kl_div, make_divergence)
from .density import default_bandwidth
from .objective import CcsObjective
from .optimizers import (ALGORITHMS, GdConfig, JacobiConfig, SeparationResult,
                         compose_demixer, ica_gradient_descent, ica_pairwise_gd,
                         ica_pairwise_jacobi, rotation, separate)
from .sources import (SOURCE_KINDS, MixingModel, draw_source, mix,
                      noise_sigma_for_snr, random_mixing_matrix, rng_for, source_bank)
from .metrics import align_sources, amari_index, kurtosis, sir_db
from .fileio import (read_matrix_csv, read_signal_csv, read_wav, write_csv,
                     write_matrix_csv, write_signal_csv, write_wav)
from .bench import TABLE_IDS, run_bench

__version__ = "0.1.0"

__all__ = [
    "CcsIcaError", "DegenerateDivergence", "InvalidInput", "IoFailure",
    "NonFinite", "RankDeficient", "SingularDemixer",
    "WhiteningTransform", "center_and_whiten", "remove_mean", "validate_signal", "whiten",
    "DIVERGENCE_IDS", "DiscreteBivariate", "alpha_div", "beta_div", "c_div",
    "ccs_angle", "ccs_div", "convex_f", "convex_f_prime", "cs_angle", "cs_div",
    "divergence_slice", "divergence_surface", "e_div", "f_div", "js_div",
    "kl_div", "make_divergence",
    "default_bandwidth",
    "CcsObjective",
    "ALGORITHMS", "GdConfig", "JacobiConfig", "SeparationResult", "compose_demixer",
    "ica_gradient_descent", "ica_pairwise_gd", "ica_pairwise_jacobi", "rotation",
    "separate",
    "SOURCE_KINDS", "MixingModel", "draw_source", "mix",
    "noise_sigma_for_snr", "random_mixing_matrix", "rng_for", "source_bank",
    "align_sources", "amari_index", "kurtosis", "sir_db",
    "read_matrix_csv", "read_signal_csv", "read_wav", "write_csv",
    "write_matrix_csv", "write_signal_csv", "write_wav",
    "TABLE_IDS", "run_bench",
    "__version__",
]
