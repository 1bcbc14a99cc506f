"""Sparse-linear-array DOA estimation with variable-window-size
coarray spatial smoothing (MUSIC and root-MUSIC variants), plus a
reproducible Monte Carlo RMSE benchmark harness."""

__version__ = "0.1.0"

from .coarray import (SmoothedMatrix, coarray_signal, lag_sums,
                      max_shrinkage, vws_smooth)
from .estimators import (EstimationResult, Spectrum, default_grid,
                         estimate_doas, music_spectrum, noise_subspace,
                         pick_peaks, root_music, save_spectrum_csv)
from .geometry import (ArrayGeometry, Coarray, build_mra, build_nested,
                       build_super_nested, build_ula, difference_coarray)
from .montecarlo import (ExperimentConfig, InfeasibleShrinkageError,
                         SweepResult, estimate_trial, rmse_sweep, run_trial,
                         write_sweep_csv, write_sweep_json)
from .numerics import EigenDecomposition, hermitian_evd, polynomial_roots
from .signal_model import (SourceScene, exact_covariance, sample_covariance,
                           simulate_snapshots, snr_to_noise_var,
                           steering_matrix)
