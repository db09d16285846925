"""Flat-top kernel spectral density estimation for functional time series."""

from .core import (
    DegenerateDataError,
    DimensionError,
    DomainError,
    FrequencyKernel,
    FunctionalSeries,
    Grid,
    NumericError,
    ParseError,
    SpectralEstimate,
    center,
    estimate_from_json_dict,
    estimate_to_csv_dir,
    estimate_to_json_dict,
    hs_distance,
    hs_norm,
    series_from_csv,
    series_from_json_dict,
    series_to_csv,
)
from .kernels import (
    FlatTopSpec,
    KernelFamily,
    UnsupportedKernelError,
    baseline_weight,
    capital_lambda_batch,
    effective_flat_top_radius,
    epanechnikov,
    flat_top_parzen,
    infinitely_differentiable,
    kernel_moment,
    lambda_eval,
    parse_kernel,
    support_radius,
    trapezoid,
    weight_function,
)
from .estimator import (
    DEFAULT_FREQUENCIES,
    autocovariance,
    estimate_lagwindow,
    estimate_smoothed,
    fdft_all,
)
from .psd import (
    clip_estimate,
    clip_to_pd,
    clip_to_psd,
    eigendecompose,
    min_eigenvalue,
)
from .bandwidth import BandwidthReport, correlogram, select_bandwidth
from .sim import (
    Fma1Model,
    ImseConfig,
    ImseRow,
    generate_fma1,
    imse_experiment,
    imse_from_estimate,
    make_fma1_model,
    true_spectrum,
)

__version__ = "0.1.0"
