"""Simultaneous confidence bands and goodness-of-fit tests for functional data."""

from .errors import (
    DegenerateVarianceError,
    FactorizationError,
    FuncbandError,
    GridError,
    IllPosedBandwidthError,
    IntegrationError,
    RankDeficiencyError,
    SampleValidationError,
    SingularDesignError,
)
from .grids import (
    DesignGrid,
    EvalGrid,
    FunctionalSample,
    make_design_grid,
    make_eval_grid,
    read_curves_csv,
    uniform_design_grid,
    write_curves_csv,
)
from .smoothing import cv_bandwidth, fit_mean, local_linear_weights, weight_matrix
from .moments import (
    empirical_correlation,
    empirical_data_covariance,
    empirical_variance,
    psd_repair,
    schafer_strimmer_lambda,
    shrink_correlation,
)
from .supnorm import (
    SupQuantileRequest,
    SupQuantileResult,
    default_path_count,
    simulate_sup_norms,
    sup_quantile,
)
from .bands import (
    BandResult,
    TwoSampleResult,
    band_covers,
    bootstrap_scb,
    normal_scb,
    prediction_band,
    split_half_bandwidth,
    two_sample_scb,
)
from .gof import (
    BasisModel,
    GofReport,
    basis_model,
    gamma_n_plugin,
    limit_gamma,
    ls_fit,
    polynomial_basis,
    residual_process,
    scb_gof_test,
)
from .plrt import PlrtReport, ar1_covariance_fit, plrt_pvalue, plrt_statistic, plrt_test
from .simlab import (
    ExperimentRow,
    ExperimentTable,
    ModelSpec,
    bump_function,
    gen_model1,
    gen_model2,
    gen_model3,
    known_R_threshold,
    run_experiment,
)

__version__ = "0.1.0"
