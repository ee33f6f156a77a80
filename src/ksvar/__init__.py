"""Sparse effective-connectivity inference from multivariate time series.

Directed networks are read off a kernel-based structural VAR model: each
node is regressed on instantaneous and lagged nonlinear transforms of the
others, whole coefficient blocks are zeroed by a group-sparse penalty, and
surviving blocks become directed edges.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConstantColumn,
    DegenerateSeries,
    InsufficientSamples,
    KsvarError,
    LabelMismatch,
    NonFinite,
    NotSymmetric,
    ShapeMismatch,
    SingularSystem,
    WindowTooLong,
)
from .panel import (
    LagAlignedView,
    NoiseModel,
    SegmentationConfig,
    TimeSeriesPanel,
    lag_view,
    read_csv_panel,
    segment,
    standardize,
    write_csv_panel,
)
from .kernels import (
    KernelDictionary,
    KernelMatrixSet,
    KernelSpec,
    assemble,
    build_gram,
    build_kernel_set,
    eval_kernel,
    median_bandwidth,
    parse_kernel_spec,
)
from .solver import (
    CoefficientTensor,
    DualState,
    EffectiveNetwork,
    FitDiagnostics,
    SolverConfig,
    admm_fit,
    block_shrinkage,
    cross_validate_lambda,
    predict,
    ridge_fit,
    select_lag_bic,
    threshold_edges,
)
from .metrics import (
    MetricsReport,
    betweenness,
    closeness,
    clustering,
    compute_report,
    degrees,
    global_metrics,
)
from .mkl import MklCoefficientTensor
from .synth import (
    GroundTruth,
    RecoveryScore,
    SynthConfig,
    generate_truth,
    score_recovery,
    simulate,
)
from .pipeline import (
    PipelineConfig,
    aggregate_networks,
    compare_runs,
    load_network,
    run_pipeline,
    save_network,
)
