"""Localized structured prediction: part-based kernel estimators, decoders,
and locality diagnostics."""

from .parts import (
    GridPatches,
    PartIndexError,
    SequenceWindows,
    ShapeMismatchError,
    Uniform,
    VectorBlocks,
    Weighted,
    cover_counts,
    extract_part,
    part_distance,
    sample_part,
    uniform_for,
)
from .kernels import (
    GaussianGlobal,
    GaussianParts,
    GramMatrix,
    LinearParts,
    Restriction,
    SumKernel,
    cross_matrix,
    gram_matrix,
    kernel_eval,
    kernel_sup,
    part_kernel_eval,
)
from .losses import (
    ANGULAR_SIN_SQ,
    SQUARED_VECTOR,
    ZERO_ONE_WINDOW,
    LossSpec,
    part_loss,
    structured_loss,
)
from .training import (
    AlphaModel,
    AuxiliarySample,
    AuxiliarySet,
    FactorizationError,
    NonFiniteError,
    alpha_at,
    alpha_at_parts,
    enumerate_auxiliary,
    fit_alpha,
    generate_auxiliary,
)
from .decoder import (
    AngleWrap,
    AngularDecoder,
    BoxProjection,
    CapacityError,
    ClosedForm,
    DecodeRequest,
    DegenerateDecodeWarning,
    ExactEnumeration,
    LeastSquaresDecoder,
    SGM,
    decode_angular,
    decode_exact,
    decode_least_squares,
    decode_sgm,
)
from .locality import (
    InsufficientDataError,
    LocalityReport,
    RawInner,
    SequenceBound,
    SquaredKernel,
    UnsupportedConfigurationError,
    empirical_cov_map,
    locality_constants,
    sequence_bound_check,
)
from .bench import (
    AngularConfig,
    BenchResult,
    BenchRow,
    SyntheticConfig,
    block_correlation,
    gen_orientation_fields,
    gen_synthetic_dataset,
    noiseless_targets,
    run_estimator_comparison,
    run_learning_curve,
)

__version__ = "0.1.0"
