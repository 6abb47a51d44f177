"""Composite networks built from frozen pre-trained parts.

Components (small feedforward nets, frozen or trainable) are wired into
rooted DAGs through trainable linear combinations and activations.  The
package provides the closed-form optimal combiner, the scaled-activation
sandwich that lets a smooth non-linearity emulate it, greedy / balanced /
exhaustive construction algorithms, and Monte Carlo verification of the
statistical performance guarantees.
"""

from .activations import (
    Activation,
    LINEAR,
    LOGISTIC,
    RELU,
    SL,
    TANH,
    parse_activation,
    scaled_logistic,
)
from .bounds import (
    BoundReport,
    TrialSpec,
    near_perpendicular,
    verify_add_width,
    verify_depth_compounding,
    verify_orthogonality,
    verify_strict_improvement,
)
from .construct import (
    CandidateRecord,
    ConstructionConfig,
    ConstructionError,
    ConstructionReport,
    StepRecord,
    balanced_schedule,
    bbcn,
    chain_schedule,
    component_loss,
    dbcn,
    exhaustive,
    order_components,
)
from .data import (
    DataError,
    GridSpec,
    SyntheticTaskSpec,
    generate_synthetic,
    interpolate_time,
    knn_impute,
    load_csv,
    load_grid_csv,
    load_task_spec,
    rasterize_stations,
    save_csv,
    save_grid_csv,
    save_task_spec,
)
from .linear import (
    AssumptionReport,
    GramSystem,
    SingularGramError,
    SolverError,
    build_gram,
    check_assumptions,
    combination_loss,
    component_losses,
    predict,
    solve_theta_star,
)
from .model import (
    Activate,
    AffineLayer,
    Combine,
    Component,
    ComponentRef,
    CompositeNetwork,
    Dataset,
    EvaluationError,
    KIND_OPEN,
    KIND_PRETRAINED,
    ModelError,
    ROLE_AUX,
    ROLE_BASE,
    count_parameters,
    evaluate,
    loss_l2,
    node_values,
    registry,
    residual_loss,
    single_component_network,
)
from .scaled import (
    CalibrationRangeWarning,
    MarginReport,
    ScaledActivationError,
    ScaledWrapper,
    apply_wrapper,
    construct_wrapper,
    curvature_supremum,
    verify_margin,
)
from .training import (
    EpochStats,
    GradientError,
    TrainConfig,
    TrainResult,
    TrainingError,
    get_parameters,
    gradients,
    parameter_layout,
    set_parameters,
    train,
)

__version__ = "0.1.0"
