"""Protocol- and link-level simulator for surface-aided uplink control planes."""

from .channel import (
    DEFAULT_RHO,
    ChannelRealization,
    Codebook,
    CodebookRole,
    RisConfiguration,
    effective_snr,
    make_codebook,
    optimal_config,
    sample_realization,
    snr_upper_bound,
)
from .control import (
    ControlChannelState,
    ControlMessage,
    ControlMode,
    MsgPhase,
    Recipient,
    Scheme,
    control_reliability,
    db_to_linear,
    linear_to_db,
    message_catalog,
    min_snr_for_reliability,
    msg_success_prob,
)
from .errors import InvalidParameterError
from .frames import (
    TTI_MS,
    CausalityViolation,
    ChannelUse,
    FramePhase,
    FramePlan,
    PhaseKind,
    SchemeParams,
    build_frame,
    overhead_ms,
    validate_causality,
)
from .metrics import (
    GoodputResult,
    calibrate_rho,
    crossover_frame,
    goodput,
    goodput_curves,
    goodput_sweep,
    reliability_grid,
    select_config,
)
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"
