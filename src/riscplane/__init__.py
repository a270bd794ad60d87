"""Protocol- and link-level simulator for surface-aided uplink control planes."""

import os

# One BLAS thread per process, so pool workers do not oversubscribe the cores;
# OpenBLAS reads this only when numpy loads, which the imports below do.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .channel import make_codebook
from .control import (
    ControlChannelState,
    ControlMessage,
    ControlMode,
    MsgPhase,
    Recipient,
    Scheme,
    control_reliability,
    db_to_linear,
    message_catalog,
    min_snr_for_reliability,
    msg_success_prob,
)
from .errors import InvalidParameterError
from .frames import (
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
    crossover_frame,
    goodput_curves,
    reliability_grid,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"
