"""crossbell: cross-Bell basis teleportation simulator and table-audit oracle."""

from .bell import (
    BellKind,
    BellOutcome,
    ChannelSpec,
    bell_state,
    cross_bell_basis,
    cross_bell_state,
    expand_in_cross_bell,
    paper_correction_table,
    parse_channel,
    pauli,
)
from .measure import (
    MeasurementRecord,
    ZeroProbabilityOutcome,
    bell_collapse,
    bell_measure,
    bell_probabilities,
)
from .oracle import (
    ArityError,
    DivergenceEntry,
    DivergenceReport,
    FactorizationFailure,
    derive_correction,
    derive_correction_table,
    is_entangled,
    transfer_matrix,
    verify_paper_tables,
)
from .statevec import (
    DuplicateQubit,
    MissingQubit,
    NormalizationError,
    PureState,
    QubitCollision,
    QubitSetMismatch,
    StateError,
    apply_local,
    canonicalize,
    cross,
    fidelity,
    inner,
    ket,
    load_state,
    save_state,
    tensor,
)
from .teleport import (
    ClassicalMessage,
    ProtocolLayout,
    ProtocolViolation,
    SessionAborted,
    TeleportReport,
    corrections_for,
    prepare_channel,
    recover,
    run_protocol,
    run_session,
    total_state,
)

__version__ = "0.2.0"
