"""crystaframe: exact desk-scale semilinear algebra for divided crystals.

Truncated p-typical Witt vectors, divided-power envelopes with certified
normal forms, frames (A, I, R, sigma, sigma1), windows with their structure
matrices, connections, and a scenario-driven verification CLI.  Everything
is exact integer arithmetic; precision loss is tracked, never silent.
"""

from .residues import (
    GaloisField,
    PrecisionExhausted,
    PrecisionLedger,
    Residues,
    divided_power_constant,
    gamma_of_p,
)
from .monomial import (
    MonomialAlgebra,
    adjoin_p_roots,
    embed_after_adjoin,
    frobenius_kernel_nilpotency,
)
from .witt import WittRing, witt_cache
from .frames import (
    AdmissibleSequence,
    BudgetError,
    Frame,
    FrameError,
    FrameHom,
    LiftFrame,
    NilpotenceReport,
    QuotientFrame,
    WittFrame,
    admissible_quotient_frame,
    lift_frame,
    sigma1_nilpotence_index,
    validate_frame_hom,
    witt_frame,
)
from .pdenv import (
    PDAlgebra,
    PDDifferential,
    PDError,
    PDFrame,
    PDPresentation,
    build_pd_envelope,
    pd_frame,
    pd_torsion_probe,
)
from .windows import (
    ClassTable,
    Window,
    WindowBudgetError,
    WindowError,
    are_isomorphic,
    base_change,
    classify_windows,
    f_nilpotence,
    fv_operators,
    hom_space,
    is_phi_hom,
    is_window_hom,
    lift_hom_along,
    lift_window_along,
    normal_decomposition,
    validate_window,
    window_from_psi,
    window_from_raw,
)
from .nabla import (
    Connection,
    NablaContext,
    SquareZeroFrame,
    connection_to_stratification,
    horizontality_check,
    integrability_and_qnilpotence,
    pbar0,
    pbar1,
    produced_connections,
    solve_connection,
    square_zero_frame,
    stratification_to_connection,
    zero_connection,
)
from .verify import TAGS as VERIFY_TAGS, verify

__version__ = "0.1.0"
