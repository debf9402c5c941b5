"""crystaframe: exact desk-scale semilinear algebra for divided crystals.

Truncated p-typical Witt vectors, divided-power envelopes with certified
normal forms, frames (A, I, R, sigma, sigma1), windows with their structure
matrices, connections, and a scenario-driven verification CLI.  Everything
is exact integer arithmetic; precision loss is tracked, never silent.

Importing the package runs no module body: a public name loads its module
when first read (PEP 562), so a run compiles only the modules it reaches.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "residues": "GaloisField PrecisionExhausted PrecisionLedger Residues divided_power_constant gamma_of_p",
    "monomial": "MonomialAlgebra adjoin_p_roots embed_after_adjoin frobenius_kernel_nilpotency",
    "witt": "WittRing witt_cache",
    "frames": """AdmissibleSequence BudgetError Frame FrameError FrameHom LiftFrame NilpotenceReport
        QuotientFrame WittFrame admissible_quotient_frame lift_frame sigma1_nilpotence_index
        validate_frame_hom witt_frame""",
    "pdenv": """PDAlgebra PDDifferential PDError PDFrame PDPresentation build_pd_envelope pd_frame
        pd_torsion_probe""",
    "windows": """ClassTable Window WindowBudgetError WindowError are_isomorphic base_change
        classify_windows f_nilpotence fv_operators hom_space is_phi_hom is_window_hom lift_hom_along
        lift_window_along normal_decomposition validate_window window_from_psi window_from_raw""",
    "nabla": """Connection NablaContext SquareZeroFrame connection_to_stratification horizontality_check
        integrability_and_qnilpotence pbar0 pbar1 produced_connections solve_connection
        square_zero_frame stratification_to_connection zero_connection""",
    "scenario": "VERIFY_TAGS",
    "batteries": "verify",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNER)

# Modules that no lift-frame scenario runs.  Each is registered in
# sys.modules now, so tools that look it up there find it, and its body
# runs on its first attribute access or import (importlib.util.LazyLoader).
for _name in ("intpoly", "monomial", "witt", "pdenv", "nabla", "batteries"):
    if f"{__name__}.{_name}" not in sys.modules:  # not on a reload
        _spec = importlib.util.find_spec(f"{__name__}.{_name}")
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(sys.modules[_spec.name])


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
