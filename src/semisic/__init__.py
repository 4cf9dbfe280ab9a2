"""Semi-SIC POVMs: equiangular rank-one measurements without constant trace.

The package constructs the complete qubit family, verifies candidate POVMs,
builds closed-form dual frames and feasibility regions, maps qubit states
between Bloch and probability coordinates, and searches numerically for
examples in higher dimensions.
"""

from .bloch import bloch_to_probs, bloch_to_state, probs_to_bloch
from .documents import PovmDocument, load_povm, save_dual_frame, save_povm
from .dual import (
    DualFrame,
    dual_basis,
    feasibility_poly,
    probabilities,
    reconstruct,
    region_grid,
    write_region_csv,
)
from .model import (
    NOT_SEMI_SIC,
    SIC,
    STRICT_SEMI_SIC,
    Povm,
    SemiSicParams,
    VerificationReport,
    admissible_k,
    b_from_k,
    b_from_k_exact,
    trace_values,
    trace_values_exact,
    verify,
)
from .qubit import (
    B_MAX,
    B_MIN,
    QubitFamilyPoint,
    canonicalize,
    construct,
    family_kets,
    family_point,
)
from .search import SearchConfig, SearchReport, gradient, objective, run_search

__all__ = [
    "B_MAX",
    "B_MIN",
    "DualFrame",
    "NOT_SEMI_SIC",
    "Povm",
    "PovmDocument",
    "QubitFamilyPoint",
    "SIC",
    "STRICT_SEMI_SIC",
    "SearchConfig",
    "SearchReport",
    "SemiSicParams",
    "VerificationReport",
    "admissible_k",
    "b_from_k",
    "b_from_k_exact",
    "bloch_to_probs",
    "bloch_to_state",
    "canonicalize",
    "construct",
    "dual_basis",
    "family_kets",
    "family_point",
    "feasibility_poly",
    "gradient",
    "load_povm",
    "objective",
    "probabilities",
    "probs_to_bloch",
    "reconstruct",
    "region_grid",
    "run_search",
    "save_dual_frame",
    "save_povm",
    "trace_values",
    "trace_values_exact",
    "verify",
    "write_region_csv",
]
