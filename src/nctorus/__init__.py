"""Rational rotation-algebra toolkit: matrix torus representations,
flux-operator spectra, gap labeling, and quantized-conductance checks."""

from .algebra import (
    AlgebraElement,
    IrrationalTheta,
    RationalTheta,
    ThetaMismatchError,
    connes_chern_symbolic,
    derivation,
    element_mul,
    element_star,
    hofstadter_element,
    monomial,
    nc_integral_symbolic,
    random_element,
    random_selfadjoint_element,
    unit,
    zero,
)
from .arithmetic import (
    DegenerateRepresentationError,
    InvalidTwistError,
    NoConstrainedSolutionError,
    TKNNRecord,
    WeylContext,
    gap_label_d,
    make_weyl_context,
    tknn_rhs_value,
    tknn_solve,
)
from .chern import (
    ChernResidualError,
    ChernResult,
    GridTooCoarseError,
    VerificationError,
    gap_certificates,
    symbolic_numeric_crosscheck,
)
from .representations import (
    FiberedRep,
    check_pseudoperiodicity,
    evaluate_at_k,
    evaluate_on_grid,
    reference_fibered_rep,
    shift_matrix,
    shift_matrix_power,
    twist_transport,
    weyl_fibered_rep,
)
from .spectral import (
    GapInfo,
    GapReport,
    GapViolationError,
    NumericalFailure,
    SelfAdjointnessError,
    band_blocks,
    band_edges,
    band_energies,
    detect_gaps_refined,
    dual_band_blocks,
    expand_k1_mirror,
    fermi_rank,
    hofstadter_energies,
    hofstadter_gap_report,
    spectral_hausdorff,
)
from .suite import CheckResult, run_invariant_suite

__version__ = "0.1.0"
