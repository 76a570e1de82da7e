"""Verification toolkit for the sharp entropy inequality on circle polynomials.

Every functional in the inequality — the squared norm, the entropy integral,
its Jensen/polar split, the Blaschke-quotient moments, and the remainder sum —
is computable by two independent routes (exact spectral pairing and adaptive
quadrature), and the package checks each stated inequality and identity on
random corpora as well as recovering the extremal binomial family
numerically.
"""

from .blaschke_moments import (
    ContractionReport,
    MomentSequence,
    blaschke_series,
    moments,
    moments_by_quadrature,
    schur_contraction_check,
    series_divide,
    series_multiply,
)
from .entropy import (
    EntropyReport,
    h_fourier,
    h_fourier_quadrature,
    h_partial_sum,
    h_tail_bound,
    h_values,
    mu_mass_check,
    norm_via_moments,
    polar_term_via_moments,
    telescoping_closed_form,
    telescoping_sum,
    verify_main,
)
from .errors import (
    BudgetExceeded,
    CircEntropyError,
    DegreeOverflow,
    IllConditioned,
    InconsistentReflection,
    NonUnimodularRoot,
    NotSelfInversive,
    RootsOffCircle,
    SeparationFailure,
    ZeroConstantTerm,
    ZeroLeading,
    ZeroOnBoundary,
    ZeroPolynomial,
)
from .extremal import (
    CoalescenceTable,
    ExtremalResult,
    angle_gap_deviation,
    coalescence_experiment,
    minimize,
    objective,
    objective_and_gradient,
)
from .log_integrals import (
    RatioFunctionalValue,
    TrigSquare,
    circle_quadrature,
    log_pair_quadrature,
    log_pair_spectral,
    ratio_functional,
    trig_square,
)
from .polycircle import (
    CirclePoly,
    NormalizationResult,
    PolarDecomposition,
    coefficients_from_json,
    coefficients_to_json,
    eval_poly,
    expand_from_roots,
    from_angles,
    from_roots,
    gamma_remainder,
    normalize_self_inversive,
    parseval_norm,
    partial_energy_Al,
    perturb_roots,
    polar_factor,
    reflect,
    weighted_form_Sn,
)

__version__ = "0.1.0"
