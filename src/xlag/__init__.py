"""Exact symbolic-numeric engine for multi-indexed rational extensions of
the radial oscillator and their exceptional Laguerre polynomial families.

The exact layer (polynomials over rationals, structured determinants,
Sturm certificates) proves structure and regularity with zero tolerance;
the numeric layer (quadrature, finite differences) sanity-checks the
resulting spectra and orthogonality at desk scale.
"""
from .errors import (
    BoundaryRoot,
    GridTooCoarse,
    Inapplicable,
    NotDivisible,
    NullSpaceDimension,
    OracleMismatch,
    QuadratureNonconvergence,
    SpecInvalid,
    XlagError,
    ZeroPolynomial,
)
from .exactmath import Poly, Rational, pochhammer, poly_gcd, poly_mat_det, vandermonde
from .regularity import RegularityCertificate, certify, count_roots_open_interval, sturm_sequence
from .seeds import (
    IsotonicParams,
    QuasiPoly,
    SeedKind,
    SeedSpec,
    bound_gauge,
    laguerre,
    make_seed,
)
from .spectral import (
    EOPFamily,
    ExtendedPotential,
    NumericGrid,
    auto_grid,
    build_potential,
    eop_nullspace,
    expected_spectrum,
    numeric_spectrum,
    orthogonality_check,
    solve_eop,
    wavefunction,
)
from .wronskian import (
    ExtensionSpec,
    GReport,
    build_gamma_matrix,
    check_origin_recurrence,
    compute_g,
    predict_const,
    predict_mu_sigma_lead,
    wronskian_direct,
)

__version__ = "0.1.0"
