"""Exact symbolic-numeric engine for multi-indexed rational extensions of
the radial oscillator and their exceptional Laguerre polynomial families.

The exact layer (polynomials over rationals, structured determinants,
Sturm certificates) proves structure and regularity with zero tolerance;
the numeric layer (quadrature, finite differences) sanity-checks the
resulting spectra and orthogonality at desk scale.  The package exports
the names of the README's library sketch; everything else is imported
from its module (xlag.exactmath, xlag.spectral, ...).
"""
from .regularity import certify
from .spectral import solve_eop
from .wronskian import ExtensionSpec, compute_g, wronskian_direct

__all__ = ["ExtensionSpec", "certify", "compute_g", "solve_eop", "wronskian_direct"]
