"""Exception types shared across the package."""


class XlagError(Exception):
    """Base class for all package errors."""


class SpecInvalid(XlagError):
    """Extension specification violates a structural constraint."""


class NotDivisible(XlagError):
    """Exact division by a power of z failed; indicates an implementation bug."""


class OracleMismatch(XlagError):
    """Two independent computation routes disagree; hard failure."""


class ZeroPolynomial(XlagError):
    """Operation undefined for the zero polynomial."""


class BoundaryRoot(XlagError):
    """Root counting endpoint coincides with a root."""


class NullSpaceDimension(XlagError):
    """The ODE for y_nu has no polynomial solution, where exactly one is
    expected; raised by solve_eop only."""


class QuadratureNonconvergence(XlagError):
    """Two quadrature node counts disagree beyond tolerance."""


class GridTooCoarse(XlagError):
    """Finite-difference grid fails the step-halving convergence check."""
