"""Exception types shared across the package.  Each carries the exit status
and stderr prefix the CLI reports it with; a subclass inherits its base's."""


class XlagError(Exception):
    """Base class for all package errors; by default bad input."""

    exit_code, prefix = 2, "error"


class InternalInconsistency(XlagError):
    """An exact check failed, an exact oracle disagreed or an internal
    polynomial vanished."""

    exit_code, prefix = 3, "internal inconsistency"


class NumericCheckFailed(XlagError):
    """A numeric check of the float layer failed or did not converge."""

    exit_code, prefix = 1, "numeric check failed"


class SpecInvalid(XlagError):
    """Extension specification violates a structural constraint."""


class NotDivisible(InternalInconsistency):
    """Exact division by a power of z failed; indicates an implementation bug."""


class OracleMismatch(InternalInconsistency):
    """Two independent computation routes disagree; hard failure."""


class ZeroPolynomial(InternalInconsistency):
    """Operation undefined for the zero polynomial.  Only internal objects
    (certify's g, a Sturm chain, a monic form) raise it, never the input."""


class BoundaryRoot(XlagError):
    """Root counting endpoint coincides with a root."""


class NullSpaceDimension(InternalInconsistency):
    """The ODE for y_nu has no polynomial solution, where exactly one is
    expected; raised by solve_eop only."""


class QuadratureNonconvergence(NumericCheckFailed):
    """Two quadrature node counts disagree beyond tolerance."""
