"""Extended potential assembly, exceptional-polynomial construction by
exact back-substitution on their banded differential operator, bound-state
wavefunctions, and the numeric verification layer (orthogonality by a
nested pair of Clenshaw-Curtis rules, their weights one inverse real FFT,
and a finite-difference eigensolve).

The polynomial layer stays exact; floats appear only in evaluation,
integration, and the eigensolver, all of them here: alpha, omega and g are
read from the GReport (a family is a bare tuple of polynomials), and every
float polynomial value comes from `_polyval`.  Only those float functions
import numpy, and the eigensolver scipy, on first use, so `import xlag` and
the exact layer load neither.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    GridTooCoarse,
    NullSpaceDimension,
    OracleMismatch,
    QuadratureNonconvergence,
    SpecInvalid,
)
from .exactmath import Poly
from .wronskian import ExtensionSpec, GReport


def _polyval(p: Poly, z):
    import numpy as np
    # Horner on the float array z; int / int rounds correctly, as float(Fraction) does
    acc = np.zeros_like(z, dtype=float)
    for c in reversed(p.num):
        acc = acc * z + c / p.den
    return acc


@dataclass(frozen=True)
class ExtendedPotential:
    """V(x) = omega^2 x^2/4 + l(l+1)/x^2 + V_rat(z) + C with z = omega x^2/2,
    l and omega those of spec, cached as the exact rational pair
    (rat_num, g^2) for the rational part."""

    spec: ExtensionSpec
    shift: Fraction
    rat_num: Poly
    rat_den: Poly

    def __call__(self, x):
        """Float evaluation at x > 0."""
        import numpy as np
        x = np.asarray(x, dtype=float)
        w = float(self.spec.omega)
        cf = float(self.spec.l * (self.spec.l + 1))
        z = 0.5 * w * x * x
        val = 0.25 * w * w * x * x + cf / (x * x) + float(self.shift)
        return val + _polyval(self.rat_num, z) / _polyval(self.rat_den, z)


def build_potential(report: GReport) -> ExtendedPotential:
    """Assemble the extended potential of report.spec from its computed g.

    The rational part is -2*omega*[g'g + 2z(g''g - g'^2)] / g^2.  It is
    built whether or not g is regular (poles and all, useful for
    demonstrations); whether it is certified is certify(report)'s verdict.
    """
    spec = report.spec
    if spec.l < 0:
        raise SpecInvalid(f"final angular momentum l = {spec.l} is negative")
    g = report.g
    gd = g.diff()
    gdd = gd.diff()
    num = (gd * g + (gdd * g - gd * gd).shift_up(1) * 2) * (-2 * spec.omega)
    return ExtendedPotential(
        spec=spec,
        shift=(spec.k - 2 * spec.q) * spec.omega,
        rat_num=num,
        rat_den=g * g,
    )


def _ode_operator(g: Poly, alpha):
    """entry(r, d, nu): the coefficient of z^r in the eigenvalue operator
    z g y'' + q1 y' + q0 y of level nu applied to y = z^d, times
    den(g) den(alpha), so an int.

    q1 = (alpha + 1 - z) g - 2 z g' and q0 = (z - alpha) g' + z g'' + nu g;
    only q0's nu g term depends on nu.  Column d spans rows d-1 .. d+mu
    (mu = deg g) and its top entry, in row d+mu, is the scaled lead(g)
    (mu + nu - d): the system is banded and triangular from the top.
    """
    alpha = Fraction(alpha)
    a, s = alpha.numerator, alpha.denominator
    G = Poly(g.num)
    Gd = G.diff()
    q1 = G * Poly((a + s, -s)) - Gd.shift_up(1) * (2 * s)
    q0 = Gd * Poly((-a, s)) + Gd.diff().shift_up(1) * s
    # entry(r, d, nu) reads slot r - d + 1 of z q0, z g, q1 and g, scaled
    w = g.degree + 2
    A, N, B, C = ([*p.num] + [0] * (w - len(p.num)) for p in (q0.shift_up(1), G.shift_up(1) * s, q1, G * s))

    def entry(r: int, d: int, nu: int) -> int:
        i = r - d + 1
        return A[i] + nu * N[i] + d * B[i] + d * (d - 1) * C[i] if 0 <= i < w else 0

    return entry


def solve_eop(report: GReport, nu_max: int) -> tuple:
    """Monic exceptional polynomials y_nu, nu = 0..nu_max, of report.spec as
    a bare tuple (alpha and g stay report's), by back-substitution on the
    cleared-denominator differential equation.  Whether they form an
    orthogonal family is certify(report)'s verdict, which the caller checks.

    With c_{mu+nu} = 1, row mu+d of the banded operator fixes c_d for d =
    mu+nu-1 down to 0 through its nonzero pivot lead(g) (mu+nu-d)
    (OracleMismatch if it were zero), so the solution is monic, of degree
    mu+nu and unique.  Rows 0..mu-1, which fix no coefficient, must then
    vanish, or no polynomial solution exists (NullSpaceDimension).  The
    band is built once and holds ints; c_j = C_j / D over one common D.
    """
    if nu_max < 0:
        raise ValueError("nu_max must be nonnegative")
    mu = report.g.degree
    entry = _ode_operator(report.g, report.spec.alpha)
    polys = []
    for nu in range(nu_max + 1):
        n = mu + nu
        C, D = [0] * n + [1], 1
        for d in range(n - 1, -1, -1):
            pivot = entry(mu + d, d, nu)
            if not pivot:
                raise OracleMismatch(f"zero pivot in row {mu + d} for nu={nu}")
            s = sum(entry(mu + d, j, nu) * C[j] for j in range(d + 1, min(n, mu + d + 1) + 1))
            c = Fraction(-s, D * pivot)
            f = c.denominator // math.gcd(c.denominator, D)  # D becomes lcm(D, den c_d)
            if f > 1:
                C, D = [x * f for x in C], D * f
            C[d] = c.numerator * (D // c.denominator)
        if any(sum(entry(r, j, nu) * C[j] for j in range(r + 2)) for r in range(mu)):
            raise NullSpaceDimension("null space dimension 0, expected 1")
        polys.append(Poly(C) * Fraction(1, D))
    return tuple(polys)


def wavefunction(report: GReport, y: Poly, x):
    """Unnormalized bound state eta(z) y(z) / g(z) at x > 0, z = omega x^2 / 2,
    for y in solve_eop(report, ...); the gauge eta = z^((l + 1)/2) e^(-z/2)
    makes psi ~ x^(l+1) at the origin (the Friedrichs choice where x = 0 is
    limit-circle, -1/2 < l < 1/2)."""
    import numpy as np
    x = np.asarray(x, dtype=float)
    z = 0.5 * float(report.spec.omega) * x * x
    gauge = np.power(z, float((report.spec.l + 1) / 2)) * np.exp(-z / 2.0)
    return gauge * _polyval(y, z) / _polyval(report.g, z)


def _clenshaw_curtis(n: int):
    """Clenshaw-Curtis nodes x_j = cos(j pi / n), j = 0..n, and weights on
    [-1, 1] for even n: one inverse real FFT of the moments 2 / (1 - 4k^2) of
    T_2k, k = 0..n/2, periodic in j with period n (Waldvogel, BIT 46, 2006),
    endpoints halved and mirrored to exact symmetry.  Exact to degree n, as
    accurate as Gauss on smooth integrands (Trefethen, SIAM Rev. 50, 2008);
    the nodes of n are those of 2n at even j, bit for bit."""
    import numpy as np
    x = np.cos(np.arange(n + 1) * np.pi / n)
    x = 0.5 * (x - x[::-1])
    w = np.fft.irfft(2.0 / (1.0 - 4.0 * np.arange(n // 2 + 1) ** 2), n)[np.arange(n + 1) % n]
    w[[0, n]] *= 0.5
    return x, 0.5 * (w + w[::-1])


def orthogonality_check(report: GReport, family) -> float | None:
    """Largest normalized off-diagonal |G_ij| / sqrt(G_ii G_jj) of the Gram
    matrix G_ij = integral of y_i y_j z^alpha e^-z / g^2 over (0, inf), or
    None for a single level; family is solve_eop(report, ...), or any
    polynomials in its place, and alpha and g are report's.

    Mapped Clenshaw-Curtis with the z = u^2 substitution (removes the sqrt
    endpoint behaviour of half-integer alpha); g, the weight and each y_nu
    are evaluated once, on the n = 400 rule's 401 nodes, and G = (Y w) Y^T;
    every other node is the n = 200 rule, for the coarse G.  The integrand
    of a pair decays like z^p e^-z with p = alpha + nu_i + nu_j, which peaks
    at z = p, so the one cutoff, set by the two highest degrees, sits far
    enough past every pair's p for any alpha; the interval starts as far
    below the lowest peak, z = alpha (at 0 below alpha ~ 150); a peak about
    1 wide in u would otherwise get few of the nodes.  The weight is taken in log
    space and divided by its largest value over the nodes, which the
    normalization cancels, so z^alpha cannot overflow it at large alpha; it
    is 0 at u = 0, where z^alpha u vanishes for alpha > -1/2.  The two rules
    must agree to 1e-10 entrywise and both Gram matrices must be finite, or
    QuadratureNonconvergence is raised.
    """
    if len(family) < 2:
        return None
    import numpy as np
    d = sum(sorted(y.degree for y in family)[-2:])
    a = float(report.spec.alpha)
    p = max(a + d - 2 * report.g.degree, 0.0)
    umax = np.sqrt(max(60.0 + 4.0 * (d + 2), p + 40.0 + 9.0 * np.sqrt(p)))
    umin = np.sqrt(max(a - 40.0 - 9.0 * np.sqrt(max(a, 0.0)), 0.0))
    x, fine = _clenshaw_curtis(400)
    u = umin + 0.5 * (umax - umin) * (x + 1.0)
    z = u * u
    f = np.zeros_like(u)
    pos = u > 0
    log_w = a * np.log(z[pos]) - z[pos]
    f[pos] = (umax - umin) * u[pos] * np.exp(log_w - log_w.max()) / _polyval(report.g, z[pos]) ** 2
    Y = np.array([_polyval(y, z) for y in family])
    norm = []
    for step, wts in ((2, _clenshaw_curtis(200)[1]), (1, fine)):
        G = (Y[:, ::step] * (wts * f[::step])) @ Y[:, ::step].T
        if not np.isfinite(G).all():
            raise QuadratureNonconvergence(f"the Gram matrix on {len(wts)} nodes has a non-finite entry")
        s = np.sqrt(np.diag(G))
        norm.append(np.abs(G) / np.outer(s, s))
    moved = np.abs(norm[1] - norm[0])
    if moved.max() > 1e-10:
        i, j = np.unravel_index(moved.argmax(), moved.shape)
        raise QuadratureNonconvergence(
            f"normalized inner product <{i},{j}> moved from {norm[0][i, j]} to {norm[1][i, j]}"
        )
    return float(norm[1][np.triu_indices(len(family), 1)].max())


def _fd_levels(potential: ExtendedPotential, n_levels: int, x):
    import numpy as np
    from scipy.linalg import eigvalsh_tridiagonal
    h = x[0]  # the wall sits one step below, at x = 0
    diag = 2.0 / h**2 + potential(x)
    off = np.full(len(x) - 1, -1.0 / h**2)
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))


def numeric_spectrum(potential: ExtendedPotential, n_levels: int):
    """Lowest n_levels eigenvalues of -d^2/dx^2 + V(x) between Dirichlet
    walls at 0 and x_max, past the classical turning point of the highest
    level, where that level has decayed far below round-off: second-order
    differences on 500 interior points and on 1,001 (the step exactly
    halved, every coarse point kept), Richardson-extrapolated to
    (4 fine - coarse) / 3, which cancels the h^2 error.  GridTooCoarse if
    the ground level moves by more than 1e-3 relative under the halving.
    """
    import numpy as np
    w = float(potential.spec.omega)
    e_top = w * (2 * (n_levels - 1) + float(potential.spec.alpha) + 1) + abs(float(potential.shift))
    x_turn = 2.0 * math.sqrt(e_top) / w
    x_max = math.sqrt(x_turn * x_turn + 120.0 / w)
    coarse, fine = (_fd_levels(potential, n_levels, np.linspace(0.0, x_max, n + 2)[1:-1]) for n in (500, 1001))
    if abs(fine[0] - coarse[0]) > 1e-3 * abs(fine[0]):
        raise GridTooCoarse(f"ground level moved {coarse[0]} -> {fine[0]} under step halving")
    return [float(e) for e in (4.0 * fine - coarse) / 3.0]


def expected_spectrum(spec: ExtensionSpec, n_levels: int):
    """Levels omega*(2 nu + alpha + 1) + C implied by the isospectral
    construction (exact rationals)."""
    c = (spec.k - 2 * spec.q) * spec.omega
    return [spec.omega * (2 * nu + spec.alpha + 1) + c for nu in range(n_levels)]
