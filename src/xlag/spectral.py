"""Extended potential assembly, exceptional-polynomial construction by
exact back-substitution on their banded differential operator, bound-state
wavefunctions, and the numeric verification layer: orthogonality, and the
levels as Rayleigh quotients of the exact family in the float potential,
both on a nested pair of Clenshaw-Curtis rules, their weights one inverse
real FFT.

The polynomial layer stays exact; floats appear only in evaluation and
integration, all of them here: alpha, omega and g are read from the
GReport (a family is a bare tuple of polynomials), and every float
polynomial value comes from `_polyval`.  Only those float functions import
numpy, on first use, so `import xlag` and the exact layer do not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NullSpaceDimension, QuadratureNonconvergence, SpecInvalid
from .exactmath import Poly, _int_mul, _poly
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
    l, omega and C (spec.shift) those of spec, cached as the exact rational
    pair (rat_num, g^2) for the rational part."""

    spec: ExtensionSpec
    rat_num: Poly
    rat_den: Poly

    def __call__(self, x):
        """Float evaluation at x > 0."""
        import numpy as np
        x = np.asarray(x, dtype=float)
        w = float(self.spec.omega)
        cf = float(self.spec.l * (self.spec.l + 1))
        z = 0.5 * w * x * x
        val = 0.25 * w * w * x * x + cf / (x * x) + float(self.spec.shift)
        return val + _polyval(self.rat_num, z) / _polyval(self.rat_den, z)


def build_potential(report: GReport) -> ExtendedPotential:
    """Assemble the extended potential of report.spec from its computed g.

    The rational part is -2*omega*[g'g + 2z(g''g - g'^2)] / g^2.  With A and
    B the numerators of g^2 and g'^2 over den(g)^2, its numerator's z^m
    coefficient is -omega[(m+1)(2m+1) A_(m+1) - 8 B_(m-1)], on the ints.  It
    is built whether or not g is regular (poles and all); whether it is
    certified is certify(report)'s verdict.
    """
    spec = report.spec
    if spec.l < 0:
        raise SpecInvalid(f"final angular momentum l = {spec.l} is negative")
    a, b = report.g.num, [i * c for i, c in enumerate(report.g.num) if i]
    A, B, p, den = _int_mul(a, a), [0, *_int_mul(b, b)], -spec.omega.numerator, report.g.den**2  # B[m] = B_(m-1)
    num = [p * ((m + 1) * (2 * m + 1) * A[m + 1] - 8 * B[m]) for m in range(len(A) - 1)]
    return ExtendedPotential(spec=spec, rat_num=_poly(num, den * spec.omega.denominator), rat_den=_poly(A, den))


def _ode_operator(g: Poly, alpha):
    """entry(r, d, nu): the coefficient of z^r in the eigenvalue operator
    z g y'' + [(alpha + 1 - z) g - 2z g'] y' + [(z - alpha) g' + z g'' + nu g] y
    of level nu applied to y = z^d, times den(g) den(alpha), so an int.  With
    alpha = a/s, g_i the numerators of g and i = r - d + 1 it is
    g_i ((d - i)(s (d - i) + a) - s i) + s g_{i-1} (nu + i - 1 - d) for
    0 <= i <= mu + 1 (mu = deg g), else 0: column d spans rows d-1 .. d+mu and
    its top entry, in row d+mu, is s lead(g) (mu + nu - d), so the system is
    banded and triangular from the top."""
    alpha = Fraction(alpha)
    a, s = alpha.numerator, alpha.denominator
    G = (0, *g.num, 0)  # G[i + 1] = g_i, zero at i = -1 and i = mu + 1
    sG = tuple(s * c for c in G)
    top = g.degree + 1

    def entry(r: int, d: int, nu: int) -> int:
        i = r - d + 1
        if not 0 <= i <= top:
            return 0
        e = d - i
        return G[i + 1] * (e * (s * e + a) - s * i) + sG[i] * (nu - 1 - e)

    return entry


def solve_eop(report: GReport, nu_max: int) -> tuple:
    """Monic exceptional polynomials y_nu, nu = 0..nu_max, of report.spec as
    a bare tuple (alpha and g stay report's), by back-substitution on the
    cleared-denominator differential equation.  Whether they form an
    orthogonal family is certify(report)'s verdict, which the caller checks.

    With c_{mu+nu} = 1, row mu+d of the banded operator fixes c_d for d =
    mu+nu-1 down to 0 through its pivot s lead(g) (mu+nu-d), alpha = a/s,
    which needs no zero guard: each factor is nonzero, as d < mu+nu.  So the
    solution is monic, of degree mu+nu and unique.  Rows 0..mu-1, which fix
    no coefficient, must then vanish, or no polynomial solution exists
    (NullSpaceDimension).  The band holds ints; c_j = C_j / D over one D.
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
            s = sum(entry(mu + d, j, nu) * C[j] for j in range(d + 1, min(n, mu + d + 1) + 1))
            c = Fraction(-s, D * pivot)
            f = c.denominator // math.gcd(c.denominator, D)  # D becomes lcm(D, den c_d)
            if f > 1:
                C, D = [x * f for x in C], D * f
            C[d] = c.numerator * (D // c.denominator)
        if any(sum(entry(r, j, nu) * C[j] for j in range(r + 2)) for r in range(mu)):
            raise NullSpaceDimension("null space dimension 0, expected 1")
        polys.append(_poly(C, D))
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


def _nodes(report: GReport, d: int, graded: bool = False):
    """z = u^2 on the n = 400 rule's nodes, the weight f of z^alpha e^-z dz/ds
    there (s in [0, 1]), the mask u > 0, and (step, weights) of the n = 200
    and n = 400 rules on every step-th node, for y_i y_j z^alpha e^-z / g^2
    with deg y_i + deg y_j = d.  Its peaks, near z = alpha and p = alpha + d
    - 2 deg g, are about 1 wide in u at large alpha, so u runs from well
    below sqrt(alpha) (0 below alpha ~ 150) to well past sqrt(p); graded and
    from 0, as u_max s^2.  f is taken in log space and scaled by its largest
    value: no overflow."""
    import numpy as np
    a = float(report.spec.alpha)
    p = max(a + d - 2 * report.g.degree, 0.0)
    umax = math.sqrt(max(60.0 + 4.0 * (d + 2), p + 40.0 + 9.0 * math.sqrt(p)))
    umin = math.sqrt(max(a - 40.0 - 9.0 * math.sqrt(max(a, 0.0)), 0.0))
    x, fine = _clenshaw_curtis(400)
    s = 0.5 * (x + 1.0)
    u, du = (umax * s * s, 2.0 * umax * s) if graded and not umin else (umin + (umax - umin) * s, umax - umin)
    z = u * u
    f = np.zeros_like(u)  # 0 at u = 0
    pos = u > 0
    log_w = a * np.log(z[pos]) - z[pos]
    f[pos] = (du * u)[pos] * np.exp(log_w - log_w.max())
    return z, f, pos, ((2, _clenshaw_curtis(200)[1]), (1, fine))


def orthogonality_check(report: GReport, family) -> float | None:
    """Largest normalized off-diagonal |G_ij| / sqrt(G_ii G_jj) of the Gram
    matrix G_ij = integral of y_i y_j z^alpha e^-z / g^2 over (0, inf), or
    None for a single level; family is solve_eop(report, ...), or any
    polynomials in its place, and alpha and g are report's.  On the ungraded
    _nodes of the two highest degrees, where g, the weight and each y_nu are
    evaluated once, G = (Y w) Y^T for each rule.  The two rules must agree to
    1e-10 entrywise, both finite, or QuadratureNonconvergence is raised."""
    if len(family) < 2:
        return None
    import numpy as np
    z, f, pos, rules = _nodes(report, sum(sorted(y.degree for y in family)[-2:]))
    f[pos] /= _polyval(report.g, z[pos]) ** 2
    Y = np.array([_polyval(y, z) for y in family])
    norm = []
    for step, wts in rules:
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


def numeric_spectrum(report: GReport, family, potential: ExtendedPotential) -> list:
    """Rayleigh quotient of -d^2/dx^2 + V, V the float potential, at each
    psi_nu = z^((l+1)/2) e^(-z/2) y_nu / g of family (solve_eop(report, ...)),
    z = omega x^2 / 2: E_nu plus the first-order shift of any fault in V.
    With z = u^2, phi = y / g and K = ((l + 1) - z) phi / 2 + z phi', it is
    [2 omega int z^l e^-z K^2 du + int z^(l+1) e^-z V phi^2 du] / int z^(l+1)
    e^-z phi^2 du on the top level's graded _nodes (z^l is not smooth at u = 0
    for fractional l).  The rules must agree to 1e-10 relative, or
    QuadratureNonconvergence is raised."""
    import numpy as np
    la, w = float(report.spec.l + 1), float(report.spec.omega)
    z, f, pos, rules = _nodes(report, 2 * max(y.degree for y in family), graded=True)
    z, f = z[pos], f[pos]  # f is z^(l+1) e^-z du/ds, scaled
    v, g, dg = potential(np.sqrt(2.0 * z / w)), _polyval(report.g, z), _polyval(report.g.diff(), z)
    energy, norm = np.zeros((2, len(family), len(pos)))
    for row, y in enumerate(family):
        phi = _polyval(y, z) / g
        k = 0.5 * (la - z) * phi + z * (_polyval(y.diff(), z) - phi * dg) / g
        energy[row, pos] = f * (2.0 * w * k * k / z + v * phi * phi)
        norm[row, pos] = f * phi * phi
    coarse, levels = ((energy[:, ::step] @ wts) / (norm[:, ::step] @ wts) for step, wts in rules)
    for nu, (a, b) in enumerate(zip(coarse, levels)):
        if not abs(b - a) <= 1e-10 * abs(b):  # a NaN fails too
            raise QuadratureNonconvergence(f"level {nu} moved from {a} to {b} between the n = 200 and n = 400 rules")
    return [float(e) for e in levels]


def expected_spectrum(spec: ExtensionSpec, n_levels: int):
    """Levels omega*(2 nu + alpha + 1) + C implied by the isospectral
    construction (exact rationals), C = spec.shift."""
    return [spec.omega * (2 * nu + spec.alpha + 1) + spec.shift for nu in range(n_levels)]
