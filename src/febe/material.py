"""Pointwise nonlinear constitutive laws and the exterior Lame coefficients.

One family of radial laws A'(x) = c(|x|) x, c(s) = s^((1-delta)(p-2))
(1 + s^2)^(delta (p-2)/2) with 0 <= delta <= 1: the p-Laplace law at
delta = 0, the Carreau law at delta = 1.  It is continuous in delta, and
|A'(x)| grows like |x|^(p-1), as the two-sided monotonicity bounds need.

The law acts on 2-vectors (gradients, scalar problem) or on symmetric 2x2
matrices (strains, vector problem) with the Frobenius inner product.  Both
are the same radial law on one flat component axis (2 components, or the 4
row-major entries of a matrix); `_flat` gives that view.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .quadrature import segment_gauss

MODE_VECTOR = "vector"
MODE_MATRIX = "matrix"

# |x| is floored at this value inside the tangent for p < 2
TANGENT_FLOOR = 1e-10


class SingularTangentWarning(UserWarning):
    """Raised when the tangent of a p<2 law is requested at a near-zero argument."""


@dataclass(frozen=True)
class MaterialLaw:
    p: float
    delta: float = 0.0
    mode: str = MODE_VECTOR

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("material exponent p must be > 1")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("material delta must lie in [0, 1]")
        if self.mode not in (MODE_VECTOR, MODE_MATRIX):
            raise ValueError("unknown material mode %r" % self.mode)

    @property
    def ncomp(self):
        """Displacement components: 2 for strains (vector problem), 1 for gradients."""
        return 2 if self.mode == MODE_MATRIX else 1

    @property
    def p_prime(self):
        return self.p / (self.p - 1.0)

    @property
    def r(self):
        return min(self.p, 2.0)

    @property
    def q(self):
        return max(self.p, 2.0)


@dataclass(frozen=True)
class ExteriorCoefficients:
    mu: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("exterior mu must be positive")
        if not self.lam > -self.mu:
            raise ValueError("exterior lambda must exceed -mu")


def _flat(law, x):
    """x with its components on one trailing axis: 2-vectors as they are,
    2x2 matrices as their 4 row-major entries."""
    x = np.asarray(x, dtype=float)
    return x.reshape(x.shape[:-2] + (4,)) if law.mode == MODE_MATRIX else x


def _dot(a, b):
    """Pointwise pairing over the flat component axis."""
    return np.einsum("...i,...i->...", a, b)


def _norm(law, x):
    """Pointwise norm over the trailing component axes."""
    v = _flat(law, x)
    return np.sqrt(_dot(v, v))


def _scalar_coeff(law, s):
    """A'(x) = coeff(|x|) * x; returns coeff at s = |x|, with coeff(0) := 0.

    The zero value is the continuous extension of the stress (A'(0) = 0);
    the coefficient itself may diverge at 0 for p < 2.
    """
    s = np.asarray(s, dtype=float)
    e2 = 0.5 * (law.p - 2.0)
    s_safe = np.where(s > 0, s, 1.0)
    if law.delta == 0.0:
        c = s_safe ** (2 * e2)
    else:
        c = (s_safe ** (2.0 * (1.0 - law.delta)) * (1.0 + s_safe ** 2) ** law.delta) ** e2
    return np.where(s > 0, c, 0.0)


def _scalar_coeff_deriv(law, s, c):
    """d/ds of the radial coefficient c = _scalar_coeff(law, s), for s > 0."""
    e2 = 0.5 * (law.p - 2.0)
    if law.delta == 0.0:
        return 2 * e2 * c / s
    return c * e2 * (2.0 * (1.0 - law.delta) / s + 2.0 * law.delta * s / (1.0 + s ** 2))


def stress(law, x):
    """A'(x), acting pointwise on arrays of gradients/strains."""
    x = np.asarray(x, dtype=float)
    c = _scalar_coeff(law, _norm(law, x))
    return (c[..., None] * _flat(law, x)).reshape(x.shape)


def tangent_coeffs(law, x):
    """(c1, c2) with  DA'(x) h = c1 h + c2 <x, h> x  (Frobenius pairing).

    For p < 2 the radius is floored to keep Newton matrices finite; a
    SingularTangentWarning is raised when the floor engages.
    """
    x = np.asarray(x, dtype=float)
    s = _norm(law, x)
    if law.p < 2 and np.any(s < TANGENT_FLOOR):
        warnings.warn("tangent evaluated near the singular origin of a p<2 law",
                      SingularTangentWarning, stacklevel=2)
    s_eff = np.maximum(s, TANGENT_FLOOR)
    c1 = _scalar_coeff(law, s_eff)
    dc = _scalar_coeff_deriv(law, s_eff, c1)
    c2 = dc / s_eff
    return c1, c2


def potential(law, x):
    """A(x) with dA/dx = A'(x): |x|^p / p at delta = 0, else int_0^s c(t) t dt
    = s^b/b int_0^1 g(s v^(1/b)) dv with b = (1-delta)(p-2) + 2 and
    g(t) = (1 + t^2)^(delta (p-2)/2): a Gauss rule on a bounded integrand."""
    x = np.asarray(x, dtype=float)
    s = _norm(law, x)
    if law.delta == 0.0:
        return s ** law.p / law.p
    b = (1.0 - law.delta) * (law.p - 2.0) + 2.0
    v, w = segment_gauss(32)
    t = s[..., None] * v ** (1.0 / b)
    g = (1.0 + t ** 2) ** (0.5 * law.delta * (law.p - 2.0))
    return s ** b / b * (g @ w)
