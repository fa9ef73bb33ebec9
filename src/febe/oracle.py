"""Verification oracle for the contact solves.

The discrete contact problem minimizes a smooth convex energy plus
nodewise |.|-terms under bounds.  Fix a pattern: per slip node, v_n held
at 0 or free (vector case), and z_t held at 0 or given a sign s_k.  What
is left is the smooth convex energy phi_smooth(x) + sum_k s_k F_k z_t,k on
the affine set {C x = c0, held coordinates = 0}.  The oracle minimizes it
for every pattern by damped Newton on the pattern's dense KKT system and
returns the least objective over the patterns whose minimizer is feasible
(v_n <= 0 where free, s_k z_t,k >= 0).  The same enumeration serves every
p; at p = 2 each pattern takes one KKT solve.  It uses the system's
energy and FE tangent only, none of the solver's active-set Newton.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import fem
from .material import MaterialLaw

# Z dofs above which the enumeration (3 or 6 patterns per slip node) is refused
MAX_CONSTRAINED = 12
# Newton steps per pattern, and backtracking halvings per step
_NEWTON_STEPS = 200
_BACKTRACKS = 40


class OracleError(ValueError):
    pass


def _hessian(system, J0, law, U):
    """Dense Hessian of phi_smooth at x = (U, Z) under law: the FE tangent
    at U added to J0, the dense constant block of the Steklov-Poincare
    form over x."""
    H = J0.copy()
    H[:system.nU, :system.nU] += fem.assemble_tangent(system.space, law, U).toarray()
    return H


def _pattern_minimizer(system, J0, H0, g0, E, e0, lin):
    """Minimizer of phi_smooth(x) + lin . x on {E x = e0}, or None when the
    pattern's KKT matrix is singular.

    Damped Newton on [[H(x), E^T], [E, 0]] with Armijo backtracking on the
    pattern energy.  The first step starts from x = 0, where phi_smooth
    has the gradient g0, with the p = 2 Hessian H0, so it lands on the
    pattern's p = 2 minimizer; at p = 2 the iteration stops there.  A
    later step ends the iteration once its Newton decrement is at the
    rounding level of the energy; a run that does not get there raises
    OracleError."""
    n, m = len(lin), len(e0)
    zero = np.zeros((m, m))

    def energy(x):
        return system.phi_smooth(x) + lin @ x

    x, H, g = np.zeros(n), H0, g0 + lin
    for step in range(_NEWTON_STEPS):
        try:
            dx = np.linalg.solve(np.block([[H, E.T], [E, zero]]),
                                 np.concatenate([-g, e0 - E @ x]))[:n]
        except np.linalg.LinAlgError:
            if step:
                raise OracleError("singular Newton matrix on a pattern") from None
            return None
        if step == 0:
            x = x + dx
            if system.law.p == 2.0:
                return x
        else:
            dec = -(g @ dx)
            e = energy(x)
            if dec <= 1e-14 * max(1.0, abs(e)):
                return x + dx
            t = 1.0
            for _ in range(_BACKTRACKS):
                if energy(x + t * dx) <= e - 1e-4 * t * dec:
                    break
                t *= 0.5
            else:
                raise OracleError("line search failed on a pattern "
                                  "(Newton decrement %.3e)" % dec)
            x = x + t * dx
        H = _hessian(system, J0, system.law, x[:system.nU])
        g = system.grad_smooth(x) + lin
    raise OracleError("pattern Newton did not converge in %d steps"
                      % _NEWTON_STEPS)


def oracle_vi(system):
    """Reference minimizer of the contact problem, for every p.

    Enumerates every contact/stick/slip pattern (v_n held at 0 or free,
    z_t held at 0 or of sign -/+), minimizes each pattern's smooth energy
    on its affine set and returns (objective, x) of the feasible pattern
    minimizer with the least objective.  Patterns with a singular KKT
    matrix are skipped; a pattern whose Newton run fails raises
    OracleError, as does an instance with more than MAX_CONSTRAINED Z dofs
    or with no feasible pattern.
    """
    if system.nZ > MAX_CONSTRAINED:
        raise OracleError("instance too large for enumeration (%d dofs)" % system.nZ)
    nU, n = system.nU, system.nU + system.nZ
    ns = len(system.slip_nodes)
    zn, zt = nU + system.idx_zn, nU + system.idx_zt
    F = system.friction.F
    eye = np.eye(n)
    tol_feas = 1e-10 * max(1.0, np.abs(system.rhs[:n]).max())
    nb = len(system.bcols)
    J0 = np.zeros((n, n))
    J0[np.ix_(system.bcols, system.bcols)] = system.J_block[:nb, :nb]
    H0 = _hessian(system, J0, MaterialLaw(p=2.0, mode=system.law.mode), np.zeros(nU))
    g0 = system.grad_smooth(np.zeros(n))

    best = (np.inf, None)
    for npat in itertools.product((0, 1), repeat=ns if system.d == 2 else 0):
        npat = np.array(npat, dtype=int)
        for tpat in itertools.product((-1, 0, 1), repeat=ns):
            tpat = np.array(tpat)
            # held rows in coordinate order, after the compatibility rows
            held = np.sort(np.concatenate([zn[npat == 1], zt[tpat == 0]]))
            lin = np.zeros(n)
            lin[zt] = tpat * F
            x = _pattern_minimizer(
                system, J0, H0, g0, np.vstack([system.C, eye[held]]),
                np.concatenate([system.c0, np.zeros(len(held))]), lin)
            if x is None:
                continue
            if (np.any(tpat * x[zt] < -tol_feas)
                    or np.any(x[zn][npat == 0] > tol_feas)):
                continue
            val = system.objective(x)
            if val < best[0]:
                best = (val, x)
    if best[1] is None:
        raise OracleError("no feasible pattern found")
    return best
