"""Verification oracles for the contact solves.

For p = 2 the discrete problem is a QP with nodewise |.|-terms and bounds;
the oracle enumerates every contact/stick/slip pattern, solves the smooth
equality-constrained subproblem, and returns the feasible minimum.  For
p != 2 a long-horizon projected subgradient descent provides an approximate
reference with a reported gap; it works in the full coordinates (U, Z) and
keeps the compatibility rows C x = c0 by projection.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import fem


class OracleError(ValueError):
    pass


def _qp_matrices(system):
    if system.law.p != 2.0:
        raise OracleError("enumeration oracle requires p = 2")
    import scipy.sparse as sp
    K = fem.assemble_tangent(system.space, system.law,
                             np.zeros(system.nU))
    n = system.nU + system.nZ
    H = (sp.block_diag([K, sp.csr_matrix((system.nZ, system.nZ))])
         + system.J_const[:n, :n]).toarray()
    return H, system.rhs[:n]


def oracle_vi(system, max_constrained=12, subgrad_iterations=200000):
    """Reference minimizer of the contact problem.

    p = 2: exact enumeration over every contact/stick/slip pattern (v_n
    active/inactive, v_t in {-, 0, +}); each pattern is an equality-
    constrained QP.  Returns (objective, x).

    p != 2: long-horizon projected subgradient descent; returns
    (best objective, x) with the spread of the trailing iterates folded
    into the objective as a reported attribute on the array.
    """
    ns = len(system.slip_nodes)
    if system.nZ > max_constrained:
        raise OracleError("instance too large for enumeration (%d dofs)" % system.nZ)
    if system.law.p != 2.0:
        val, x, gap = oracle_subgradient(system, iterations=subgrad_iterations)
        return val, x
    H, b = _qp_matrices(system)
    n = H.shape[0]
    C, c0 = system.C, system.c0
    F = system.friction.F
    tol_feas = 1e-10 * max(1.0, np.abs(b).max())

    n_states = [(0, 1)] * ns if system.d == 2 else [(None,)] * ns
    t_states = [(-1, 0, 1)] * ns

    best = (np.inf, None)
    for npat in itertools.product(*n_states):
        for tpat in itertools.product(*t_states):
            rows = [C] if len(C) else []
            rhs = [c0] if len(C) else []
            lin = b.copy()
            for k in range(ns):
                if system.d == 2 and npat[k] == 1:
                    r = np.zeros(n)
                    r[system.nU + system.idx_zn[k]] = 1.0
                    rows.append(r[None, :])
                    rhs.append([0.0])
                if tpat[k] == 0:
                    r = np.zeros(n)
                    r[system.nU + system.idx_zt[k]] = 1.0
                    rows.append(r[None, :])
                    rhs.append([0.0])
                else:
                    lin[system.nU + system.idx_zt[k]] -= tpat[k] * F[k]
            E = np.vstack(rows) if rows else np.zeros((0, n))
            e0 = np.concatenate([np.atleast_1d(r) for r in rhs]) if rhs else np.zeros(0)
            m = len(e0)
            KKT = np.block([[H, E.T], [E, np.zeros((m, m))]])
            try:
                sol = np.linalg.solve(KKT, np.concatenate([lin, e0]))
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            ok = True
            for k in range(ns):
                zt = x[system.nU + system.idx_zt[k]]
                if tpat[k] != 0 and zt * tpat[k] < -tol_feas:
                    ok = False
                    break
                if system.d == 2:
                    zn = x[system.nU + system.idx_zn[k]]
                    if npat[k] == 0 and zn > tol_feas:
                        ok = False
                        break
            if not ok:
                continue
            val = system.objective(x)
            if val < best[0]:
                best = (val, x)
    if best[1] is None:
        raise OracleError("no feasible pattern found")
    return best


def oracle_subgradient(system, iterations=200000, step0=None):
    """Projected subgradient descent reference for p != 2 instances.

    Each step moves x = (U, Z) along the subgradient projected onto null(C),
    clips v_n <= 0, and restores C x = c0 by the least-norm change of U.
    Returns (best objective, best x, gap estimate from the last tenth).
    """
    nU, n = system.nU, system.nU + system.nZ
    C, c0 = system.C, system.c0
    Q = np.linalg.qr(C.T)[0]                   # orthonormal basis of range(C^T)
    lift = np.linalg.pinv(C[:, :nU])           # least-norm U for a C defect
    bound = nU + system.idx_zn

    def restore(x):
        x[:nU] += lift @ (c0 - C @ x)
        return x

    x = restore(np.zeros(n))
    if step0 is None:
        step0 = 0.1
    best_val, best_x = np.inf, None
    vals = []
    for k in range(1, int(iterations) + 1):
        g = system.grad_smooth(x)
        if system.nZ and len(system.friction.F):
            idx = nU + system.idx_zt
            s = x[idx]
            sub = np.where(s != 0, np.sign(s), 0.0)
            g[idx] += system.friction.F * sub
        g -= Q @ (Q.T @ g)
        gnorm = max(np.linalg.norm(g), 1e-300)
        x = x - step0 / (np.sqrt(k) * gnorm) * g
        x[bound] = np.minimum(x[bound], 0.0)
        restore(x)
        val = system.objective(x)
        if val < best_val:
            best_val, best_x = val, x.copy()
        if k > iterations * 0.9:
            vals.append(val)
    gap = float(np.std(vals)) if vals else np.inf
    return best_val, best_x, gap
