"""P1 finite elements: spaces, nonlinear residual/tangent assembly, loads.

The tables of an FESpace depend only on its mesh and ncomp.  Each is built
once per mesh and ncomp, on first use, and kept read-only in the mesh's
fe_tables, so every space on one mesh reads the same arrays; the tables
hold arrays only, with no reference back to the mesh or to a space.  The
residual and the element tangents take the element strains
(FESpace.strains), so a caller that needs both at one field evaluates the
strains once.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import material as mat
from .mesh import triangle_areas
from .quadrature import QuadratureRule


def _mesh_table(build):
    """Read-only property whose value build(space) is stored in the
    space's mesh, in mesh.fe_tables[ncomp]: the first space of a mesh and
    ncomp to read it builds it, every later one reads the same arrays,
    made read-only."""
    name = build.__name__

    def get(space):
        tables = space.mesh.fe_tables[space.ncomp]
        if name not in tables:
            value = build(space)
            for a in value if isinstance(value, tuple) else (value,):
                a.flags.writeable = False
            tables[name] = value
        return tables[name]
    return property(get, doc=build.__doc__)


class FESpace:
    """Piecewise-linear space on a triangulation, 1 (scalar) or 2 (vector)
    components.  Its tables (areas, grads, basis_strains, basis_gram,
    local_dofs, tangent_pattern, dissection_pattern) are the mesh's, shared
    by every space on it with the same ncomp."""

    def __init__(self, mesh, ncomp=1):
        if ncomp not in (1, 2):
            raise ValueError("ncomp must be 1 or 2")
        self.mesh = mesh
        self.ncomp = ncomp
        self.ndof = len(mesh.vertices) * ncomp

    @_mesh_table
    def areas(self):
        """(nt,) triangle areas."""
        return triangle_areas(self.mesh)

    @_mesh_table
    def grads(self):
        """(nt, 3, 2) gradients of the three barycentric basis functions
        per triangle."""
        p, t = self.mesh.vertices, self.mesh.triangles
        v0, v1, v2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
        twoA = 2.0 * self.areas
        g = np.empty((len(t), 3, 2))
        g[:, 0, 0] = v1[:, 1] - v2[:, 1]
        g[:, 0, 1] = v2[:, 0] - v1[:, 0]
        g[:, 1, 0] = v2[:, 1] - v0[:, 1]
        g[:, 1, 1] = v0[:, 0] - v2[:, 0]
        g[:, 2, 0] = v0[:, 1] - v1[:, 1]
        g[:, 2, 1] = v1[:, 0] - v0[:, 0]
        return g / twoA[:, None, None]

    @_mesh_table
    def basis_strains(self):
        """(nt, 3 * ncomp, m) per-element strain of each local basis function
        on the flat component axis of ``strains(u).reshape(nt, -1)``.

        scalar: m = 2, the gradients; vector: m = 4, the row-major entries of
        the symmetrized dyads; local dof ordering vertex-major,
        component-minor (as ``local_dofs``).
        """
        g = self.grads
        if self.ncomp == 1:
            return g
        nt = g.shape[0]
        out = np.zeros((nt, 6, 2, 2))
        for k in range(3):
            for c in range(2):
                e = np.zeros(2)
                e[c] = 1.0
                dy = 0.5 * (e[:, None] * g[:, k, None, :] + g[:, k, :, None] * e[None, :])
                out[:, 2 * k + c] = dy
        return out.reshape(nt, 6, 4)

    @_mesh_table
    def basis_gram(self):
        """(nt, k, k) pairings <strain(phi_k), strain(phi_l)> of the local basis."""
        bs = self.basis_strains
        return np.einsum("tkm,tlm->tkl", bs, bs)

    @_mesh_table
    def tangent_pattern(self):
        """csc_structure of the element dof pairs of local_dofs: the
        tangent's canonical CSC structure, the vertex graph times a full
        ncomp x ncomp block with exact zeros stored, and the slot of each
        entry of the (nt, k, k) element matrices, flat in row-major order."""
        dofs = self.local_dofs
        return csc_structure(dofs[:, :, None], dofs[:, None, :], self.ndof)

    @_mesh_table
    def dissection_pattern(self):
        """The FE part of every Newton pattern on the mesh (vi._newton_pattern)
        in the dissection numbering.  The dof order perm is the mesh's
        dissection_order times ncomp, and rank its inverse, so the boundary
        loop's dofs are the tail [t0, ndof).  Returns perm, rank, the mask
        `out` of the tangent_pattern's entries that lie outside the tail
        block after renumbering by rank, the column and row of each entry
        inside it, relative to t0, and csc_structure (with n = ndof) of the
        entries outside followed by the diagonal of 0, ..., t0 - 1: indptr,
        indices and the slot of each."""
        nc, n = self.ncomp, self.ndof
        perm = (nc * self.mesh.dissection_order[:, None] + np.arange(nc)).ravel()
        rank = np.empty_like(perm)
        rank[perm] = np.arange(n)
        t0 = n - nc * len(self.mesh.boundary_loop()[0])
        hptr, hind, _ = self.tangent_pattern
        rows, cols = rank[hind], rank[np.repeat(np.arange(n), np.diff(hptr))]
        out = (rows < t0) | (cols < t0)
        head = np.arange(t0)
        return (perm, rank, out, cols[~out] - t0, rows[~out] - t0) + csc_structure(
            np.concatenate([rows[out], head]), np.concatenate([cols[out], head]), n)

    @_mesh_table
    def local_dofs(self):
        """(nt, 3 * ncomp) global dof of each local basis function."""
        t = self.mesh.triangles
        return (self.ncomp * t[:, :, None] + np.arange(self.ncomp)).reshape(len(t), -1)

    def vertex_values(self, coeffs):
        """(nv, ncomp) view of a coefficient vector."""
        return np.asarray(coeffs).reshape(-1, self.ncomp)

    def gradients(self, coeffs):
        """Elementwise gradient: (nt, 2) scalar mode, (nt, 2, 2) rows=components vector mode."""
        vals = self.vertex_values(coeffs)[self.mesh.triangles]  # (nt, 3, ncomp)
        g = np.einsum("tkc,tkd->tcd", vals, self.grads)
        return g[:, 0, :] if self.ncomp == 1 else g

    def strains(self, coeffs):
        """Elementwise gradient (scalar) or symmetric strain (vector)."""
        g = self.gradients(coeffs)
        if self.ncomp == 1:
            return g
        return 0.5 * (g + np.transpose(g, (0, 2, 1)))


def csc_structure(rows, cols, n):
    """Canonical CSC structure (indptr, indices) of the n x n matrix with
    entries at (rows, cols), duplicates merged, in the index type scipy
    picks, and the slot in its data of each entry of rows and cols
    broadcast together, in row-major order: one argsort of the keys
    col * n + row (int32 when n (n + 1) fits).  Equal keys share their
    slot, so the order the sort leaves them in does not matter."""
    ktype = np.int32 if n * (n + 1) <= np.iinfo(np.int32).max else np.int64
    keys = (np.asarray(cols, dtype=ktype) * n + np.asarray(rows, dtype=ktype)).ravel()
    order = np.argsort(keys)
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    rank = np.cumsum(new)
    rank -= 1
    slot = np.empty_like(rank)
    slot[order] = rank
    itype = np.int32 if max(len(keys), n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.searchsorted(keys, np.arange(0, (n + 1) * n, n, dtype=ktype))
    return indptr.astype(itype), (keys % n).astype(itype), slot


def assemble_residual(space, law, eps):
    """Vector with entries <A'(eps), strain(phi_i)> for the element strains
    eps = space.strains(u_h): the residual of u_h, exact for P1 (the
    integrand is constant per element)."""
    sig = mat.stress(law, eps).reshape(len(eps), -1)
    loc = np.einsum("tm,tkm,t->tk", sig, space.basis_strains, space.areas)
    return np.bincount(space.local_dofs.ravel(), weights=loc.ravel(),
                       minlength=space.ndof)


def element_tangents(space, law, eps):
    """(nt, k, k) element matrices of the linearized residual at the
    element strains eps = space.strains(u_h), each scaled by its
    triangle's area."""
    c1, c2 = mat.tangent_coeffs(law, eps)
    xb = np.einsum("tm,tkm->tk", eps.reshape(len(eps), -1), space.basis_strains)
    loc = (c1[:, None, None] * space.basis_gram
           + c2[:, None, None] * xb[:, :, None] * xb[:, None, :])
    loc *= space.areas[:, None, None]
    return loc


def assemble_tangent(space, law, coeffs):
    """Sparse symmetric linearization of the residual at coeffs, in canonical
    CSC form on the space's tangent_pattern: the element_tangents summed
    into their slots in element order, exact zeros stored."""
    indptr, indices, slot = space.tangent_pattern
    loc = element_tangents(space, law, space.strains(coeffs))
    data = np.bincount(slot, weights=loc.ravel(), minlength=len(indices))
    return sp.csc_matrix((data, indices, indptr), shape=(space.ndof, space.ndof))


def assemble_load(space, f, quad_order=4):
    """Vector with entries int_Omega f . phi_i, by elementwise quadrature."""
    rule = QuadratureRule(quad_order)
    verts = space.mesh.vertices[space.mesh.triangles]   # (nt, 3, 2)
    pts = rule.points(verts)                            # (nt, nq, 2)
    fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float)
    nt, nq = pts.shape[:2]
    bw = rule.bary.T * rule.weights                     # (3, nq) constant table
    # (nt, 3, ncomp) moments on the reference triangle, scaled by the areas
    loc = bw @ fv.reshape(nt, nq, space.ncomp) * space.areas[:, None, None]
    loc = loc.reshape(nt, 3 * space.ncomp)
    return np.bincount(space.local_dofs.ravel(), weights=loc.ravel(),
                       minlength=space.ndof)


def energy(space, law, coeffs):
    """int_Omega A(strain(u_h)); exact for P1 fields."""
    eps = space.strains(coeffs)
    return float(np.sum(mat.potential(law, eps) * space.areas))
