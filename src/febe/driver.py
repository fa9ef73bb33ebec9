"""Glue: build the coupled discrete system from mesh + law + data."""

from __future__ import annotations

from . import material as mat
from .bem import BoundarySpace, assemble_operators
from .fem import FESpace
from .vi import CoupledSystem


def build_system(mesh, law, data, exterior=None, ncompat=None,
                 bem_quad=8, fem_quad=4, previous=None):
    """Assemble spaces, boundary operators and the coupled system.

    previous: the CoupledSystem of the previous adaptive level, or None;
    its boundary operators are handed to assemble_operators for reuse.
    """
    space = FESpace(mesh, law.ncomp)
    bspace = BoundarySpace(mesh)
    coeffs = None
    if law.ncomp == 2:
        coeffs = exterior or mat.ExteriorCoefficients(mu=1.0, lam=1.0)
    ops = assemble_operators(bspace, coeffs, quad_order=bem_quad,
                             previous=previous.ops if previous is not None else None)
    return CoupledSystem(space, bspace, ops, law, data, ncompat=ncompat,
                         quad_order=fem_quad)
