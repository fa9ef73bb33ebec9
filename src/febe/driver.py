"""Glue: build the coupled discrete system from mesh + law + data."""

from __future__ import annotations

from . import material as mat
from .bem import BoundarySpace, assemble_operators
from .fem import FESpace
from .vi import CoupledSystem


def build_system(mesh, law, data, exterior=None, ncompat=None,
                 bem_quad=8, fem_quad=4):
    """Assemble spaces, boundary operators and the coupled system."""
    space = FESpace(mesh, law.ncomp)
    bspace = BoundarySpace(mesh)
    coeffs = None
    if law.ncomp == 2:
        coeffs = exterior or mat.ExteriorCoefficients(mu=1.0, lam=1.0)
    ops = assemble_operators(bspace, coeffs, quad_order=bem_quad)
    return CoupledSystem(space, bspace, ops, law, data, ncompat=ncompat,
                         quad_order=fem_quad)
