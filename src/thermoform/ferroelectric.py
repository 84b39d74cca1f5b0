"""Deformable ferroelectric crystal point: the point model of ``thermoform.point``
over the 25 base coordinates eps, F11..F33, pi1..pi3, gpi11..gpi33, H1..H3
(37-entry state).  Every name here is a ``point`` name under its ferroelectric
alias, or a one-line delegate to one: the constitutive law is
``point.Constitutive`` and the forcing is ``point.Forcing``, whose seven
channels default to zero.
"""
from __future__ import annotations

import numpy as np

from . import point
from .point import FE_COORDS, GPI_NAMES, PI_NAMES, Constitutive, FerroelectricState, Forcing

__all__ = [
    "FE_COORDS",
    "PI_NAMES",
    "GPI_NAMES",
    "FerroelectricState",
    "FerroelectricConstitutive",
    "FerroelectricForcing",
    "fe_constitutive_from_potential",
    "fe_potential_coefficients",
    "fe_entropy_form",
    "fe_rates",
    "fe_step",
]

FerroelectricConstitutive = Constitutive
FerroelectricForcing = Forcing
# The general point functions; LE and LEt are never None for a ferroelectric potential.
fe_constitutive_from_potential = point.constitutive_from_potential
fe_potential_coefficients = point.potential_coefficients
fe_entropy_form = point.entropy_form


def fe_rates(x: FerroelectricState, c: Constitutive, f: Forcing, t: float) -> np.ndarray:
    """Right-hand side of the coupled first-order system at (t, x)."""
    return point.rhs(x.vector(), c, f, t)


def fe_step(x: FerroelectricState, c: Constitutive, f: Forcing, t: float,
            dt: float) -> FerroelectricState:
    """One classical RK4 step of the coupled system."""
    return point.rk4_step(x, c, f, t, dt)
