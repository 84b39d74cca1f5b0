"""Deformable ferroelectric crystal point: the point model of ``thermoform.point``
over the 25 base coordinates eps, F11..F33, pi1..pi3, gpi11..gpi33, H1..H3
(37-entry state), with its seven forcing channels defaulting to zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import point
from .expr import ScalarField
from .point import FE_COORDS, GPI_NAMES, PI_NAMES, FerroelectricState, ModelError

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


@dataclass(frozen=True)
class FerroelectricConstitutive:
    potential: ScalarField  # over FE_COORDS
    rho: float
    k: float
    inertia: float = 1.0

    def __post_init__(self):
        if self.potential.coords != FE_COORDS:
            raise ModelError("potential must be a field over the 25 base coordinates")
        if self.rho <= 0 or self.k <= 0 or self.inertia == 0:
            raise ModelError("rho, k must be positive and inertia nonzero")


@dataclass(frozen=True)
class FerroelectricForcing:
    E_ext: Callable[[float], np.ndarray] = lambda t: np.zeros(3)
    L: Callable[[float], np.ndarray] = lambda t: np.zeros((3, 3))
    divq: Callable[[float], float] = lambda t: 0.0
    poynting_term: Callable[[float], float] = lambda t: 0.0
    div_e_tensor: Callable[[float], np.ndarray] = lambda t: np.zeros(3)  # div of LEt
    div_J_grad_u: Callable[[float], np.ndarray] = lambda t: np.zeros((3, 3))
    source_grad_u: Callable[[float], np.ndarray] = lambda t: np.zeros((3, 3))


# The general point functions; LE and LEt are never None for a ferroelectric potential.
fe_constitutive_from_potential = point.constitutive_from_potential
fe_potential_coefficients = point.potential_coefficients
fe_entropy_form = point.entropy_form


def fe_rates(x: FerroelectricState, c: FerroelectricConstitutive,
             f: FerroelectricForcing, t: float) -> np.ndarray:
    """Right-hand side of the coupled first-order system at (t, x)."""
    return point.rhs(x.vector(), c, f, t)


def fe_step(x: FerroelectricState, c: FerroelectricConstitutive, f: FerroelectricForcing,
            t: float, dt: float) -> FerroelectricState:
    """One classical RK4 step of the coupled system."""
    return point.rk4_step(x, c, f, t, dt)
