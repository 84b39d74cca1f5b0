"""Thermoelastic material point: the point model of ``thermoform.point`` over
the 13 base coordinates eps, F11..F33 (row-major), H1..H3, with no electric
content.  Its entropy form writes the dH slot as -rho^-1 (grad theta^-1) . dH,
so a potential U gives grad theta^-1 = -rho dU/dH.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import point
from .expr import ScalarField, const, div, mul, neg
from .geometry import OneForm
from .point import (BASE_COORDS, EPS_NAME, F_NAMES, H_NAMES, ModelError, TemperatureSingularity,
                    ThermoelasticState)

__all__ = [
    "EPS_NAME",
    "F_NAMES",
    "H_NAMES",
    "BASE_COORDS",
    "ETA_PRIME_COORDS",
    "ThermoelasticState",
    "ThermoelasticConstitutive",
    "ThermoelasticForcing",
    "ModelError",
    "TemperatureSingularity",
    "constitutive_from_potential",
    "potential_coefficients",
    "entropy_form",
    "step",
    "rates",
    "closeness_system_residual",
]

BETA_NAMES = ("beta1", "beta2", "beta3")
ETA_PRIME_COORDS = (EPS_NAME,) + F_NAMES + BETA_NAMES + ("t",)


@dataclass(frozen=True)
class ThermoelasticConstitutive:
    potential: ScalarField  # over BASE_COORDS
    rho: float
    k: float  # Fourier coefficient, grad theta^-1 = k q

    def __post_init__(self):
        if self.potential.coords != BASE_COORDS:
            raise ModelError("potential must be a field over the 13 base coordinates")
        if self.rho <= 0 or self.k <= 0:
            raise ModelError("rho and k must be positive")


@dataclass(frozen=True)
class ThermoelasticForcing:
    L: Callable[[float], np.ndarray]  # velocity gradient
    divq: Callable[[float], float]


def constitutive_from_potential(c: ThermoelasticConstitutive,
                                x: ThermoelasticState) -> tuple[float, np.ndarray, np.ndarray]:
    """(theta^-1, sigma:F^-1 tensor, grad theta^-1) from exact gradients of U."""
    u_eps, stress_term, _, _, beta = point.constitutive_from_potential(c, x)
    return u_eps, stress_term, -c.rho * beta


def potential_coefficients(c: ThermoelasticConstitutive):
    """The constitutive fields as expressions: theta^-1, sigma:F^-1 (9), grad theta^-1 (3)."""
    thetainv, stress, _, _, beta = point.potential_coefficients(c)
    return thetainv, stress, tuple(
        ScalarField(mul(const(-c.rho), b.expression), BASE_COORDS) for b in beta)


def entropy_form(thetainv: ScalarField, stress: tuple[ScalarField, ...],
                 grad_thetainv: tuple[ScalarField, ...], rho: float) -> OneForm:
    """Assemble eta from free coefficient fields; beta = -rho^-1 grad theta^-1."""
    beta = tuple(ScalarField(neg(div(g.expression, const(rho))), BASE_COORDS) for g in grad_thetainv)
    return point.entropy_form(thetainv, stress, None, None, beta, rho)


def rates(x: ThermoelasticState, c: ThermoelasticConstitutive, f: ThermoelasticForcing,
          t: float) -> np.ndarray:
    """Right-hand side of the 13-dim system at (t, x)."""
    return point.rhs(x.vector(), c, f, t)


def step(x: ThermoelasticState, c: ThermoelasticConstitutive, f: ThermoelasticForcing,
         t: float, dt: float) -> ThermoelasticState:
    """One classical RK4 step; rejects loss of orientation (det F <= 0)."""
    return point.rk4_step(x, c, f, t, dt)


def closeness_system_residual(thetainv: ScalarField, stress_over_theta: tuple[ScalarField, ...],
                              q_dot_beta: ScalarField, x: dict[str, float]) -> np.ndarray:
    """Residuals of the six closeness conditions for the time-extended form eta'.

    Coefficient fields live over (eps, F, beta, t).  Conditions in order:
    (eps,F) curl; d(theta^-1)/d(beta); d(sigma:F^-1/theta)/d(beta);
    d(q.beta)/d(beta); (F,t) curl; (eps,t) curl.  Each entry is the max-abs
    residual of its block.
    """
    coords = ETA_PRIME_COORDS
    for fld in (thetainv, q_dot_beta, *stress_over_theta):
        if fld.coords != coords:
            raise ModelError("eta' coefficients must live over (eps, F, beta, t)")
    if len(stress_over_theta) != 9:
        raise ModelError("need 9 components of sigma:F^-1/theta")

    g_thetainv = thetainv.grad(x)
    g_stress = np.array([s.grad(x) for s in stress_over_theta])
    g_qb = q_dot_beta.grad(x)

    i_eps = 0
    i_f = slice(1, 10)
    i_beta = slice(10, 13)
    i_t = 13

    r1 = np.abs(g_thetainv[i_f] + g_stress[:, i_eps]).max()
    r2 = np.abs(g_thetainv[i_beta]).max()
    r3 = np.abs(g_stress[:, i_beta]).max()
    r4 = np.abs(g_qb[i_beta]).max()
    r5 = np.abs(g_stress[:, i_t] + g_qb[i_f]).max()
    r6 = abs(g_thetainv[i_t] - g_qb[i_eps])
    return np.array([r1, r2, r3, r4, r5, r6])
