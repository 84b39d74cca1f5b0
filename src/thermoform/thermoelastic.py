"""Thermoelastic material point: the point model of ``thermoform.point`` over
the 13 base coordinates eps, F11..F33 (row-major), H1..H3, with no electric
content.  Its constitutive law and forcing are ``point.Constitutive`` and
``point.Forcing`` under their thermoelastic names.  What is its own: the
entropy form writes the dH slot as -rho^-1 (grad theta^-1) . dH, so a
potential U gives grad theta^-1 = -rho dU/dH, and the closeness conditions
of the time-extended form (``closeness_system_residual``).
"""
from __future__ import annotations

import numpy as np

from . import point
from .expr import ScalarField, const, div, mul, neg
from .geometry import OneForm, _first_non_finite
from .point import (BASE_COORDS, EPS_NAME, F_NAMES, H_NAMES, Constitutive, Forcing, ModelError,
                    TemperatureSingularity, ThermoelasticState)

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

# closeness_system_residual's conditions: name, rows and columns of its d(eta') block, orienting sign
_CONDITIONS = (("(eps,F) curl", (EPS_NAME,), F_NAMES, 1.0),
               ("d(theta^-1)/d(beta)", (EPS_NAME,), BETA_NAMES, 1.0),
               ("d(sigma:F^-1/theta)/d(beta)", F_NAMES, BETA_NAMES, -1.0),
               ("d(q.beta)/d(beta)", ("t",), BETA_NAMES, 1.0),
               ("(F,t) curl", F_NAMES, ("t",), -1.0),
               ("(eps,t) curl", (EPS_NAME,), ("t",), 1.0))
_BLOCK_INDEX = [np.ix_(*([ETA_PRIME_COORDS.index(n) for n in names] for names in c[1:3])) for c in _CONDITIONS]

ThermoelasticConstitutive = Constitutive
ThermoelasticForcing = Forcing


def _thermoelastic(c: Constitutive) -> Constitutive:
    if c.potential.coords != BASE_COORDS:
        raise ModelError("potential must be a field over the 13 base coordinates")
    return c


def constitutive_from_potential(c: Constitutive,
                                x: ThermoelasticState) -> tuple[float, np.ndarray, np.ndarray]:
    """(theta^-1, sigma:F^-1 tensor, grad theta^-1) from exact gradients of U."""
    u_eps, stress_term, _, _, beta = point.constitutive_from_potential(_thermoelastic(c), x)
    return u_eps, stress_term, -c.rho * beta


def potential_coefficients(c: Constitutive):
    """The constitutive fields as expressions: theta^-1, sigma:F^-1 (9), grad theta^-1 (3)."""
    thetainv, stress, _, _, beta = point.potential_coefficients(_thermoelastic(c))
    return thetainv, stress, tuple(
        ScalarField(mul(const(-c.rho), b.expression), BASE_COORDS) for b in beta)


def entropy_form(thetainv: ScalarField, stress: tuple[ScalarField, ...],
                 grad_thetainv: tuple[ScalarField, ...], rho: float) -> OneForm:
    """Assemble eta from free coefficient fields; beta = -rho^-1 grad theta^-1."""
    beta = tuple(ScalarField(neg(div(g.expression, const(rho))), BASE_COORDS) for g in grad_thetainv)
    return point.entropy_form(thetainv, stress, None, None, beta, rho)


def rates(x: ThermoelasticState, c: Constitutive, f: Forcing, t: float) -> np.ndarray:
    """Right-hand side of the 13-dim system at (t, x)."""
    return point.rhs(x.vector(), _thermoelastic(c), f, t)


def step(x: ThermoelasticState, c: Constitutive, f: Forcing, t: float,
         dt: float) -> ThermoelasticState:
    """One classical RK4 step; rejects loss of orientation (det F <= 0)."""
    return point.rk4_step(x, _thermoelastic(c), f, t, dt)


def closeness_system_residual(thetainv: ScalarField, stress_over_theta: tuple[ScalarField, ...],
                              q_dot_beta: ScalarField, x: dict[str, float]) -> np.ndarray:
    """Residuals of the six closeness conditions for the time-extended form eta'.

    Coefficient fields live over (eps, F, beta, t), and eta' = theta^-1 deps -
    (sigma:F^-1/theta):dF + 0.dbeta + (q.beta)dt.  The conditions are six off-diagonal
    blocks of d(eta') = J - J^T at x, J the coefficients' Jacobian, in order: (eps,F) curl;
    d(theta^-1)/d(beta); d(sigma:F^-1/theta)/d(beta); d(q.beta)/d(beta); (F,t) curl;
    (eps,t) curl.  The (F,F) block is not one of them: it is neither reported nor gated.
    Each entry is the max-abs residual of its block.  A non-finite entry is no evidence either
    way: it raises DomainError naming its condition and pair, the first by condition, then row-major.
    """
    for fld in (thetainv, q_dot_beta, *stress_over_theta):
        if fld.coords != ETA_PRIME_COORDS:
            raise ModelError("eta' coefficients must live over (eps, F, beta, t)")
    if len(stress_over_theta) != 9:
        raise ModelError("need 9 components of sigma:F^-1/theta")

    jac = np.array([thetainv.grad(x), *(-s.grad(x) for s in stress_over_theta), *np.zeros((3, 14)),
                    q_dot_beta.grad(x)])  # the zero rows: eta' has no d(beta) term
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is raised below, by name
        d_eta = jac - jac.T
    return np.array([np.abs(_first_non_finite(sign * d_eta[index], rows, cols, "closeness residual",
                                              f"the condition {name}, pair")).max()
                     for (name, rows, cols, sign), index in zip(_CONDITIONS, _BLOCK_INDEX)])
