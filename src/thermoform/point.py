"""The material point in the extended thermodynamic space: one state layout,
constitutive law, forcing, entropy form and RK4 dynamics for both point models.

State vector, block by block (also the CSV column order of ``simulate``):
eps, F11..F33 (row-major), H1..H3, then for the deformable ferroelectric
point pi1..pi3, gpi11..gpi33 (grad pi), u1..u3 (u = pi-dot) and gu11..gu33
(grad u).  The 13-entry thermoelastic state is a prefix of the 37-entry
ferroelectric one.  Which model a constitutive law describes is read from
its potential's coordinates: the 13 (eps, F, H) or the 25 (eps, F, pi,
grad pi, H).  The entropy form is

    eta = theta^-1 d(eps) - (rho theta)^-1 sigma:F^-1 : dF
          [+ theta^-1 LE . d(pi) - (rho theta)^-1 LEt : d(grad pi)]
          + beta . dH

with LE the local electric field and LEt the local electric field tensor;
it closes exactly when its coefficients come from a potential U:
theta^-1 = dU/d(eps), sigma:F^-1 = -rho theta dU/dF, LE = theta dU/d(pi),
LEt = -rho theta dU/d(grad pi), beta = dU/dH.  Spatial divergences (div q,
div LEt, div P, flux/source of grad u) are not derivable from point state;
each enters the dynamics as a forcing channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import ScalarField, const, div, mul, neg
from .geometry import OneForm

EPS_NAME = "eps"
F_NAMES = tuple(f"F{i}{j}" for i in range(1, 4) for j in range(1, 4))
H_NAMES = ("H1", "H2", "H3")
PI_NAMES = ("pi1", "pi2", "pi3")
GPI_NAMES = tuple(f"gpi{i}{j}" for i in range(1, 4) for j in range(1, 4))
STATE_NAMES = ((EPS_NAME,) + F_NAMES + H_NAMES + PI_NAMES + GPI_NAMES + ("u1", "u2", "u3")
               + tuple(f"gu{i}{j}" for i in range(1, 4) for j in range(1, 4)))
BASE_COORDS = STATE_NAMES[:13]
FE_COORDS = (EPS_NAME,) + F_NAMES + PI_NAMES + GPI_NAMES + H_NAMES

# Blocks of the state vector; the gradient of U, taken in state order, splits alike.
_F, _H, _PI, _GPI, _U, _GU = (slice(1, 10), slice(10, 13), slice(13, 16), slice(16, 25),
                              slice(25, 28), slice(28, 37))
_POTENTIAL_NAMES = STATE_NAMES[:25]  # zipped with a state vector: the potential's binding
_DU_LABELS = tuple(f"dU/d{name}" for name in _POTENTIAL_NAMES)


class ModelError(Exception):
    pass


class TemperatureSingularity(ModelError):
    """dU/d(eps) vanished: the inverse temperature is undefined."""


@dataclass
class ThermoelasticState:
    eps: float
    F: np.ndarray  # 3x3
    H: np.ndarray  # 3-vector

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float).reshape(3, 3)
        self.H = np.asarray(self.H, dtype=float).reshape(3)
        if np.linalg.det(self.F) <= 0.0:
            raise ModelError("deformation gradient must have positive determinant")

    def _blocks(self) -> list:
        return [[self.eps], self.F.ravel(), self.H]

    def vector(self) -> np.ndarray:
        return np.concatenate(self._blocks())

    def binding(self) -> dict[str, float]:
        return dict(zip(_POTENTIAL_NAMES, self.vector().tolist()))

    @classmethod
    def from_vector(cls, y: np.ndarray) -> "ThermoelasticState":
        return cls(float(y[0]), y[_F], y[_H])


@dataclass
class FerroelectricState(ThermoelasticState):
    pi: np.ndarray       # polarization per unit mass, 3
    grad_pi: np.ndarray  # 3x3
    u: np.ndarray        # pi-dot, 3
    grad_u: np.ndarray   # 3x3

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float).reshape(3)
        self.grad_pi = np.asarray(self.grad_pi, dtype=float).reshape(3, 3)
        self.u = np.asarray(self.u, dtype=float).reshape(3)
        self.grad_u = np.asarray(self.grad_u, dtype=float).reshape(3, 3)
        super().__post_init__()

    def _blocks(self) -> list:
        return [*super()._blocks(), self.pi, self.grad_pi.ravel(), self.u, self.grad_u.ravel()]

    @classmethod
    def from_vector(cls, y: np.ndarray) -> "FerroelectricState":
        return cls(float(y[0]), y[_F], y[_H], y[_PI], y[_GPI], y[_U], y[_GU])


@dataclass(frozen=True)
class Constitutive:
    """The point's constitutive law.  Its potential's coordinates, BASE_COORDS
    or FE_COORDS, fix the model; k is the Fourier coefficient, grad theta^-1 = k q,
    and ``inertia`` scales u-dot (unused by the thermoelastic point)."""
    potential: ScalarField
    rho: float
    k: float
    inertia: float = 1.0

    def __post_init__(self):
        if self.potential.coords not in (BASE_COORDS, FE_COORDS):
            raise ModelError("potential must be a field over the 13 or the 25 base coordinates")
        if self.rho <= 0 or self.k <= 0 or self.inertia == 0:
            raise ModelError("rho, k must be positive and inertia nonzero")


@dataclass(frozen=True, kw_only=True)
class Forcing:
    """The point's channels, each a function of t; the thermoelastic point reads L and divq."""
    E_ext: Callable[[float], np.ndarray] = lambda t: np.zeros(3)
    L: Callable[[float], np.ndarray] = lambda t: np.zeros((3, 3))  # velocity gradient
    divq: Callable[[float], float] = lambda t: 0.0
    poynting_term: Callable[[float], float] = lambda t: 0.0
    div_e_tensor: Callable[[float], np.ndarray] = lambda t: np.zeros(3)  # div of LEt
    div_J_grad_u: Callable[[float], np.ndarray] = lambda t: np.zeros((3, 3))
    source_grad_u: Callable[[float], np.ndarray] = lambda t: np.zeros((3, 3))


def _constitutive(c: Constitutive, b: dict[str, float]):
    if len(b) != len(c.potential.coords):
        raise ModelError("the state and the constitutive law are of different point models")
    g = c.potential.finite_grad(b, _DU_LABELS, _POTENTIAL_NAMES[:len(b)])
    u_eps = float(g[0])
    if u_eps == 0.0:
        raise TemperatureSingularity("dU/d(eps) = 0 at the probe state")
    theta = 1.0 / u_eps
    stress_term = -c.rho * theta * g[_F].reshape(3, 3)
    if len(g) == len(BASE_COORDS):
        return u_eps, stress_term, None, None, g[_H]
    return u_eps, stress_term, theta * g[_PI], -c.rho * theta * g[_GPI].reshape(3, 3), g[_H]


def constitutive_from_potential(c: Constitutive, x: ThermoelasticState):
    """(theta^-1, sigma:F^-1 tensor, LE, LEt tensor, beta) by exact gradients of U;
    LE and LEt are None when the potential has no electric coordinates."""
    return _constitutive(c, x.binding())


def potential_coefficients(c: Constitutive):
    """Constitutive fields as expressions: theta^-1, stress(9), LE(3), LEt(9), beta(3);
    LE and LEt are None when the potential has no electric coordinates."""
    u = c.potential
    du = dict(zip(u.coords, u.partials()))
    ti = du[EPS_NAME].expression

    def over(e):
        return ScalarField(e, u.coords)

    def work_conjugate(name):  # -rho theta dU/d(name)
        return over(neg(mul(const(c.rho), div(du[name].expression, ti))))

    stress = tuple(work_conjugate(n) for n in F_NAMES)
    e_loc = e_tensor = None
    if u.coords == FE_COORDS:
        e_loc = tuple(over(div(du[n].expression, ti)) for n in PI_NAMES)
        e_tensor = tuple(work_conjugate(n) for n in GPI_NAMES)
    return du[EPS_NAME], stress, e_loc, e_tensor, tuple(du[n] for n in H_NAMES)


def entropy_form(thetainv: ScalarField, stress: tuple[ScalarField, ...],
                 e_loc: tuple[ScalarField, ...] | None, e_tensor: tuple[ScalarField, ...] | None,
                 beta: tuple[ScalarField, ...], rho: float,
                 t_coefficient: ScalarField | None = None) -> OneForm:
    """Assemble eta from free coefficient fields, signs fixed by the balance.

    Over the 13 thermoelastic coordinates when LE and LEt are None, else over
    the 25 ferroelectric ones.  With ``t_coefficient`` given (the full
    -rho^-1(theta^-1 div P + div k) channel as one field over the base
    coordinates plus t) the form gains a dt slot and all coefficients are
    promoted to the extended space.
    """
    electric = (e_loc, e_tensor) != (None, None)
    if len(stress) != 9 or len(beta) != 3 or (
            electric and (len(e_loc or ()), len(e_tensor or ())) != (3, 9)):
        raise ModelError("coefficient arity mismatch")
    coords = FE_COORDS if electric else BASE_COORDS
    if t_coefficient is not None:
        coords += ("t",)
    ti = thetainv.expression

    def work(f):  # -(rho theta)^-1 f
        return neg(mul(div(ti, const(rho)), f.expression))

    coeffs = [ti, *(work(s) for s in stress)]
    if electric:
        coeffs += [mul(ti, e.expression) for e in e_loc] + [work(e) for e in e_tensor]
    coeffs += [b.expression for b in beta]
    if t_coefficient is not None:
        coeffs.append(t_coefficient.expression)
    return OneForm(coords, tuple(ScalarField(e, coords) for e in coeffs))


def rhs(y: np.ndarray, c: Constitutive, f: Forcing, t: float) -> np.ndarray:
    """Right-hand side of the point's first-order system at (t, y), y a state vector."""
    u_eps, stress_term, e_loc, e_tensor, beta = _constitutive(c, dict(zip(_POTENTIAL_NAMES, y.tolist())))
    L = np.asarray(f.L(t), dtype=float).reshape(3, 3)
    F_dot = L @ y[_F].reshape(3, 3)
    H_dot = (c.rho / c.k) * beta
    # energy balance: rho eps-dot = sigma:L [- rho LE.u + LEt:grad u] - div q [+ div-P channel]
    power = float((stress_term * F_dot).sum()) / c.rho
    if e_loc is None:
        return np.concatenate(([power - f.divq(t) / c.rho], F_dot.ravel(), H_dot))
    u, grad_u = y[_U], y[_GU]
    eps_dot = (power - float(e_loc @ u) + float((e_tensor * grad_u.reshape(3, 3)).sum()) / c.rho
               - f.divq(t) / c.rho + f.poynting_term(t))
    u_dot = (np.asarray(f.E_ext(t), dtype=float).reshape(3) + e_loc
             + np.asarray(f.div_e_tensor(t), dtype=float).reshape(3) / c.rho) / c.inertia
    grad_u_dot = (np.asarray(f.div_J_grad_u(t), dtype=float).reshape(3, 3)
                  + np.asarray(f.source_grad_u(t), dtype=float).reshape(3, 3))
    return np.concatenate(([eps_dot], F_dot.ravel(), H_dot, u, grad_u, u_dot, grad_u_dot.ravel()))


def _stage(n: int, y: np.ndarray, c: Constitutive, f: Forcing, t: float) -> np.ndarray:
    """The rates of RK stage ``n`` at (t, y); a non-finite one is a ModelError naming it."""
    k = rhs(y, c, f, t)
    rates = k.tolist()
    if not all(map(math.isfinite, rates)):  # a third of np.isfinite(k).all()'s cost on 13 entries
        i = next(i for i, v in enumerate(rates) if not math.isfinite(v))
        raise ModelError(f"non-finite d{STATE_NAMES[i]}/dt in RK stage {n} at t={t!r} "
                         f"(value {rates[i]!r})")
    return k


def rk4_step(x: ThermoelasticState, c: Constitutive, f: Forcing, t: float,
             dt: float) -> ThermoelasticState:
    """One classical RK4 step on the state vector.  Each stage's rates are checked
    to be finite before the next stage is formed; only the returned state is
    checked for loss of orientation (det F <= 0)."""
    if dt <= 0:
        raise ModelError("dt must be positive")
    y = x.vector()
    with np.errstate(all="ignore"):  # an overflow shows as the non-finite rate _stage names
        k1 = _stage(1, y, c, f, t)
        k2 = _stage(2, y + 0.5 * dt * k1, c, f, t + 0.5 * dt)
        k3 = _stage(3, y + 0.5 * dt * k2, c, f, t + 0.5 * dt)
        k4 = _stage(4, y + dt * k3, c, f, t + dt)
        return type(x).from_vector(y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
