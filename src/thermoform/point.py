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

An RK4 step (``_rk4``, on the state vector as a list of floats; ``rk4_step`` wraps it)
reads the forcing once per distinct t (3 reads a step: stages 2 and 3 share t + dt/2),
and sums the rates in a fixed order with no BLAS or LAPACK call, so their bits do not depend on the CPU.
A read is one float sweep over a joint tape of the channels' entries if all are ``TimeFunction``s of
their shapes (``config.time_fn``'s; a zero one is zeros), else a call of each channel in turn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .expr import ScalarField, const, div, evaluate_all, lower, mul, neg
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
    """dU/d(eps) vanished or is so small that the temperature 1/dU/d(eps) overflows."""


def _oriented(F: list) -> None:
    """ModelError unless det F > 0 (a NaN det is not), F row-major; det by cofactors, no LAPACK call."""
    a, b, c, d, e, f, g, h, i = F
    if not a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) > 0.0:
        raise ModelError("deformation gradient must have positive determinant")


@dataclass
class ThermoelasticState:
    eps: float
    F: np.ndarray  # 3x3
    H: np.ndarray  # 3-vector
    _COORDS: ClassVar = BASE_COORDS  # the potential's coordinates
    _BLOCKS: ClassVar = (("F", (3, 3), _F), ("H", (3,), _H))  # after eps: (field, shape, slice)
    _CHANNELS: ClassVar = (("L", (3, 3)), ("divq", ()))  # the Forcing fields the rates read, in read order

    def __post_init__(self):
        for name, shape, _ in self._BLOCKS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(shape))
        _oriented(self.F.ravel().tolist())

    def vector(self) -> np.ndarray:
        return np.concatenate([[self.eps], *[getattr(self, name).ravel() for name, _, _ in self._BLOCKS]])

    def binding(self) -> dict[str, float]:
        return dict(zip(_POTENTIAL_NAMES, self.vector().tolist()))

    @classmethod
    def from_vector(cls, y: np.ndarray) -> "ThermoelasticState":
        return cls(float(y[0]), *[y[block] for _, _, block in cls._BLOCKS])


@dataclass
class FerroelectricState(ThermoelasticState):
    pi: np.ndarray       # polarization per unit mass, 3
    grad_pi: np.ndarray  # 3x3
    u: np.ndarray        # pi-dot, 3
    grad_u: np.ndarray   # 3x3
    _COORDS: ClassVar = FE_COORDS
    _BLOCKS: ClassVar = (*ThermoelasticState._BLOCKS, ("pi", (3,), _PI), ("grad_pi", (3, 3), _GPI),
                         ("u", (3,), _U), ("grad_u", (3, 3), _GU))
    _CHANNELS: ClassVar = (*ThermoelasticState._CHANNELS, ("poynting_term", ()), ("E_ext", (3,)),
                           ("div_e_tensor", (3,)), ("div_J_grad_u", (3, 3)), ("source_grad_u", (3, 3)))


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
        if not all(map(math.isfinite, (self.rho, self.k, self.inertia))):
            raise ModelError(f"rho, k and inertia must be finite: {self.rho!r}, {self.k!r}, {self.inertia!r}")


@dataclass(frozen=True)
class TimeFunction:
    """A channel of t: its entries' tape (None: zero) and shape; a call is an ndarray, or for () a float."""
    tape: object
    shape: tuple[int, ...]

    def __call__(self, t: float):
        values = evaluate_all(self.tape, {"t": t}) if self.tape else [0.0] * math.prod(self.shape)
        return np.array(values).reshape(self.shape) if self.shape else values[0]


@dataclass(frozen=True, kw_only=True)
class Forcing:
    """The point's channels, each a function of t; the thermoelastic point reads L and divq."""
    E_ext: Callable[[float], np.ndarray] = TimeFunction(None, (3,))
    L: Callable[[float], np.ndarray] = TimeFunction(None, (3, 3))  # velocity gradient
    divq: Callable[[float], float] = TimeFunction(None, ())
    poynting_term: Callable[[float], float] = TimeFunction(None, ())
    div_e_tensor: Callable[[float], np.ndarray] = TimeFunction(None, (3,))  # div of LEt
    div_J_grad_u: Callable[[float], np.ndarray] = TimeFunction(None, (3, 3))
    source_grad_u: Callable[[float], np.ndarray] = TimeFunction(None, (3, 3))

    def _read(self, channels: tuple, t: float) -> list:
        """``channels`` at t in order, each a flat float list (a scalar a float): one sweep of their joint
        tape when every one is a ``TimeFunction`` of its shape, else each called in order through ``_entries``."""
        joints = self.__dict__.setdefault("_joints", {})  # channel list -> (joint tape, layout); layout None: called
        if channels not in joints:
            fns, roots, layout = [getattr(self, name) for name, _ in channels], [], None
            if all(isinstance(fn, TimeFunction) and fn.shape == shape for fn, (_, shape) in zip(fns, channels)):
                layout = []  # per channel, where its entries sit in 9 zeros + the sweep
                for fn, (_, shape) in zip(fns, channels):
                    at = 9 + len(roots) if fn.tape else 0
                    roots += fn.tape.roots if fn.tape else ()
                    layout.append(slice(at, at + math.prod(shape)) if shape else at)
            joints[channels] = (lower(roots) if roots else None), layout
        tape, layout = joints[channels]
        if layout is None:
            with np.errstate(all="ignore"):  # a user callable's numpy overflow shows as a non-finite rate
                return [_entries(getattr(self, name)(t), shape) for name, shape in channels]
        flat = [0.0] * 9 + (evaluate_all(tape, {"t": t}) if tape else [])
        return [flat[at] for at in layout]


def _gradient(c: Constitutive, y: list) -> list:
    """dU in state order at the state vector ``y``, checked: model, finite, theta = 1/dU/d(eps) finite."""
    b = dict(zip(_POTENTIAL_NAMES, y))
    if len(b) != len(c.potential.coords):
        raise ModelError("the state and the constitutive law are of different point models")
    g = c.potential.finite_grad_list(b, _DU_LABELS, _POTENTIAL_NAMES[:len(b)])
    if g[0] == 0.0:
        raise TemperatureSingularity("dU/d(eps) = 0 at the probe state")
    if not math.isfinite(1.0 / g[0]):
        raise TemperatureSingularity(f"dU/d(eps) = {g[0]!r} at the probe state: theta = 1/dU/d(eps) overflows")
    return g


def constitutive_from_potential(c: Constitutive, x: ThermoelasticState):
    """(theta^-1, sigma:F^-1 tensor, LE, LEt tensor, beta) by exact gradients of U;
    LE and LEt are None when the potential has no electric coordinates."""
    g = _gradient(c, x.vector().tolist())
    theta, d = 1.0 / g[0], np.array(g)
    stress_term = -c.rho * theta * d[_F].reshape(3, 3)
    if len(g) == len(BASE_COORDS):
        return g[0], stress_term, None, None, d[_H]
    return g[0], stress_term, theta * d[_PI], -c.rho * theta * d[_GPI].reshape(3, 3), d[_H]


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


def _entries(value, shape: tuple[int, ...]):
    """A channel's value as a flat list of floats, a scalar channel's as a float."""
    return np.asarray(value, dtype=float).reshape(shape).ravel().tolist() if shape else float(value)


def _contract(w: float, a: list, b: list) -> float:
    """(w a):b over 9 entries, summed in the order of numpy's pairwise .sum()."""
    p = [w * s * v for s, v in zip(a, b)]
    return ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7])) + p[8]


def _rates(y: list, c: Constitutive, f: Forcing, t: float, read: dict) -> list:
    """The rates at (t, y): dU and its checks, then the forcing at t, read once per t in ``read``.
    L F is summed row by column, e_loc . u left to right, the rest in numpy's element-wise order."""
    g = _gradient(c, y)
    if t not in read:
        read[t] = f._read((FerroelectricState if len(g) > len(BASE_COORDS) else ThermoelasticState)._CHANNELS, t)
    (l0, l1, l2, l3, l4, l5, l6, l7, l8), divq, *electric = read[t]
    f0, f1, f2, f3, f4, f5, f6, f7, f8 = y[_F]
    F_dot = [l0 * f0 + l1 * f3 + l2 * f6, l0 * f1 + l1 * f4 + l2 * f7, l0 * f2 + l1 * f5 + l2 * f8,
             l3 * f0 + l4 * f3 + l5 * f6, l3 * f1 + l4 * f4 + l5 * f7, l3 * f2 + l4 * f5 + l5 * f8,
             l6 * f0 + l7 * f3 + l8 * f6, l6 * f1 + l7 * f4 + l8 * f7, l6 * f2 + l7 * f5 + l8 * f8]
    rho, theta = c.rho, 1.0 / g[0]
    # energy balance: rho eps-dot = sigma:L [- rho LE.u + LEt:grad u] - div q [+ div-P channel]
    power = _contract(-rho * theta, g[_F], F_dot) / rho
    r = rho / c.k
    if not electric:
        return [power - divq / rho, *F_dot, r * g[10], r * g[11], r * g[12]]
    poynting, E, div_e, div_J, source = electric
    e0, e1, e2 = theta * g[13], theta * g[14], theta * g[15]
    eps_dot = (power - (e0 * y[25] + e1 * y[26] + e2 * y[27])
               + _contract(-rho * theta, g[_GPI], y[_GU]) / rho - divq / rho + poynting)
    u_dot = [((a + e) + d / rho) / c.inertia for a, e, d in zip(E, (e0, e1, e2), div_e)]
    return [eps_dot, *F_dot, r * g[10], r * g[11], r * g[12], *y[25:37], *u_dot,
            *[a + b for a, b in zip(div_J, source)]]


def rhs(y: np.ndarray, c: Constitutive, f: Forcing, t: float) -> np.ndarray:
    """Right-hand side of the point's first-order system at (t, y), y a state vector."""
    return np.array(_rates(y.tolist(), c, f, t, {}))


def _stage(n: int, y: list, c: Constitutive, f: Forcing, t: float, read: dict) -> list:
    """The rates of RK stage ``n`` at (t, y); a non-finite one is a ModelError naming it."""
    rates = _rates(y, c, f, t, read)
    if not all(map(math.isfinite, rates)):
        i = next(i for i, v in enumerate(rates) if not math.isfinite(v))
        raise ModelError(f"non-finite d{STATE_NAMES[i]}/dt in RK stage {n} at t={t!r} "
                         f"(value {rates[i]!r})")
    return rates


def _rk4(y: list, c: Constitutive, f: Forcing, t: float, dt: float) -> list:
    """One classical RK4 step of the state vector ``y`` (floats), combining the stages in numpy's
    element-wise order.  Each stage's rates are checked to be finite before the next stage is formed,
    which names a forcing's overflow; only the returned state is checked to be finite, then for det F <= 0."""
    if not 0.0 < dt < math.inf:
        raise ModelError(f"dt must be positive and finite, got {dt!r}")
    half, sixth, mid, read = 0.5 * dt, dt / 6.0, t + 0.5 * dt, {}
    k1 = _stage(1, y, c, f, t, read)
    k2 = _stage(2, [a + half * k for a, k in zip(y, k1)], c, f, mid, read)
    k3 = _stage(3, [a + half * k for a, k in zip(y, k2)], c, f, mid, read)
    k4 = _stage(4, [a + dt * k for a, k in zip(y, k3)], c, f, t + dt, read)
    y = [a + sixth * (((p + 2.0 * q) + 2.0 * r) + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
    if not all(map(math.isfinite, y)):  # finite rates whose weighted sum overflows
        i = next(i for i, v in enumerate(y) if not math.isfinite(v))
        raise ModelError(f"non-finite {STATE_NAMES[i]} after the RK4 step to t={t + dt!r} (value {y[i]!r})")
    _oriented(y[_F])
    return y


def rk4_step(x: ThermoelasticState, c: Constitutive, f: Forcing, t: float, dt: float) -> ThermoelasticState:
    """``_rk4`` on the state's vector: one classical RK4 step."""
    return type(x).from_vector(_rk4(x.vector().tolist(), c, f, t, dt))
