"""Contact charts on R^(2n+1), exterior-derivative residuals and potentials.

The canonical contact form theta = ds - sum_i p_i dq^i is implied by a chart,
never stored.  Closeness of 1-forms is certified on finite sample sets; the
residual matrix is the pointwise exterior derivative, evaluated with exact
reverse-mode derivatives of the coefficients (``expr.grad_columns``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .expr import DomainError, ScalarField, evaluate_all, grad_columns, lower

__all__ = [
    "ContactChart",
    "OneForm",
    "GeometryError",
    "contact_eval",
    "reeb_flow",
    "d_residual",
    "is_closed",
    "worst_residual",
    "reconstruct_potential",
    "low_discrepancy_samples",
    "potential_form",
]


class GeometryError(Exception):
    pass


@dataclass(frozen=True)
class ContactChart:
    """Canonical chart (s; q^1..q^n; p_1..p_n) with theta = ds - sum p_i dq^i."""

    n: int
    s_name: str = "s"
    q_names: tuple[str, ...] = ()
    p_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise GeometryError("chart dimension n must be >= 1")
        q = self.q_names or tuple(f"q{i}" for i in range(1, self.n + 1))
        p = self.p_names or tuple(f"p{i}" for i in range(1, self.n + 1))
        object.__setattr__(self, "q_names", q)
        object.__setattr__(self, "p_names", p)
        if len(q) != self.n or len(p) != self.n:
            raise GeometryError("need exactly n extensive and n intensive names")
        names = (self.s_name,) + q + p
        if len(set(names)) != len(names):
            raise GeometryError("coordinate names must be distinct")

    @property
    def coords(self) -> tuple[str, ...]:
        return (self.s_name,) + self.q_names + self.p_names


def contact_eval(chart: ContactChart, x: dict[str, float], v: dict[str, float]) -> float:
    """Value of the canonical contact form on tangent vector v at x."""
    unknown = set(v) - set(chart.coords)
    if unknown:
        raise GeometryError(f"tangent components for unknown coordinates: {sorted(unknown)}")
    out = v.get(chart.s_name, 0.0)
    for qn, pn in zip(chart.q_names, chart.p_names):
        out -= x[pn] * v.get(qn, 0.0)
    return out


def reeb_flow(x: dict[str, float], tau: float, s_name: str = "s") -> dict[str, float]:
    """Flow of the Reeb field d/ds for time tau: shifts s only."""
    out = dict(x)
    out[s_name] = out[s_name] + tau
    return out


@dataclass(frozen=True)
class OneForm:
    """1-form sum_i a_i dx^i with scalar-field coefficients over shared coordinates."""

    coords: tuple[str, ...]
    coefficients: tuple[ScalarField, ...]

    def __post_init__(self):
        if not self.coords:
            raise GeometryError("a 1-form needs at least one coordinate")
        if len(self.coefficients) != len(self.coords):
            raise GeometryError("coefficient count must equal coordinate count")
        for c in self.coefficients:
            if c.coords != self.coords:
                raise GeometryError("all coefficients must live on the form's coordinate space")

    @cached_property
    def tape(self):
        """The coefficients lowered jointly: one tape, one output per coefficient."""
        return lower(c.expression for c in self.coefficients)

    def values(self, x: dict[str, float]) -> np.ndarray:
        return np.array(evaluate_all(self.tape, x))


def potential_form(potential: ScalarField) -> OneForm:
    """The exact form dU, with symbolically differentiated coefficients."""
    return OneForm(potential.coords, potential.partials())


def d_residual(form: OneForm, x: dict[str, float] | list[dict[str, float]]) -> np.ndarray:
    """C_ij = da_i/dx^j - da_j/dx^i; exactly antisymmetric, zero iff closed at x.

    At one binding C is (m, m); at a list of N bindings it is (N, m, m), from
    the joint tape's gradient kernel at each binding: per coefficient, its
    forward lines not yet run, then its reverse sweep.  Either is bitwise the
    Jacobian of the coefficients' own gradients, and raises what they raise,
    binding by binding.
    """
    jac = grad_columns(form.tape, [x] if isinstance(x, dict) else x, form.coords)
    with np.errstate(over="ignore", invalid="ignore"):  # worst_residual reports inf and NaN
        res = jac - jac.transpose(0, 2, 1)
    return res[0] if isinstance(x, dict) else res


def _first_non_finite(values: np.ndarray, rows, cols, what: str, where: str = "the pair") -> np.ndarray:
    """``values``, (..., len(rows), len(cols)), if all finite; else a DomainError for the first
    non-finite entry, by leading index, then row-major: it is no evidence either way."""
    if not np.isfinite(values).all():
        *_, i, j = first = tuple(np.argwhere(~np.isfinite(values))[0])
        raise DomainError(f"non-finite {what} {values[first]} in {where} ({rows[i]}, {cols[j]})")
    return values


def worst_residual(form: OneForm, samples: list[dict[str, float]]) -> tuple[float, tuple[str, str]]:
    """Largest |C_ij| over a non-empty sample set, with the pair (x^i, x^j) where it occurs.

    Ties go to the first sample, then the first pair in row-major order.  A
    non-finite residual is no evidence either way: it raises DomainError.
    All samples go through one ``d_residual`` call, and a call that returns
    is final.  A call that raises gives the first raising sample's own error,
    but an earlier sample's non-finite residual comes first in a loop over the
    samples, so then the samples are re-run one by one to find which.
    """
    if not samples:
        raise GeometryError("empty sample set")
    finite = lambda res: _first_non_finite(res, form.coords, form.coords, "closeness residual")
    try:
        residuals = np.abs(d_residual(form, samples))
    except Exception:
        residuals = np.array([finite(np.abs(d_residual(form, x))) for x in samples])
    finite(residuals)
    k, i, j = np.unravel_index(int(residuals.argmax()), residuals.shape)
    return float(residuals[k, i, j]), (form.coords[i], form.coords[j])


def is_closed(form: OneForm, samples: list[dict[str, float]], tol: float = 1e-8) -> tuple[bool, float]:
    """Closeness verdict over a sample set, with the worst residual for reporting."""
    if not tol >= 0:  # a NaN or negative tolerance would decide the verdict on no evidence
        raise GeometryError(f"closeness tolerance must be a number >= 0, got {tol!r}")
    worst, _ = worst_residual(form, samples)
    return worst <= tol, worst


def _staircase(form: OneForm, base: dict[str, float], target: dict[str, float],
               order: list[int], rule: tuple[list[float], list[float]]) -> float:
    """Gauss-Legendre integrals of a_i dx^i summed over the legs; a zero-length one evaluates
    nothing, and a non-finite running sum is a DomainError naming its leg's coordinate."""
    point = {name: base[name] for name in form.coords}
    total = 0.0
    for axis in order:
        name = form.coords[axis]
        start, stop = point[name], target[name]
        if start != stop:
            mid, half, leg = 0.5 * (start + stop), 0.5 * (stop - start), 0.0
            for xi, wi in zip(*rule):
                point[name] = mid + half * xi
                leg += wi * form.coefficients[axis].value(point)
            total += half * leg
            if not math.isfinite(total):
                raise DomainError(f"non-finite potential {total!r} on the leg along {name}")
        point[name] = stop
    return total


def reconstruct_potential(form: OneForm, base: dict[str, float], target: dict[str, float],
                          nodes: int = 32) -> tuple[float, float]:
    """Line-integral potential with U(base) = 0, plus a path-dependence report.

    Integrates along the axis-ordered staircase path; the residual compares against the reversed
    axis order and is nonzero for non-exact forms.  Both are floats; a non-finite one is a DomainError.
    """
    if not isinstance(nodes, (int, np.integer)) or nodes < 1:
        raise GeometryError(f"quadrature nodes must be an integer >= 1, got {nodes!r}")
    order, rule = list(range(len(form.coords))), tuple(a.tolist() for a in leggauss(nodes))
    u_fwd = _staircase(form, base, target, order, rule)
    residual = abs(u_fwd - _staircase(form, base, target, order[::-1], rule))
    if not math.isfinite(residual):
        raise DomainError(f"non-finite path-dependence residual {residual!r}")
    return u_fwd, residual


def _primes(count: int) -> list[int]:
    out, k = [], 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def low_discrepancy_samples(box: dict[str, tuple[float, float]], count: int,
                            seed: int = 0) -> list[dict[str, float]]:
    """Unscrambled Halton points in an axis-aligned box, skipping the first ``seed``.

    Coordinate j is the radical inverse of the point index in the j-th prime.
    """
    if not isinstance(seed, (int, np.integer)):  # nan and inf never leave the divmod loop
        raise GeometryError(f"the sample seed must be an integer >= 0, got {seed!r}")
    if seed < 0:
        raise GeometryError(f"the sample seed must be >= 0, got {seed!r}")
    if not isinstance(count, (int, np.integer)) or count < 0:
        raise GeometryError(f"the sample count must be an integer >= 0, got {count!r}")
    names = list(box)
    for name in names:
        if not math.isfinite(float(box[name][1]) - float(box[name][0])):
            raise GeometryError(f"sample box of {name}: the span of {box[name]!r} is not a finite float")
    unit = np.empty((count, len(names)))
    for j, base in enumerate(_primes(len(names))):
        for i in range(count):
            q, f, x = seed + i, 1.0 / base, 0.0
            while q:
                q, r = divmod(q, base)
                x += f * r
                f /= base
            unit[i, j] = x
    lo = np.array([box[n][0] for n in names])
    hi = np.array([box[n][1] for n in names])
    pts = lo + unit * (hi - lo)
    return [dict(zip(names, map(float, row))) for row in pts]
