"""Process curves, entropy action integrals, admissibility and the state-space metric.

A process is a time-sampled curve in the base coordinates.  Admissibility is
the per-point sign test d(sigma)(tangent) >= 0 along the lifted curve on a
constitutive surface; the entropy change decomposes as
delta s = delta U + delta sigma.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .expr import DomainError, ScalarField, _second_order
from .geometry import OneForm
from .legendre import ConstitutiveSurface

__all__ = [
    "ProcessCurve",
    "AdmissibilityReport",
    "ProcessError",
    "entropy_action",
    "admissibility",
    "thermo_metric",
    "godograph_det",
    "rate_relation_residual",
    "spinodal_scan",
]


class ProcessError(Exception):
    pass


@dataclass(frozen=True)
class ProcessCurve:
    """Ordered samples (t_i, q_i) over fixed base coordinates; t finite and strictly increasing."""

    coords: tuple[str, ...]
    times: np.ndarray
    points: np.ndarray  # shape (len(times), len(coords))

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        q = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", q)
        if t.ndim != 1 or len(t) < 2:
            raise ProcessError("a curve needs at least 2 time samples")
        if not (np.isfinite(t).all() and (t[1:] > t[:-1]).all()):  # no subtraction to overflow
            raise ProcessError("times must be finite and strictly increasing")
        if q.shape != (len(t), len(self.coords)):
            raise ProcessError("points must be (n_samples, n_coords)")

    def points_in(self, coords: tuple[str, ...], mismatch: str) -> np.ndarray:
        """The points, columns in the order of ``coords``; ProcessError(mismatch) unless those are the curve's."""
        if set(self.coords) != set(coords):
            raise ProcessError(mismatch)
        return self.points[:, [self.coords.index(name) for name in coords]]

    def binding(self, i: int) -> dict[str, float]:
        return dict(zip(self.coords, map(float, self.points[i])))

    def reversed(self) -> "ProcessCurve":
        t = self.times
        return ProcessCurve(self.coords, t[0] + t[-1] - t[::-1], self.points[::-1].copy())


@dataclass(frozen=True)
class AdmissibilityReport:
    rates: np.ndarray           # interior production rates d(sigma)(tangent)
    admissible: bool
    violating_intervals: tuple[int, ...]
    delta_sigma: float
    delta_U: float
    delta_s: float


def entropy_action(curve: ProcessCurve, form: OneForm, nodes: int = 4) -> float:
    """Integral of the pulled-back form along the piecewise-linear curve.

    Per-interval Gauss-Legendre quadrature of a_i(gamma(t)) gamma'^i(t).
    """
    pts = curve.points_in(form.coords, "curve and form must share a coordinate space")
    if not isinstance(nodes, (int, np.integer)) or nodes < 1:
        raise ProcessError(f"quadrature nodes must be an integer >= 1, got {nodes!r}")
    xs, ws = leggauss(nodes)
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is raised below
        for i in range(len(curve.times) - 1):
            a, dq = pts[i], pts[i + 1] - pts[i]
            for xi, wi in zip(xs, ws):
                lam = 0.5 * (xi + 1.0)
                point = dict(zip(form.coords, map(float, a + lam * dq)))
                total += 0.5 * wi * float(form.values(point) @ dq)
                if not math.isfinite(total):  # a non-finite term makes the total so too
                    raise DomainError(f"non-finite entropy action {float(total)!r} on curve interval {i} "
                                      f"(t = {float(curve.times[i])!r} to {float(curve.times[i + 1])!r})")
    return total


def admissibility(surface: ConstitutiveSurface, curve: ProcessCurve,
                  tol: float = 1e-9, include_endpoints: bool = False) -> AdmissibilityReport:
    """Sign test of the production rate along the curve.

    Tangents use central differences on the grid (one-sided at endpoints);
    endpoint rates are left out by default because their stencils are
    first-order, and a sample left out takes no gradient, so it cannot fail.
    A curve with no sample left to judge is a ProcessError.
    """
    if not tol >= 0:  # a NaN or negative tolerance would decide the verdict on no evidence
        raise ProcessError(f"admissibility tolerance must be a number >= 0, got {tol!r}")
    pts = curve.points_in(surface.chart.q_names, "curve coordinates must match the surface's base coordinates")
    t = curve.times
    n = len(t)
    offset = 0 if include_endpoints else 1
    if n <= 2 * offset:
        raise ProcessError(f"no production rate to judge: a curve of {n} samples has no interior sample")

    points = [dict(zip(surface.chart.q_names, map(float, q))) for q in pts]
    labels = tuple(f"dsigma/d{name}" for name in surface.chart.q_names)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite rate is raised below
        tangents = np.empty_like(pts)
        tangents[0] = (pts[1] - pts[0]) / (t[1] - t[0])
        tangents[-1] = (pts[-1] - pts[-2]) / (t[-1] - t[-2])
        tangents[1:-1] = (pts[2:] - pts[:-2]) / (t[2:] - t[:-2])[:, None]
        rates = np.array([float(surface.production.finite_grad(b, labels) @ tangent)
                          for b, tangent in zip(points[offset:n - offset], tangents[offset:n - offset])])
    _check_finite(rates, offset, "production rate")
    bad = tuple(int(i + offset) for i in np.nonzero(rates < -tol)[0])

    d_sigma = surface.production.value(points[-1]) - surface.production.value(points[0])
    d_u = surface.potential.value(points[-1]) - surface.potential.value(points[0])
    for name, change in (("delta_sigma", d_sigma), ("delta_U", d_u), ("delta_s", d_u + d_sigma)):
        if not math.isfinite(change):
            raise DomainError(f"non-finite {name} {change!r} between the curve's end samples")
    return AdmissibilityReport(
        rates=rates,
        admissible=len(bad) == 0,
        violating_intervals=bad,
        delta_sigma=d_sigma,
        delta_U=d_u,
        delta_s=d_u + d_sigma,
    )


def thermo_metric(potential: ScalarField, q: dict[str, float]) -> np.ndarray:
    """Hessian of the potential: the thermodynamic metric at q."""
    return potential.hessian(q)


def godograph_det(potential: ScalarField, q: dict[str, float]) -> float:
    """det of the Hessian; |det| < 1e-12 means the dual map is locally non-invertible.

    The Hessian is finite, but its determinant can overflow: a DomainError.
    """
    return _metric_det(potential, [thermo_metric(potential, q)])[0]


def _metric_det(potential: ScalarField, hess) -> list[float]:
    """det of each of the potential's Hessians in the stack ``hess`` (k, n, n), by one
    LAPACK call; the first non-finite one is a DomainError."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite det is raised below
        dets = np.linalg.det(hess).tolist()
    for det in dets:
        if not math.isfinite(det):
            raise DomainError(f"non-finite Hessian determinant {det!r}", potential.expression)
    return dets


def rate_relation_residual(potential: ScalarField, curve: ProcessCurve) -> np.ndarray:
    """Residual of dp_i/dt = U_{,q^i q^j} dq^j/dt (+ U_{,q^i t}) per interior sample.

    Time derivatives of p come from central differences; the right side uses
    exact second derivatives.  O(h^2) in the grid spacing for smooth data.
    """
    has_t = "t" in potential.coords
    q_names = tuple(n for n in potential.coords if n != "t")
    pts = curve.points_in(q_names, "curve coordinates must match the potential's space coordinates")
    t = curve.times
    n = len(t)

    def bind(i: int) -> dict[str, float]:
        b = dict(zip(q_names, map(float, pts[i])))
        if has_t:
            b["t"] = float(t[i])
        return b

    labels = tuple(f"dU/d{name}" for name in q_names)
    p = np.array([potential.finite_grad(bind(i), labels, q_names) for i in range(n)])
    m = len(q_names)
    out = np.empty(n - 2)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is raised below
        for i in range(1, n - 1):
            dt = t[i + 1] - t[i - 1]
            p_dot = (p[i + 1] - p[i - 1]) / dt
            q_dot = (pts[i + 1] - pts[i - 1]) / dt
            hess = potential.hessian(bind(i), q_names + ("t",) if has_t else q_names)
            rhs = hess[:m, :m] @ q_dot
            if has_t:
                rhs = rhs + hess[:m, m]
            out[i - 1] = float(np.abs(p_dot - rhs).max())
    _check_finite(out, 1, "rate-relation residual")
    return out


def _check_finite(values: np.ndarray, offset: int, what: str) -> None:
    """DomainError for the first non-finite entry, naming its curve sample (entry k is sample k + offset)."""
    for k, v in enumerate(values.tolist()):
        if not math.isfinite(v):
            raise DomainError(f"non-finite {what} {v!r} at curve sample {k + offset}")


def spinodal_scan(potential: ScalarField, scan_name: str, lo: float, hi: float,
                  fixed: dict[str, float], samples: int = 200,
                  xtol: float = 1e-4) -> list[float]:
    """Sign changes of the godograph determinant along one coordinate, by bisection.  The grid's Hessians
    (the kernel's rows, reshaped) take one stacked LAPACK det, bitwise ``godograph_det``'s; the first failing
    sample is the error.  A bracket is halved until at most ``xtol`` wide or its midpoint no longer splits it."""
    if not (isinstance(samples, (int, np.integer)) and isinstance(xtol, (int, float)) and 0.0 < xtol < math.inf):
        raise ProcessError(f"spinodal scan of {scan_name}: need an integer samples and a finite xtol > 0, "
                           f"got samples={samples!r}, xtol={xtol!r}")
    if not (lo < hi and samples >= 2):
        raise ProcessError(f"spinodal scan of {scan_name}: need lo < hi and samples >= 2, "
                           f"got lo={lo!r}, hi={hi!r}, samples={samples!r}")
    if not math.isfinite(float(hi) - float(lo)):
        raise ProcessError(f"spinodal scan of {scan_name}: the span of [{lo!r}, {hi!r}] is not a finite float")

    xs, n, rows = np.linspace(lo, hi, samples).tolist(), len(potential.coords), []
    for v in xs:
        try:
            rows.append(_second_order(potential.expression, {**fixed, scan_name: v}, potential.coords)[2])
        except Exception:
            if rows:  # an earlier sample's non-finite determinant comes first
                _metric_det(potential, np.array(rows).reshape(len(rows), n, n))
            raise
    ds = _metric_det(potential, np.array(rows).reshape(len(rows), n, n))
    roots = []
    for i in range(len(xs)):
        if ds[i] == 0.0:  # the last sample too
            roots.append(xs[i])
        elif i + 1 < len(xs) and ds[i] * ds[i + 1] < 0.0:
            a, b, fa = xs[i], xs[i + 1], ds[i]
            mid = 0.5 * (a + b)
            while b - a > xtol and a < mid < b:
                fm = godograph_det(potential, {**fixed, scan_name: mid})
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
                mid = 0.5 * (a + b)
            roots.append(mid)
    return roots
