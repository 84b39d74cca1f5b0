"""Legendre submanifolds, Reeb-shifted constitutive surfaces and the Gibbs connection.

A generating potential U over the extensive coordinates embeds as
(s = U(q); q; p_i = dU/dq^i).  A constitutive surface adds a production
potential sigma and shifts the embedding along the Reeb flow by +sigma(q),
so the pulled-back contact form equals d(sigma).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import Bin, ScalarField
from .geometry import ContactChart, GeometryError, _first_non_finite, reeb_flow

__all__ = [
    "LegendreSurface",
    "ConstitutiveSurface",
    "GibbsConnection",
    "legendre_embed",
    "surface_embed",
    "pullback_contact",
    "reversible_companion",
    "connection_curvature",
]


@dataclass(frozen=True)
class LegendreSurface:
    chart: ContactChart
    potential: ScalarField  # over the chart's q coordinates

    def __post_init__(self):
        if self.potential.coords != self.chart.q_names:
            raise GeometryError("potential must be a field over the chart's extensive coordinates")


@dataclass(frozen=True)
class ConstitutiveSurface(LegendreSurface):
    """The Legendre surface of U shifted along the Reeb flow by the production potential sigma."""

    production: ScalarField

    def __post_init__(self):
        super().__post_init__()
        if self.production.coords != self.chart.q_names:
            raise GeometryError("production must be a field over the chart's extensive coordinates")

    @cached_property
    def entropy(self) -> ScalarField:
        """S = U + sigma as a single field, built once so it is compiled once."""
        return ScalarField(
            Bin("+", self.potential.expression, self.production.expression),
            self.potential.coords,
        )


def legendre_embed(surface: LegendreSurface, q: dict[str, float]) -> dict[str, float]:
    """Phase point (s = U(q); q; p = grad U(q))."""
    chart = surface.chart
    point = {chart.s_name: surface.potential.value(q)}
    point.update((name, q[name]) for name in chart.q_names)
    point.update(zip(chart.p_names, map(float, surface.potential.finite_grad(q, chart.p_names))))
    return point


def surface_embed(surface: ConstitutiveSurface, q: dict[str, float]) -> dict[str, float]:
    """Reeb-shifted Legendre point: the shift parameter is sigma(q)."""
    base = legendre_embed(surface, q)
    return reeb_flow(base, surface.production.value(q), surface.chart.s_name)


def pullback_contact(surface: ConstitutiveSurface, q: dict[str, float]) -> np.ndarray:
    """Components of the pulled-back contact form in the dq^i basis.

    Equals grad sigma(q); computed as d(U + sigma) - p rather than read off,
    so the identity is actually exercised.
    """
    chart = surface.chart
    p = surface.potential.finite_grad(q, chart.p_names)
    s_grad = surface.entropy.finite_grad(q, tuple(f"d(U + sigma)/d{n}" for n in chart.q_names))
    return s_grad - p


def reversible_companion(surface: ConstitutiveSurface,
                         path: list[dict[str, float]]) -> list[dict[str, float]]:
    """The sigma-shift removed pointwise: the companion lives on the Legendre surface."""
    return [legendre_embed(surface, q) for q in path]


@dataclass(frozen=True)
class GibbsConnection:
    """Connection form ds - eta on the Gibbs line bundle, eta = p_i(s, q) dq^i."""

    s_name: str
    q_names: tuple[str, ...]
    p_fields: tuple[ScalarField, ...]  # each over (s,) + q_names

    def __post_init__(self):
        if len(self.p_fields) != len(self.q_names):
            raise GeometryError("one coefficient field per extensive coordinate")
        for f in self.p_fields:
            if f.coords != self.coords:
                raise GeometryError("coefficients must live on (s,) + q coordinates")

    @property
    def coords(self) -> tuple[str, ...]:
        return (self.s_name,) + self.q_names


def connection_curvature(connection: GibbsConnection, x: dict[str, float]) -> np.ndarray:
    """Curvature on the horizontal basis d_{q^i} + p_i d_s, reported for q-pairs.

    Omega_ij = (p_{j,s} p_i - p_{i,s} p_j) + (p_{j,q^i} - p_{i,q^j});
    vanishes when eta = dU for s-independent U.
    """
    coords, q_names = connection.coords, connection.q_names
    p = np.array([f.value(x) for f in connection.p_fields])
    jac = np.array([f.finite_grad(x, tuple(f"dp_{q}/d{c}" for c in coords))  # d p_i / d(s, q)
                    for q, f in zip(q_names, connection.p_fields)])
    p_s, p_q = jac[:, 0], jac[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is raised below
        omega = np.outer(p, p_s) - np.outer(p_s, p) + (p_q.T - p_q)
    # the lower triangle is the negated upper one, signed zeros included
    out = np.triu(omega, 1)
    lower = np.tril_indices(len(p), -1)
    out[lower] = -omega.T[lower]
    return _first_non_finite(out, q_names, q_names, "curvature")  # the first is in the upper triangle
