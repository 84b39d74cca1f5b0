"""Built-in van der Waals constitutive law U(S, V) = (V-b)^(-R/c_V) e^(S/c_V) - a/V.

Two thermodynamic degrees of freedom; T = dU/dS and p = -dU/dV on the
Legendre surface.  The exponent is -R/c_V: along an adiabat T (V-b)^(R/c_V)
is constant, so U = c_V T - a/V carries the inverse power of (V-b).  With a
positive exponent the Hessian determinant of U is negative for every V > b
and no spinodal exists; with the inverse power it changes sign across the
spinodal region, which the scan utility locates.
"""
from __future__ import annotations

from .expr import ScalarField
from .geometry import ContactChart

__all__ = ["VDW_COORDS", "vdw_potential", "vdw_chart"]

VDW_COORDS = ("S", "V")


def vdw_potential(a: float = 1.0, b: float = 0.1, R: float = 1.0,
                  c_V: float = 1.5) -> ScalarField:
    text = f"(V-{b!r})^(-{R!r}/{c_V!r})*exp(S/{c_V!r}) - {a!r}/V"
    return ScalarField.from_text(text, VDW_COORDS)


def vdw_chart() -> ContactChart:
    return ContactChart(n=2, s_name="U", q_names=VDW_COORDS, p_names=("T", "negp"))

