"""Seeded inputs for the benchmark and the independent oracles that check outputs.

Nothing here imports thermoform: inputs are handed to the program as
expression text and plain numbers, and every oracle is closed-form numpy,
so a wrong answer from the program cannot also be the expected answer.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial

SPINODAL_ROOT = 0.22153559021583927  # vdW defaults, S = 0; frozen high-precision solve


class RandomPolynomial:
    """sum_k c_k prod_{i in m_k} x_i (+ offset * x_0) with text, value and gradient.

    The monomials come from ``shape`` alone and the coefficients from
    ``rng``: a polynomial's expression trees, and so the work of evaluating
    them, are the same for every benchmark seed, which then changes only
    the numbers.  Tree size otherwise swings per-point cost by 2x between
    seeds and hides a change in the program behind a change in the inputs.
    """

    def __init__(self, names, rng, shape: int, terms: int, degree: int, offset: float = 0.0):
        self.names = tuple(names)
        self.offset = offset
        layout = np.random.default_rng(shape)
        self.monomials = []
        for _ in range(terms):
            k = int(layout.integers(1, degree + 1))
            idx = tuple(int(i) for i in layout.integers(0, len(self.names), size=k))
            self.monomials.append((float(rng.uniform(-1.0, 1.0)), idx))

    def text(self) -> str:
        parts = [f"{c!r}*" + "*".join(self.names[i] for i in idx) for c, idx in self.monomials]
        if self.offset:
            parts.insert(0, f"{self.offset!r}*{self.names[0]}")
        return " + ".join(parts)

    def value(self, x: np.ndarray) -> float:
        total = self.offset * x[0]
        for c, idx in self.monomials:
            total += c * math.prod(x[i] for i in idx)
        return total

    def grad(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(len(self.names))
        g[0] += self.offset
        for c, idx in self.monomials:
            for k, i in enumerate(idx):
                g[i] += c * math.prod(x[j] for j in idx[:k] + idx[k + 1:])
        return g




def poly_text(p: Polynomial) -> str:
    return " + ".join(f"{float(c)!r}*t^{k}" if k else f"{float(c)!r}" for k, c in enumerate(p.coef))


def vdw_table_oracle(s: float, v: float, a=1.0, b=0.1, r=1.0, cv=1.5) -> tuple[float, float, float]:
    """(U, T, p) of the built-in van der Waals law, differentiated by hand."""
    e = math.exp(s / cv)
    base = (v - b) ** (-r / cv)
    u = base * e - a / v
    t = base * e / cv
    p = (r / cv) * (v - b) ** (-r / cv - 1.0) * e - a / v ** 2
    return u, t, p


# ---------------------------------------------------------------------------
# Integration oracles
# ---------------------------------------------------------------------------

README_RUN = {
    "potential": "ln(eps) - 0.15*(H1^2+H2^2+H3^2)",
    "L": [["0", "0.1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    "divq": "0.05*t",
    "eps0": 0.5,
    "H0": [1.0, 0.0, 0.0],
    "dt": 1e-3,
}


def readme_oracle(t: float) -> np.ndarray:
    """Closed-form state of the README run: eps' = -0.05 t, F' = L F, H' = -0.3 H."""
    F = np.eye(3)
    F[0, 1] = 0.1 * t
    H = np.array(README_RUN["H0"]) * math.exp(-0.3 * t)
    return np.concatenate(([README_RUN["eps0"] - 0.025 * t * t], F.ravel(), H))


class HarmonicOrbit:
    """U = eps - a |pi|^2, no forcing: pi'' = -2a pi, so pi = pi0 cos wt + u0/w sin wt."""

    def __init__(self, rng):
        self.a = float(rng.uniform(1.5, 2.5))
        self.pi0 = rng.uniform(-0.4, 0.4, 3)
        self.u0 = rng.uniform(-0.4, 0.4, 3)
        self.omega = math.sqrt(2.0 * self.a)

    def potential(self) -> str:
        return f"eps - {self.a!r}*(pi1^2+pi2^2+pi3^2)"

    def pi_u(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        w = self.omega
        pi = self.pi0 * math.cos(w * t) + self.u0 / w * math.sin(w * t)
        u = -self.pi0 * w * math.sin(w * t) + self.u0 * math.cos(w * t)
        return pi, u


class ForcedOrbit(HarmonicOrbit):
    """Harmonic potential with all seven forcing channels polynomial in t.

    L is strictly upper triangular, so F stays unimodular and polynomial;
    every channel still varies in time.  The state has the closed form below
    (rho = k = inertia = 1, F0 = I, H constant).
    """

    def __init__(self, rng):
        super().__init__(rng)

        def poly(deg, scale):
            return Polynomial(rng.uniform(-scale, scale, deg + 1))

        self.E = [poly(2, 0.5) for _ in range(3)]
        self.L = {(0, 1): poly(1, 0.2), (0, 2): poly(1, 0.2), (1, 2): poly(1, 0.2)}
        self.divq = poly(1, 0.2)
        self.poynting = poly(2, 0.2)
        self.div_e_tensor = [poly(1, 0.3) for _ in range(3)]
        self.div_J = [[poly(1, 0.2) for _ in range(3)] for _ in range(3)]
        self.source = [[poly(1, 0.2) for _ in range(3)] for _ in range(3)]
        self.eps0 = float(rng.uniform(0.5, 1.5))
        self.H0 = rng.uniform(-0.5, 0.5, 3)
        self.gpi0 = rng.uniform(-0.2, 0.2, (3, 3))
        self.gu0 = rng.uniform(-0.2, 0.2, (3, 3))

    def forcing_texts(self) -> dict:
        return {
            "E": [poly_text(p) for p in self.E],
            "L": [[poly_text(self.L[i, j]) if (i, j) in self.L else "0" for j in range(3)]
                  for i in range(3)],
            "divq": poly_text(self.divq),
            "poynting": poly_text(self.poynting),
            "div_e_tensor": [poly_text(p) for p in self.div_e_tensor],
            "div_J_grad_u": [[poly_text(p) for p in row] for row in self.div_J],
            "source_grad_u": [[poly_text(p) for p in row] for row in self.source],
        }

    def state(self, t: float) -> np.ndarray:
        """Exact state vector in the model's layout: eps, F, H, pi, grad pi, u, grad u."""
        w2 = self.omega ** 2
        pis, us = [], []
        for j in range(3):
            g = self.E[j] + self.div_e_tensor[j]
            p = g / w2 - g.deriv(2) / w2 ** 2
            A = self.pi0[j] - p(0.0)
            B = (self.u0[j] - p.deriv()(0.0)) / self.omega
            c, s = math.cos(self.omega * t), math.sin(self.omega * t)
            pis.append(p(t) + A * c + B * s)
            us.append(p.deriv()(t) - A * self.omega * s + B * self.omega * c)
        pi, u = np.array(pis), np.array(us)
        energy = (self.poynting - self.divq).integ()
        eps = self.eps0 + self.a * (pi @ pi - self.pi0 @ self.pi0) + energy(t) - energy(0.0)

        lam23 = self.L[(1, 2)].integ()
        lam12 = self.L[(0, 1)].integ()
        lam13 = (self.L[(0, 1)] * lam23 + self.L[(0, 2)]).integ()
        F = np.eye(3)
        F[1, 2] = lam23(t) - lam23(0.0)
        F[0, 1] = lam12(t) - lam12(0.0)
        F[0, 2] = lam13(t) - lam13(0.0)

        gu = np.empty((3, 3))
        gpi = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                rate = (self.div_J[i][j] + self.source[i][j]).integ()
                rate = rate - rate(0.0) + self.gu0[i, j]
                gu[i, j] = rate(t)
                shift = rate.integ()
                gpi[i, j] = self.gpi0[i, j] + shift(t) - shift(0.0)
        return np.concatenate(([eps], F.ravel(), self.H0, pi, gpi.ravel(), u, gu.ravel()))
