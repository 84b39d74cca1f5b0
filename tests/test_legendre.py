import numpy as np
import pytest

from thermoform.expr import ScalarField
from thermoform.geometry import ContactChart, GeometryError, contact_eval
from thermoform.legendre import (
    ConstitutiveSurface,
    GibbsConnection,
    LegendreSurface,
    connection_curvature,
    legendre_embed,
    pullback_contact,
    reversible_companion,
    surface_embed,
)
from thermoform.vdw import vdw_chart, vdw_potential
from conftest import fd_grad, random_polynomial_text


def chart2():
    return ContactChart(n=2, q_names=("q1", "q2"), p_names=("p1", "p2"))


def field2(text):
    return ScalarField.from_text(text, ("q1", "q2"))


class TestLegendreEmbed:
    def test_quadratic_potential(self):
        # U = q1 q2: s = 6, p1 = q2 = 3, p2 = q1 = 2 by hand
        surf = LegendreSurface(chart2(), field2("q1*q2"))
        point = legendre_embed(surf, {"q1": 2.0, "q2": 3.0})
        assert point == {"s": 6.0, "q1": 2.0, "q2": 3.0, "p1": 3.0, "p2": 2.0}

    def test_wrong_coordinates_rejected(self):
        with pytest.raises(GeometryError):
            LegendreSurface(chart2(), ScalarField.from_text("x", ("x",)))

    def test_tangents_annihilated_by_contact_form(self, rng):
        # the image is a Legendre submanifold: theta vanishes on embedded tangents
        chart = chart2()
        surf = LegendreSurface(chart, field2(random_polynomial_text(["q1", "q2"], rng)))
        q = {"q1": 0.4, "q2": -0.3}
        h = 1e-6
        for name in ("q1", "q2"):
            hi, lo = dict(q), dict(q)
            hi[name] += h
            lo[name] -= h
            a, b = legendre_embed(surf, hi), legendre_embed(surf, lo)
            v = {c: (a[c] - b[c]) / (2 * h) for c in chart.coords}
            x = legendre_embed(surf, q)
            # tangency error is O(h^2) from the curvature of the embedding
            assert abs(contact_eval(chart, x, v)) <= 1e-8

    def test_vdw_point(self):
        # analytic oracles for U(S,V) = (V-0.1)^(-2/3) e^(S/1.5) - 1/V at (0, 1)
        surf = LegendreSurface(vdw_chart(), vdw_potential())
        point = legendre_embed(surf, {"S": 0.0, "V": 1.0})
        assert point["U"] == pytest.approx(0.9 ** (-2 / 3) - 1.0, abs=1e-14)
        assert point["T"] == pytest.approx(0.9 ** (-2 / 3) / 1.5, abs=1e-14)
        # dU/dV = -(2/3)(V-0.1)^(-5/3) e^(S/1.5) + 1/V^2
        assert point["negp"] == pytest.approx(1.0 - (2 / 3) * 0.9 ** (-5 / 3), abs=1e-14)


class TestConstitutiveSurface:
    def make(self, sigma_text="q1^2"):
        return ConstitutiveSurface(chart2(), field2("q1*q2"), field2(sigma_text))

    @pytest.mark.parametrize("wrong", ["potential", "production"])
    def test_fields_must_live_on_the_chart(self, wrong):
        fields = {"potential": field2("q1"), "production": field2("q1"), wrong: ScalarField.from_text("x", ("x",))}
        with pytest.raises(GeometryError, match=f"^{wrong} must be a field over the chart's extensive coordinates$"):
            ConstitutiveSurface(chart2(), **fields)

    def test_embed_is_reeb_shift(self):
        surf = self.make()
        q = {"q1": 2.0, "q2": 3.0}
        base = legendre_embed(surf.legendre, q)
        shifted = surface_embed(surf, q)
        assert shifted["s"] == base["s"] + 4.0
        for name in ("q1", "q2", "p1", "p2"):
            assert shifted[name] == base[name]

    def test_pullback_equals_dsigma(self, rng):
        sigma_text = random_polynomial_text(["q1", "q2"], rng)
        surf = self.make(sigma_text)
        for _ in range(8):
            q = {"q1": float(rng.uniform(-1, 1)), "q2": float(rng.uniform(-1, 1))}
            got = pullback_contact(surf, q)
            want = surf.production.grad(q)
            assert np.abs(got - want).max() <= 1e-9

    def test_pullback_vanishes_without_production(self):
        surf = self.make("0")
        assert np.abs(pullback_contact(surf, {"q1": 1.0, "q2": 2.0})).max() == 0.0

    def test_reversible_companion_strips_shift(self):
        surf = self.make()
        path = [{"q1": 0.1 * k, "q2": 1.0} for k in range(1, 5)]
        companion = reversible_companion(surf, path)
        for q, point in zip(path, companion):
            assert point["s"] == surf.potential.value(q)
            assert point["s"] == surface_embed(surf, q)["s"] - surf.production.value(q)


def connection_from_texts(texts, q_names):
    space = ("s",) + tuple(q_names)
    fields = tuple(ScalarField.from_text(t, space) for t in texts)
    return GibbsConnection("s", tuple(q_names), fields)


def fd_curvature(conn, x, h=1e-5):
    """Oracle: Omega_ij as the antisymmetrized directional derivative of p
    along the horizontal lifts u_i = d_{q^i} + p_i d_s."""
    m = len(conn.q_names)
    p0 = np.array([f.value(x) for f in conn.p_fields])

    def p_at(point):
        return np.array([f.value(point) for f in conn.p_fields])

    out = np.zeros((m, m))
    for i in range(m):
        qi = conn.q_names[i]
        hi, lo = dict(x), dict(x)
        hi[qi] += h
        hi["s"] += p0[i] * h
        lo[qi] -= h
        lo["s"] -= p0[i] * h
        dp = (p_at(hi) - p_at(lo)) / (2 * h)
        for j in range(m):
            out[i, j] = dp[j]
    return out - out.T


def loop_curvature(conn, x):
    """Reference: Omega_ij built one q-pair at a time, lower triangle negated."""
    m = len(conn.q_names)
    p = np.array([f.value(x) for f in conn.p_fields])
    jac = np.array([f.grad(x, conn.coords) for f in conn.p_fields])
    p_s = jac[:, 0]
    p_q = jac[:, 1:]
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            val = (p_s[j] * p[i] - p_s[i] * p[j]) + (p_q[j, i] - p_q[i, j])
            out[i, j] = val
            out[j, i] = -val
    return out


class TestConnectionCurvature:
    def test_flat_when_exact(self, rng):
        # p_i = dU/dq^i with s-independent U gives a flat connection
        q_names = ("q1", "q2", "q3")
        u = ScalarField.from_text(random_polynomial_text(list(q_names), rng), q_names)
        space = ("s",) + q_names
        fields = tuple(ScalarField(u.partial(n).expression, space) for n in q_names)
        conn = GibbsConnection("s", q_names, fields)
        for _ in range(5):
            x = {n: float(rng.uniform(-1, 1)) for n in space}
            assert np.abs(connection_curvature(conn, x)).max() <= 1e-9

    def test_coefficients_must_live_on_s_and_q(self):
        with pytest.raises(GeometryError, match=r"^coefficients must live on \(s,\) \+ q coordinates$"):
            GibbsConnection("s", ("q1",), (ScalarField.from_text("q1", ("q1",)),))

    def test_hand_curvature_s_dependence(self):
        # p1 = s, p2 = 0: Omega_12 = p_{2,s} p1 - p_{1,s} p2 + (p_{2,q1} - p_{1,q2}) = 0
        conn = connection_from_texts(["s", "0"], ("q1", "q2"))
        x = {"s": 2.0, "q1": 0.0, "q2": 0.0}
        assert connection_curvature(conn, x)[0, 1] == 0.0
        # p1 = q2, p2 = 0: Omega_12 = -1 by the mixed-partial term
        conn = connection_from_texts(["q2", "0"], ("q1", "q2"))
        assert connection_curvature(conn, x)[0, 1] == pytest.approx(-1.0)
        # p1 = 0, p2 = s q1: Omega_12 = q1 * 0 - 0 + (q1 - 0) ... with p1 = 0:
        # p_{2,s} p1 - p_{1,s} p2 = 0 and p_{2,q1} - p_{1,q2} = s, so Omega_12 = s
        conn = connection_from_texts(["0", "s*q1"], ("q1", "q2"))
        assert connection_curvature(conn, x)[0, 1] == pytest.approx(2.0)

    def test_matches_horizontal_fd_oracle(self, rng):
        q_names = ("q1", "q2", "q3")
        space = ("s",) + q_names
        texts = [random_polynomial_text(list(space), rng, terms=5) for _ in q_names]
        conn = connection_from_texts(texts, q_names)
        for _ in range(6):
            x = {n: float(rng.uniform(-1, 1)) for n in space}
            got = connection_curvature(conn, x)
            ref = fd_curvature(conn, x)
            assert np.abs(got - ref).max() <= 1e-5

    def test_antisymmetric_bitwise(self, rng):
        conn = connection_from_texts(["s*q2", "q1^2 + s"], ("q1", "q2"))
        x = {"s": 0.7, "q1": -0.2, "q2": 1.1}
        omega = connection_curvature(conn, x)
        assert np.array_equal(omega, -omega.T)

    def test_matches_pairwise_loop_bytewise(self, rng):
        # byte equality keeps the signed zeros that `thermoform curvature` prints
        q_names = ("q1", "q2", "q3", "q4")
        space = ("s",) + q_names
        for _ in range(20):
            texts = [random_polynomial_text(list(space), rng, terms=3)
                     if rng.uniform() < 0.6 else "0" for _ in q_names]
            conn = connection_from_texts(texts, q_names)
            x = {n: float(rng.uniform(-1, 1)) for n in space}
            assert connection_curvature(conn, x).tobytes() == loop_curvature(conn, x).tobytes()

    def test_shape_validation(self):
        with pytest.raises(GeometryError):
            GibbsConnection("s", ("q1", "q2"),
                            (ScalarField.from_text("0", ("s", "q1", "q2")),))
