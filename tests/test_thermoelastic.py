import numpy as np
import pytest

from thermoform.expr import DomainError, ScalarField
from thermoform.geometry import _first_non_finite, d_residual, is_closed, low_discrepancy_samples
from thermoform.thermoelastic import (
    BASE_COORDS,
    BETA_NAMES,
    ETA_PRIME_COORDS,
    F_NAMES,
    H_NAMES,
    ModelError,
    TemperatureSingularity,
    ThermoelasticConstitutive,
    ThermoelasticForcing,
    closeness_system_residual,
    constitutive_from_potential,
    entropy_form,
    potential_coefficients,
    rates,
    step,
)
from conftest import random_polynomial_text


def make_state(eps=0.2, F=None, H=(0.0, 0.0, 0.0)):
    from thermoform.thermoelastic import ThermoelasticState
    return ThermoelasticState(eps=eps, F=np.eye(3) if F is None else F, H=np.array(H))


def potential(text, rho=1.0, k=1.0):
    return ThermoelasticConstitutive(
        potential=ScalarField.from_text(text, BASE_COORDS), rho=rho, k=k)


def no_forcing():
    return ThermoelasticForcing(L=lambda t: np.zeros((3, 3)), divq=lambda t: 0.0)


SAMPLE_BOX = {name: (0.05, 0.3) for name in BASE_COORDS}


# the conditions of hand_closeness_system_residual: name, and its block's rows and columns
HAND_CONDITIONS = (("(eps,F) curl", ("eps",), F_NAMES),
                   ("d(theta^-1)/d(beta)", ("eps",), BETA_NAMES),
                   ("d(sigma:F^-1/theta)/d(beta)", F_NAMES, BETA_NAMES),
                   ("d(q.beta)/d(beta)", ("t",), BETA_NAMES),
                   ("(F,t) curl", F_NAMES, ("t",)),
                   ("(eps,t) curl", ("eps",), ("t",)))


def hand_closeness_system_residual(thetainv, stress_over_theta, q_dot_beta, x):
    """Reference for ``closeness_system_residual``: each condition's block written out by hand
    from index slices of the gradients, with numpy's warnings off where opposite infinities meet."""
    g_thetainv = thetainv.grad(x)
    g_stress = np.array([s.grad(x) for s in stress_over_theta])
    g_qb = q_dot_beta.grad(x)
    f, beta = slice(1, 10), slice(10, 13)  # eps is slot 0, t slot 13
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = (g_thetainv[f] + g_stress[:, 0], g_thetainv[beta], g_stress[:, beta], g_qb[beta],
                  g_stress[:, 13] + g_qb[f], g_thetainv[13] - g_qb[0])
    for b, (name, rows, cols) in zip(blocks, HAND_CONDITIONS):
        _first_non_finite(np.reshape(b, (len(rows), len(cols))), rows, cols, "closeness residual",
                          f"the condition {name}, pair")
    return np.array([np.abs(b).max() for b in blocks])


def test_rates_and_step_reject_a_ferroelectric_law():
    # they used to run the ferroelectric model: 37 rates and a FerroelectricState
    from thermoform.ferroelectric import FE_COORDS, FerroelectricState
    c = ThermoelasticConstitutive(ScalarField.from_text("ln(eps) + pi1^2", FE_COORDS), rho=1.0, k=1.0)
    x = FerroelectricState(eps=0.5, F=np.eye(3), H=np.zeros(3), pi=np.zeros(3),
                           grad_pi=np.zeros((3, 3)), u=np.zeros(3), grad_u=np.zeros((3, 3)))
    with pytest.raises(ModelError, match="13 base coordinates"):
        rates(x, c, no_forcing(), 0.0)
    with pytest.raises(ModelError, match="13 base coordinates"):
        step(x, c, no_forcing(), 0.0, 0.01)


class TestState:
    def test_orientation_guard(self):
        with pytest.raises(ModelError):
            make_state(F=-np.eye(3))

    def test_vector_roundtrip(self):
        x = make_state(eps=0.7, F=np.eye(3) + 0.1, H=(1.0, 2.0, 3.0))
        from thermoform.thermoelastic import ThermoelasticState
        y = ThermoelasticState.from_vector(x.vector())
        assert y.eps == x.eps
        assert np.array_equal(y.F, x.F)
        assert np.array_equal(y.H, x.H)


class TestConstitutiveMap:
    def test_pure_thermal(self):
        # U = ln(eps): theta^-1 = 1/eps, stress and heat coefficients vanish
        c = potential("ln(eps)")
        thetainv, stress, grad_ti = constitutive_from_potential(c, make_state(eps=0.5))
        assert thetainv == pytest.approx(2.0, abs=1e-15)
        assert np.abs(stress).max() == 0.0
        assert np.abs(grad_ti).max() == 0.0

    def test_heat_coupling(self):
        # U = ln(eps) - (c/2)|H|^2 gives grad theta^-1 = rho c H by hand
        cval, rho = 0.3, 2.0
        c = potential(f"ln(eps) - ({cval}/2)*(H1^2+H2^2+H3^2)", rho=rho)
        H = np.array([1.0, -2.0, 0.5])
        _, _, grad_ti = constitutive_from_potential(c, make_state(H=H))
        assert grad_ti == pytest.approx(rho * cval * H, abs=1e-14)

    def test_elastic_coupling(self):
        # U = ln(eps) + F11: sigma:F^-1 = -rho theta dU/dF has only the 11 entry
        rho = 1.5
        c = potential("ln(eps) + F11", rho=rho)
        x = make_state(eps=0.25)
        _, stress, _ = constitutive_from_potential(c, x)
        expected = np.zeros((3, 3))
        expected[0, 0] = -rho * 0.25  # theta = eps
        assert stress == pytest.approx(expected, abs=1e-14)

    def test_temperature_singularity(self):
        c = potential("H1^2")
        with pytest.raises(TemperatureSingularity):
            constitutive_from_potential(c, make_state())

    def test_symbolic_matches_pointwise(self, rng):
        text = random_polynomial_text(list(BASE_COORDS), rng, offset="10*eps")
        c = potential(text, rho=1.7)
        thetainv, stress, grad_ti = potential_coefficients(c)
        for _ in range(4):
            x = make_state(
                eps=float(rng.uniform(0.05, 0.3)),
                F=np.eye(3) * float(rng.uniform(0.9, 1.1)),
                H=rng.uniform(0.05, 0.3, 3),
            )
            b = x.binding()
            ti_pt, st_pt, g_pt = constitutive_from_potential(c, x)
            assert thetainv.value(b) == pytest.approx(ti_pt, rel=1e-12)
            got_stress = np.array([s.value(b) for s in stress]).reshape(3, 3)
            assert got_stress == pytest.approx(st_pt, rel=1e-12, abs=1e-12)
            got_g = np.array([g.value(b) for g in grad_ti])
            assert got_g == pytest.approx(g_pt, rel=1e-12, abs=1e-12)


class TestEntropyFormCloseness:
    def test_potential_generated_form_closes(self, rng):
        text = random_polynomial_text(list(BASE_COORDS), rng, offset="10*eps")
        c = potential(text, rho=2.0)
        form = entropy_form(*potential_coefficients(c), rho=c.rho)
        samples = low_discrepancy_samples(SAMPLE_BOX, 16)
        ok, worst = is_closed(form, samples, tol=1e-9)
        assert ok, f"worst residual {worst}"

    def test_perturbation_localized_in_elastic_block(self, rng):
        text = random_polynomial_text(list(BASE_COORDS), rng, offset="10*eps")
        c = potential(text, rho=2.0)
        thetainv, stress, grad_ti = potential_coefficients(c)
        bump = ScalarField.from_text("0.05*eps^2", BASE_COORDS)
        stress = (ScalarField.from_text(
            f"({stress[0]}) + ({bump})", BASE_COORDS),) + stress[1:]
        form = entropy_form(thetainv, stress, grad_ti, rho=c.rho)
        samples = low_discrepancy_samples(SAMPLE_BOX, 8)
        ok, worst = is_closed(form, samples, tol=1e-9)
        assert not ok
        # the violation sits in the (eps, F11) pair and nowhere outside row/col F11
        i_f11 = BASE_COORDS.index("F11")
        res = np.abs(d_residual(form, samples[0]))
        mask = np.ones_like(res, dtype=bool)
        mask[i_f11, :] = False
        mask[:, i_f11] = False
        assert res[mask].max() <= 1e-9
        assert res[0, i_f11] > 1e-4


class TestDynamics:
    def test_fixed_point_without_forcing(self):
        # stress-free, heat-free state: every rate vanishes
        c = potential("ln(eps)")
        x = make_state(eps=0.4, H=(0.0, 0.0, 0.0))
        r = rates(x, c, no_forcing(), 0.0)
        assert np.abs(r).max() == 0.0

    def test_heat_relaxation_closed_form(self):
        # H_dot = -(rho c / k) H: exponential decay, compared at 1e-10
        cval, rho, k = 0.3, 2.0, 1.5
        c = potential(f"ln(eps) - ({cval}/2)*(H1^2+H2^2+H3^2)", rho=rho, k=k)
        a = rho * cval / k
        H0 = np.array([1.0, -0.5, 0.25])
        x = make_state(H=H0)
        dt, n = 1e-3, 1000
        for i in range(n):
            x = step(x, c, no_forcing(), i * dt, dt)
        assert np.abs(x.H - H0 * np.exp(-a * n * dt)).max() <= 1e-10

    def test_linear_velocity_gradient_closed_form(self):
        # L = omega I: F(t) = e^(omega t) F0 exactly
        omega = 0.5
        c = potential("ln(eps)")
        f = ThermoelasticForcing(L=lambda t: omega * np.eye(3), divq=lambda t: 0.0)
        F0 = np.eye(3) + 0.05
        x = make_state(F=F0)
        dt, n = 1e-3, 1000
        for i in range(n):
            x = step(x, c, f, i * dt, dt)
        assert np.abs(x.F - np.exp(omega) * F0).max() <= 1e-10

    def test_rk4_global_order(self):
        # halving dt must shrink the global error by about 2^4
        cval, rho, k = 0.4, 1.0, 1.0
        c = potential(f"ln(eps) - ({cval}/2)*(H1^2+H2^2+H3^2)", rho=rho, k=k)
        H0 = np.array([1.0, 0.0, 0.0])
        exact = H0[0] * np.exp(-cval * 1.0)

        def err(dt):
            x = make_state(H=H0)
            n = round(1.0 / dt)
            for i in range(n):
                x = step(x, c, no_forcing(), i * dt, dt)
            return abs(x.H[0] - exact)

        ratio = err(0.1) / err(0.05)
        assert ratio == pytest.approx(16.0, rel=0.15)

    def test_entropy_bookkeeping(self):
        # eta = dU for potential-generated coefficients, so the quadrature of
        # eta(x_dot) along the trajectory equals the change of U
        cval = 0.3
        c = potential(f"ln(eps) - ({cval}/2)*(H1^2+H2^2+H3^2)", rho=1.3, k=0.8)
        f = ThermoelasticForcing(
            L=lambda t: 0.1 * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
            divq=lambda t: 0.05 * np.sin(t))
        x = make_state(eps=0.5, H=(0.4, -0.2, 0.1))
        u0 = c.potential.value(x.binding())
        dt, n = 1e-3, 500
        action = 0.0
        for i in range(n):
            # midpoint quadrature of grad U . x_dot
            r = rates(x, c, f, i * dt)
            x_half = step(x, c, f, i * dt, dt / 2.0)
            r_half = rates(x_half, c, f, i * dt + dt / 2.0)
            g = c.potential.grad(x_half.binding())
            action += dt * float(g @ r_half)
            x = step(x, c, f, i * dt, dt)
        du = c.potential.value(x.binding()) - u0
        assert action == pytest.approx(du, rel=1e-6, abs=1e-8)

    def test_spin_does_no_thermal_work_at_identity(self):
        # symmetric dU/dF against antisymmetric L: the power term vanishes
        c = potential("ln(eps) + 0.2*(F12+F21)^2 + 0.1*F11*F22")
        W = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, -0.5, 0.0]])
        f = ThermoelasticForcing(L=lambda t: W, divq=lambda t: 0.0)
        r = rates(make_state(eps=0.5), c, f, 0.0)
        assert abs(r[0]) <= 1e-15

    def test_step_rejects_bad_dt(self):
        with pytest.raises(ModelError):
            step(make_state(), potential("ln(eps)"), no_forcing(), 0.0, 0.0)


class TestTimeExtendedCloseness:
    def ext(self, text):
        return ScalarField.from_text(text, ETA_PRIME_COORDS)

    def residual_at(self, thetainv, sot, qb, point=None):
        if point is None:
            point = {n: 0.2 for n in ETA_PRIME_COORDS}
        return closeness_system_residual(thetainv, sot, qb, point)

    def test_closed_example(self):
        # theta^-1 = 2 eps + F11 pairs with sot_11 = -eps; everything else flat
        thetainv = self.ext("2*eps + F11")
        sot = tuple(self.ext("-eps" if name == "F11" else "0") for name in F_NAMES)
        qb = self.ext("t")
        assert self.residual_at(thetainv, sot, qb).max() <= 1e-14

    def test_heat_flux_block_violation(self):
        thetainv = self.ext("beta1")
        sot = tuple(self.ext("0") for _ in F_NAMES)
        qb = self.ext("0")
        res = self.residual_at(thetainv, sot, qb)
        assert res[1] == pytest.approx(1.0)
        assert res[[0, 2, 3, 4, 5]].max() <= 1e-14

    def test_elastic_block_violation(self):
        thetainv = self.ext("F11")
        sot = tuple(self.ext("0") for _ in F_NAMES)
        qb = self.ext("0")
        res = self.residual_at(thetainv, sot, qb)
        assert res[0] == pytest.approx(1.0)
        assert res[[1, 2, 3, 4, 5]].max() <= 1e-14

    def test_time_block_violation(self):
        thetainv = self.ext("t")
        sot = tuple(self.ext("0") for _ in F_NAMES)
        qb = self.ext("0")
        res = self.residual_at(thetainv, sot, qb)
        assert res[5] == pytest.approx(1.0)
        assert res[[0, 1, 2, 3, 4]].max() <= 1e-14

    @pytest.mark.parametrize("thetainv, sot, qb, message", [
        ("1e200*F11*1e200", {}, "0", r"inf in the condition \(eps,F\) curl, pair \(eps, F11\)$"),
        ("0", {"F12": "1e200*t*1e200"}, "0", r"inf in the condition \(F,t\) curl, pair \(F12, t\)$"),
        ("0", {}, "1e200*beta2*1e200", r"inf in the condition d\(q\.beta\)/d\(beta\), pair \(t, beta2\)$"),
        # opposite infinities meet in the curl: numpy's invalid-value warning escaped before the error
        ("1e200*F11*1e200", {"F11": "-1e200*eps*1e200"}, "0",
         r"nan in the condition \(eps,F\) curl, pair \(eps, F11\)$"),
    ], ids=["eps-F", "F-t", "q-beta", "eps-F-nan"])
    def test_non_finite_residual_names_its_condition_and_pair(self, thetainv, sot, qb, message):
        # an overflowing gradient gave [inf, 0, ...] silently: no evidence either way
        sot = tuple(self.ext(sot.get(name, "0")) for name in F_NAMES)
        with pytest.raises(DomainError, match=r"^non-finite closeness residual " + message):
            self.residual_at(self.ext(thetainv), sot, self.ext(qb))

    def test_matches_the_hand_written_blocks(self):
        # 1,200 seeded cases of 4-term bilinear coefficients, a third with an overflowing term:
        # returns agree bit for bit, errors by type and message
        rng = np.random.default_rng(25)

        def field(big: bool):
            terms = [f"{rng.uniform(-1.0, 1.0)!r}*{a}*{b}" for a, b in rng.choice(ETA_PRIME_COORDS, (4, 2))]
            if big:
                terms[0] = f"{rng.choice(['-1e200', '1e200'])}*{terms[0]}*1e200"
            return self.ext(" + ".join(terms))

        pool, big_pool = [field(False) for _ in range(120)], [field(True) for _ in range(60)]
        outcomes = {"returned": 0, "raised": 0}
        for case in range(1200):
            fields = [pool[i] for i in rng.integers(len(pool), size=11)]
            if case % 3 == 0:
                for slot in rng.choice(11, size=int(rng.integers(1, 3)), replace=False):
                    fields[slot] = big_pool[int(rng.integers(len(big_pool)))]
            point = dict(zip(ETA_PRIME_COORDS, rng.uniform(-1.0, 1.0, len(ETA_PRIME_COORDS)).tolist()))
            args = (fields[0], tuple(fields[1:10]), fields[10], point)
            results = []
            for fn in (closeness_system_residual, hand_closeness_system_residual):
                try:
                    results.append([float(v).hex() for v in fn(*args)])
                except DomainError as exc:
                    results.append((type(exc), str(exc)))
            assert results[0] == results[1], (case, results)
            outcomes["raised" if isinstance(results[0], tuple) else "returned"] += 1
        assert min(outcomes.values()) >= 200, outcomes

    def test_coordinate_guard(self):
        with pytest.raises(ModelError):
            closeness_system_residual(
                ScalarField.from_text("0", BASE_COORDS),
                tuple(self.ext("0") for _ in F_NAMES),
                self.ext("0"), {})

    def test_stress_component_count(self):
        with pytest.raises(ModelError, match="^need 9 components of sigma:F\\^-1/theta$"):
            self.residual_at(self.ext("0"), tuple(self.ext("0") for _ in F_NAMES[:8]), self.ext("0"))
