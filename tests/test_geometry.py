import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoform.expr import DomainError, ScalarField
from thermoform.geometry import (
    ContactChart,
    GeometryError,
    OneForm,
    contact_eval,
    d_residual,
    is_closed,
    low_discrepancy_samples,
    potential_form,
    reconstruct_potential,
    reeb_flow,
    worst_residual,
)
from conftest import fd_curl, random_polynomial_text


def form_xy(*texts):
    coords = ("x", "y")
    return OneForm(coords, tuple(ScalarField.from_text(t, coords) for t in texts))


class TestContactChart:
    def test_rejects_degenerate(self):
        with pytest.raises(GeometryError):
            ContactChart(n=0)

    def test_rejects_name_clash(self):
        with pytest.raises(GeometryError):
            ContactChart(n=1, q_names=("s",), p_names=("p",))

    def test_default_names(self):
        chart = ContactChart(n=2)
        assert chart.coords == ("s", "q1", "q2", "p1", "p2")

    @pytest.mark.parametrize("names", [{"q_names": ("a",)}, {"p_names": ("a", "b", "c")}],
                             ids=["q", "p"])
    def test_rejects_a_wrong_name_count(self, names):
        with pytest.raises(GeometryError, match="^need exactly n extensive and n intensive names$"):
            ContactChart(n=2, **names)


class TestOneForm:
    def test_one_coefficient_per_coordinate(self):
        with pytest.raises(GeometryError, match="^coefficient count must equal coordinate count$"):
            OneForm(("x", "y"), (ScalarField.from_text("x", ("x", "y")),))

    def test_coefficients_share_the_coordinates(self):
        with pytest.raises(GeometryError, match="^all coefficients must live on the form's coordinate space$"):
            OneForm(("x", "y"), (ScalarField.from_text("x", ("x", "y")), ScalarField.from_text("y", ("y", "x"))))

    def test_no_coordinates_is_refused(self):
        # is_closed over it raised numpy's "attempt to get argmax of an empty sequence"
        with pytest.raises(GeometryError, match="^a 1-form needs at least one coordinate$"):
            OneForm((), ())


class TestContactEval:
    chart = ContactChart(n=1, q_names=("q",), p_names=("p",))
    x = {"s": 0.0, "q": 0.0, "p": 3.0}

    def test_reeb_direction(self):
        assert contact_eval(self.chart, self.x, {"s": 1.0}) == 1.0

    def test_extensive_direction(self):
        assert contact_eval(self.chart, self.x, {"q": 1.0}) == -3.0

    def test_horizontal_lift(self):
        assert contact_eval(self.chart, self.x, {"q": 1.0, "s": 3.0}) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            contact_eval(self.chart, self.x, {"bogus": 1.0})


class TestReebFlow:
    def test_shift(self):
        out = reeb_flow({"s": 0.0, "q": 1.5, "p": -2.0}, 2.0)
        assert out == {"s": 2.0, "q": 1.5, "p": -2.0}

    def test_identity(self):
        x = {"s": 0.25, "q": 1.0, "p": 0.5}
        assert reeb_flow(x, 0.0) == x

    @given(a=st.integers(-40, 40), b=st.integers(-40, 40), s=st.integers(-40, 40))
    def test_flow_law_exact_on_dyadics(self, a, b, s):
        x = {"s": s * 0.25, "q": 1.0}
        one = reeb_flow(reeb_flow(x, a * 0.25), b * 0.25)
        two = reeb_flow(x, (a + b) * 0.25)
        assert one == two

    @given(a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3))
    @settings(max_examples=50)
    def test_flow_law_float(self, a, b):
        x = {"s": 0.1}
        one = reeb_flow(reeb_flow(x, a), b)["s"]
        two = reeb_flow(x, a + b)["s"]
        assert one == pytest.approx(two, rel=1e-12, abs=1e-12)


class TestDResidual:
    def test_exact_form_is_closed(self):
        form = form_xy("y", "x")  # d(xy)
        for x in ({"x": 0.0, "y": 0.0}, {"x": 2.0, "y": -3.0}):
            assert np.abs(d_residual(form, x)).max() == 0.0

    def test_rotation_form(self):
        form = form_xy("y", "-x")
        res = d_residual(form, {"x": 0.7, "y": 0.1})
        assert res[0, 1] == pytest.approx(2.0)
        assert res[1, 0] == pytest.approx(-2.0)

    def test_antisymmetric_bitwise(self):
        form = form_xy("exp(x*y)", "x^2-y")
        res = d_residual(form, {"x": 0.5, "y": 1.5})
        assert np.array_equal(res, -res.T)

    def test_matches_fd_curl_oracle(self, rng):
        coords = ("s", "q1", "q2")
        form = OneForm(coords, (
            ScalarField.from_text("0", coords),
            ScalarField.from_text("s", coords),
            ScalarField.from_text("q1", coords),
        ))
        for _ in range(10):
            x = {n: float(rng.uniform(-1, 1)) for n in coords}
            res = d_residual(form, x)
            ref = fd_curl(form, x)
            assert np.abs(res - ref).max() <= 1e-6
        # hand value: the (s, q1) pair carries curl -1... computed both ways above;
        # spot-check one entry against the analytic value d(s)/ds - 0 = 1
        res = d_residual(form, {"s": 0.3, "q1": 0.1, "q2": -0.4})
        assert res[1, 0] == pytest.approx(1.0)   # da_{q1}/ds - da_s/dq1
        assert res[2, 1] == pytest.approx(1.0)   # da_{q2}/dq1 - da_{q1}/dq2


class TestIsClosed:
    def test_potential_generated_is_closed(self, rng):
        coords = ("eps", "F", "H")
        text = random_polynomial_text(coords, rng)
        form = potential_form(ScalarField.from_text(text, coords))
        samples = low_discrepancy_samples({n: (-1.0, 1.0) for n in coords}, 16)
        ok, worst = is_closed(form, samples, tol=1e-9)
        assert ok and worst <= 1e-9

    def test_rotation_form_fails(self):
        form = form_xy("y", "-x")
        ok, worst = is_closed(form, [{"x": 0.0, "y": 0.0}], tol=1e-8)
        assert not ok
        assert worst == pytest.approx(2.0)

    def test_perturbation_flips_verdict(self):
        base = potential_form(ScalarField.from_text("x^2*y + y^3", ("x", "y")))
        samples = low_discrepancy_samples({"x": (0.5, 1.5), "y": (0.5, 1.5)}, 16)
        assert is_closed(base, samples)[0]
        # bump the x-coefficient by 0.1 y^2: injects a curl of 0.2 y
        bumped = OneForm(base.coords, (
            ScalarField.from_text("2*x*y + 0.1*y^2", ("x", "y")),
            base.coefficients[1],
        ))
        ok, worst = is_closed(bumped, samples, tol=1e-8)
        assert not ok
        worst_y = max(abs(p["y"]) for p in samples)
        assert worst == pytest.approx(0.2 * worst_y, rel=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(GeometryError):
            is_closed(form_xy("y", "x"), [])

    def test_nan_tolerance_is_an_error(self):
        # no residual is <= NaN: the verdict was (False, 1.0) for the closed form y dx + x dy
        with pytest.raises(GeometryError, match="^closeness tolerance must be a number >= 0, got nan$"):
            is_closed(form_xy("y", "x"), [{"x": 1.0, "y": 1.0}], tol=math.nan)

    def test_negative_tolerance_is_an_error(self):
        # no |residual| is <= -1: the verdict was (False, 0.0) for the closed form y dx + x dy
        with pytest.raises(GeometryError, match="^closeness tolerance must be a number >= 0, got -1.0$"):
            is_closed(form_xy("y", "x"), [{"x": 1.0, "y": 1.0}], tol=-1.0)
        assert is_closed(form_xy("y", "x"), [{"x": 1.0, "y": 1.0}], tol=0.0) == (True, 0.0)

    def test_worst_residual_names_the_pair(self):
        # d(eta)_xy = d(x*y)/dy - d(0)/dx = x, largest at the sample with the largest x
        form = form_xy("x*y", "0")
        samples = [{"x": 0.5, "y": 2.0}, {"x": -3.0, "y": 0.0}, {"x": 1.0, "y": 1.0}]
        worst, pair = worst_residual(form, samples)
        assert worst == 3.0
        assert pair in (("x", "y"), ("y", "x"))
        assert is_closed(form, samples) == (False, 3.0)

    def test_non_finite_residual_is_a_domain_error(self):
        # 1e308*10 overflows to inf and inf - inf is NaN, which no comparison
        # ranks: the form must not pass as closed on such evidence
        form = form_xy("y*(1e308*10 - 1e308*10)", "x")
        with pytest.raises(DomainError, match=r"non-finite .*\(x, y\)"):
            is_closed(form, [{"x": 1.0, "y": 1.0}])

    def test_overflowed_jacobian_diagonal_is_a_domain_error(self):
        # da_x/dx = 1e308*10 = inf; C_xx = inf - inf is NaN, and is reported
        # without a numpy RuntimeWarning (the warning filter turns one into an error)
        form = form_xy("x*1e308*10", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"non-finite .*\(x, x\)"):
                is_closed(form, [{"x": 1.0, "y": 1.0}])


def loop_d_residual(form, x):
    """Reference: C_ij built one coordinate pair at a time, on floats."""
    m = len(form.coords)
    jac = [c.grad(x).tolist() for c in form.coefficients]
    out = np.zeros((m, m))
    for i in range(m):
        out[i, i] = jac[i][i] - jac[i][i]  # 0, or NaN from an overflowed derivative
        for j in range(i + 1, m):
            c = jac[i][j] - jac[j][i]
            out[i, j] = c
            out[j, i] = -c
    return out


def loop_worst_residual(form, samples):
    """Reference: a running strict maximum over samples, first pair on ties; the
    first sample that raises, or has a non-finite entry (row-major), ends the loop."""
    worst, pair = 0.0, (form.coords[0], form.coords[0])
    for x in samples:
        res = np.abs(loop_d_residual(form, x))
        for (i, j), v in np.ndenumerate(res):
            if not math.isfinite(v):
                raise DomainError(f"non-finite closeness residual {v} in the pair "
                                  f"({form.coords[i]}, {form.coords[j]})")
        i, j = np.unravel_index(int(res.argmax()), res.shape)
        if res[i, j] > worst:
            worst, pair = float(res[i, j]), (form.coords[i], form.coords[j])
    return worst, pair


def outcome(fn):
    try:
        return fn(), None
    except DomainError as exc:
        return None, (type(exc), str(exc))


class TestArrayBuildersMatchLoops:
    COORDS = ("w", "x", "y", "z")

    def random_form(self, rng):
        # some coefficients are constant, so whole Jacobian rows are exact zeros
        texts = [random_polynomial_text(list(self.COORDS), rng, terms=4)
                 if rng.uniform() < 0.75 else "1.5" for _ in self.COORDS]
        return OneForm(self.COORDS, tuple(ScalarField.from_text(t, self.COORDS) for t in texts))

    def test_d_residual(self, rng):
        for _ in range(20):
            form = self.random_form(rng)
            for x in low_discrepancy_samples({n: (-2.0, 2.0) for n in self.COORDS}, 4,
                                             seed=int(rng.integers(100))):
                assert np.array_equal(d_residual(form, x), loop_d_residual(form, x))

    def test_worst_residual(self, rng):
        box = {n: (-2.0, 2.0) for n in self.COORDS}
        for _ in range(20):
            form = self.random_form(rng)
            samples = low_discrepancy_samples(box, 5, seed=int(rng.integers(100)))
            assert worst_residual(form, samples) == loop_worst_residual(form, samples)
            # a repeated sample ties with itself: the first one is kept either way
            doubled = samples[::-1] + samples
            assert worst_residual(form, doubled) == loop_worst_residual(form, doubled)

    # samples (x, 1) at x = 0.5, 3, 0.7, -1 and 2
    ERROR_SAMPLES = [{"x": x, "y": 1.0} for x in (0.5, 3.0, 0.7, -1.0, 2.0)]

    @pytest.mark.parametrize("texts, message", [
        (("y/(x+1)", "x"), r"^division by zero in 'y/\(x\+1\)' \(value 0\.0\)$"),
        (("ln(x)", "x*x*1e308"), r"^non-finite closeness residual inf in the pair \(x, y\)$"),
        (("x*x*1e308", "y"), r"^non-finite closeness residual nan in the pair \(x, x\)$"),
    ], ids=["pole-at-sample-3", "non-finite-at-1-and-ln-at-3", "overflowed-diagonal"])
    def test_worst_residual_errors_match_the_loop(self, texts, message):
        # one batched d_residual call fails at the ln or the pole of sample 3 (or
        # has inf/NaN entries); the error must be the first failing sample's, with
        # the message the loop over samples gives
        form = form_xy(*texts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(lambda: worst_residual(form, self.ERROR_SAMPLES))
            want = outcome(lambda: loop_worst_residual(form, self.ERROR_SAMPLES))
        assert got == want
        with pytest.raises(DomainError, match=message):
            worst_residual(form, self.ERROR_SAMPLES)
        # without the failing samples, the same form gets a verdict from the batch
        fine = self.ERROR_SAMPLES[:1]
        assert worst_residual(form, fine) == loop_worst_residual(form, fine)

    def test_returned_batch_with_non_finite_entry_is_final(self):
        # da_y/dy = 2y*1e308 overflows at y = 1 (sample 1: C_yy is NaN), da_x/dx at
        # x = 1 (sample 2: C_xx). The batch returns: its first non-finite entry, by
        # sample and then row-major, is the error, and no sample is run again
        form = form_xy("x^2*1e308", "y^2*1e308")
        samples = [{"x": 0.5, "y": 0.5}, {"x": 0.5, "y": 1.0}, {"x": 1.0, "y": 0.5}]
        assert np.isnan(d_residual(form, samples)[1:].diagonal(axis1=1, axis2=2)).tolist() == [
            [False, True], [True, False]]
        with mock.patch("thermoform.geometry.d_residual", wraps=d_residual) as sweep:
            with pytest.raises(DomainError, match=r"^non-finite closeness residual nan in the pair \(y, y\)$"):
                worst_residual(form, samples)
        assert sweep.call_count == 1
        assert outcome(lambda: worst_residual(form, samples)) == outcome(
            lambda: loop_worst_residual(form, samples))

    def test_worst_residual_all_zero(self):
        form = form_xy("1", "2")
        samples = [{"x": 0.0, "y": 1.0}, {"x": 2.0, "y": 3.0}]
        assert worst_residual(form, samples) == (0.0, ("x", "x"))
        assert loop_worst_residual(form, samples) == (0.0, ("x", "x"))


class TestReconstructPotential:
    def test_simple_exact_form(self):
        form = form_xy("2*x", "1")
        u, res = reconstruct_potential(form, {"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0})
        assert u == pytest.approx(2.0, abs=1e-12)
        assert res <= 1e-12

    def test_recovers_random_polynomial_potential(self, rng):
        coords = ("x", "y", "z")
        for _ in range(5):
            u = ScalarField.from_text(random_polynomial_text(coords, rng), coords)
            form = potential_form(u)
            base = {n: float(rng.uniform(-1, 1)) for n in coords}
            target = {n: float(rng.uniform(-1, 1)) for n in coords}
            val, res = reconstruct_potential(form, base, target)
            expected = u.value(target) - u.value(base)
            assert val == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert res <= 1e-9

    def test_zero_length_leg_adds_nothing(self):
        # the y legs have zero length at y = 0, a pole of a_y: they are skipped, not evaluated
        form = form_xy("y + 1", "x + 1/y")
        u, res = reconstruct_potential(form, {"x": 0.0, "y": 0.0}, {"x": 2.0, "y": 0.0})
        assert u == pytest.approx(2.0, abs=1e-12)
        assert res == 0.0  # both orders integrate the same x leg

    def test_non_exact_detected(self):
        # staircase hand-integral: x-leg then y-leg gives -1, reversed gives +1
        form = form_xy("y", "-x")
        u, res = reconstruct_potential(form, {"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0})
        assert u == pytest.approx(-1.0, abs=1e-12)
        assert res == pytest.approx(2.0, abs=1e-12)
        assert res > 0.1

    @pytest.mark.parametrize("coefficients, target, message", [
        (("1e300",), {"x": 1e10}, "non-finite potential inf on the leg along x"),
        (("1e300", "-1e300"), {"x": 1e10, "y": 1e10}, "non-finite potential inf on the leg along x"),
        (("1", "-1e300"), {"x": 1e10, "y": 1e10}, "non-finite potential -inf on the leg along y"),
        # each order sums to a finite -1.125e308 or +1.125e308; their difference overflows
        (("5e307*y", "-5e307*x"), {"x": 1.5, "y": 1.5}, "non-finite path-dependence residual inf"),
    ], ids=["one-leg", "first-leg", "second-leg", "residual"])
    def test_non_finite_result_is_a_domain_error(self, coefficients, target, message):
        # (inf, nan) or (nan, nan) as np.float64, with RuntimeWarnings
        coords = tuple(target)
        form = OneForm(coords, tuple(ScalarField.from_text(c, coords) for c in coefficients))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^{re.escape(message)}$"):
                reconstruct_potential(form, dict.fromkeys(coords, 0.0), target)

    def test_results_are_floats(self):
        form = form_xy("2*x", "1")
        assert [type(v) for v in reconstruct_potential(form, {"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0})] == [
            float, float]

    def test_one_node_is_the_midpoint_rule(self):
        form = form_xy("2*x", "1")
        assert reconstruct_potential(form, {"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0}, nodes=1) == (2.0, 0.0)

    @pytest.mark.parametrize("nodes", [0, -3, 2.5, None])
    @pytest.mark.parametrize("target", [1.0, 0.0], ids=["legs", "no-leg"])
    def test_node_count_must_be_a_positive_integer(self, nodes, target):
        # numpy's ValueError or TypeError from the first leg, and no error at all with no leg
        form = form_xy("2*x", "1")
        with pytest.raises(GeometryError, match=rf"^quadrature nodes must be an integer >= 1, got {nodes!r}$"):
            reconstruct_potential(form, {"x": 0.0, "y": 0.0}, {"x": target, "y": target}, nodes=nodes)


class TestReebCharacterization:
    def test_theta_of_reeb_is_one(self, rng):
        chart = ContactChart(n=3)
        for _ in range(5):
            x = {n: float(rng.uniform(-2, 2)) for n in chart.coords}
            assert contact_eval(chart, x, {"s": 1.0}) == 1.0

    def test_dtheta_annihilates_reeb(self, rng):
        # d(theta) = -sum dp_i ^ dq^i has no ds slot: contracting with the
        # Reeb direction against any coordinate direction gives zero.
        chart = ContactChart(n=2)
        x = {n: float(rng.uniform(-2, 2)) for n in chart.coords}
        reeb = np.zeros(5)
        reeb[0] = 1.0

        idx = {name: k for k, name in enumerate(chart.coords)}

        def dtheta(u, v):
            total = 0.0
            for qn, pn in zip(chart.q_names, chart.p_names):
                total -= u[idx[pn]] * v[idx[qn]] - v[idx[pn]] * u[idx[qn]]
            return total

        for k in range(5):
            v = np.zeros(5)
            v[k] = 1.0
            assert dtheta(reeb, v) == 0.0


class TestSampling:
    def test_deterministic(self):
        box = {"x": (0.0, 1.0), "y": (-1.0, 1.0)}
        assert low_discrepancy_samples(box, 8) == low_discrepancy_samples(box, 8)

    def test_inside_box(self):
        box = {"x": (2.0, 3.0)}
        for p in low_discrepancy_samples(box, 64):
            assert 2.0 <= p["x"] <= 3.0

    def test_seed_shifts_sequence(self):
        box = {"x": (0.0, 1.0)}
        assert low_discrepancy_samples(box, 4, seed=1) != low_discrepancy_samples(box, 4)

    @staticmethod
    def _sample_in_a_child(seed: str) -> subprocess.CompletedProcess:
        # the call runs in a child process, so that a hang fails at the timeout instead of
        # stopping the suite
        script = f"from thermoform.geometry import *; low_discrepancy_samples({{'x': (0.0, 1.0)}}, 4, seed={seed})"
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))

    def test_negative_seed_is_refused(self):
        # divmod(-1, 2) keeps q = -1, so the radical inverse looped forever
        proc = self._sample_in_a_child("-1")
        assert proc.returncode == 1
        assert proc.stderr.endswith("GeometryError: the sample seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("seed, shown", [("float('nan')", "nan"), ("float('inf')", "inf"), ("1.5", "1.5")])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed, shown):
        # divmod(nan or inf, 2) is (nan, nan), so the radical inverse looped forever, and
        # 1.5 gave points off the Halton sequence
        proc = self._sample_in_a_child(seed)
        assert proc.returncode == 1
        assert proc.stderr.endswith(f"GeometryError: the sample seed must be an integer >= 0, got {shown}\n")

    @pytest.mark.parametrize("span", [(-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0)])
    def test_a_span_that_is_not_a_finite_float_is_refused(self, span):
        # 1e308 - -1e308 overflows: the points were nan and inf, with numpy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="^" + re.escape(
                    f"sample box of x: the span of {span!r} is not a finite float") + "$"):
                low_discrepancy_samples({"y": (0, 1), "x": span}, 4)

    @pytest.mark.parametrize("count", [-1, 2.5, "4", None])
    def test_a_count_that_is_not_an_integer_ge_0_is_refused(self, count):
        # -1 and 2.5 raised numpy's ValueError and TypeError
        with pytest.raises(GeometryError, match="^" + re.escape(
                f"the sample count must be an integer >= 0, got {count!r}") + "$"):
            low_discrepancy_samples({"x": (0.0, 1.0)}, count)

    def test_a_count_of_0_is_no_samples(self):
        assert low_discrepancy_samples({"x": (0.0, 1.0)}, 0) == []
        assert low_discrepancy_samples({"x": (0.0, 1.0)}, np.int64(2)) == [{"x": 0.0}, {"x": 0.5}]

    def test_frozen_points(self):
        box = {"a": (0.0, 1.0), "b": (0.0, 1.0), "c": (0.0, 1.0)}
        pts = [[p[n] for n in box] for p in low_discrepancy_samples(box, 3)]
        assert pts == [[0.0, 0.0, 0.0], [0.5, 1 / 3, 0.2], [0.25, 2 / 3, 0.4]]
        pts = [[p[n] for n in box] for p in low_discrepancy_samples(box, 2, seed=4095)]
        assert pts == [[0.999755859375, 0.09708885840573084, 0.187584],
                       [0.0001220703125, 0.43042219173906415, 0.387584]]

    @pytest.mark.parametrize("dims", [3, 26])
    @pytest.mark.parametrize("seed", [0, 1, 17, 4095])
    def test_matches_scipy_halton_bitwise(self, dims, seed):
        qmc = pytest.importorskip("scipy.stats.qmc")
        sampler = qmc.Halton(d=dims, scramble=False)
        if seed:
            sampler.fast_forward(seed)
        box = {f"x{j}": (0.0, 1.0) for j in range(dims)}
        got = np.array([[p[n] for n in box] for p in low_discrepancy_samples(box, 64, seed=seed)])
        assert np.array_equal(got.view(np.uint64), sampler.random(64).view(np.uint64))
