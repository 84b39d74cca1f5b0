import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from thermoform.expr import DomainError, ScalarField
from thermoform.geometry import ContactChart, OneForm, potential_form
from thermoform.legendre import ConstitutiveSurface
from thermoform.processes import (
    ProcessCurve,
    ProcessError,
    admissibility,
    entropy_action,
    godograph_det,
    rate_relation_residual,
    spinodal_scan,
    thermo_metric,
)
from thermoform.vdw import vdw_potential
from conftest import fd_hessian, random_polynomial_text


def curve_xy(points, times=None):
    pts = np.asarray(points, dtype=float)
    t = np.arange(len(pts), dtype=float) if times is None else np.asarray(times)
    return ProcessCurve(("x", "y"), t, pts)


def surface_q2(sigma_text, potential_text="q1*q2"):
    chart = ContactChart(n=2, q_names=("q1", "q2"), p_names=("p1", "p2"))
    return ConstitutiveSurface(
        chart,
        ScalarField.from_text(potential_text, ("q1", "q2")),
        ScalarField.from_text(sigma_text, ("q1", "q2")),
    )


class TestProcessCurve:
    def test_times_must_increase(self):
        with pytest.raises(ProcessError):
            curve_xy([[0, 0], [1, 1]], times=[1.0, 0.0])

    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0], [np.nan, np.nan]])
    def test_times_must_be_finite(self, times):
        # NaN passed the old np.diff(t) <= 0 test, since every comparison with NaN is False
        with pytest.raises(ProcessError, match="^times must be finite and strictly increasing$"):
            curve_xy(np.zeros((len(times), 2)), times=times)

    def test_far_apart_times_do_not_overflow(self):
        # np.diff(t) overflowed to inf with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert curve_xy([[0, 0], [1, 1]], times=[-1.7e308, 1.7e308]).times[1] == 1.7e308

    @pytest.mark.parametrize("times", [[0.0], [[0.0, 1.0]]], ids=["one-sample", "2d"])
    def test_needs_two_time_samples(self, times):
        with pytest.raises(ProcessError, match="^a curve needs at least 2 time samples$"):
            ProcessCurve(("x",), np.array(times), np.zeros((1, 1)))

    def test_shape_guard(self):
        with pytest.raises(ProcessError):
            ProcessCurve(("x",), np.array([0.0, 1.0]), np.zeros((3, 1)))

    def test_points_in_reorders_the_columns(self):
        c = ProcessCurve(("x", "y", "z"), np.array([0.0, 1.0]), np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert c.points_in(("z", "x", "y"), "unused").tolist() == [[3.0, 1.0, 2.0], [6.0, 4.0, 5.0]]

    @pytest.mark.parametrize("coords", [("x",), ("x", "y", "w"), ("x", "y", "z", "w")])
    def test_points_in_other_coordinates_is_the_given_error(self, coords):
        c = ProcessCurve(("x", "y", "z"), np.array([0.0, 1.0]), np.zeros((2, 3)))
        with pytest.raises(ProcessError, match="^not these coordinates$"):
            c.points_in(coords, "not these coordinates")

    def test_reversed_swaps_and_keeps_time_span(self):
        c = curve_xy([[0, 0], [1, 0], [1, 1]], times=[0.0, 0.5, 2.0])
        r = c.reversed()
        assert np.array_equal(r.points[0], c.points[-1])
        assert r.times[0] == c.times[0] and r.times[-1] == c.times[-1]
        assert np.all(np.diff(r.times) > 0)


class TestEntropyAction:
    def test_unit_square_loop(self):
        # counterclockwise square: the action of y dx is minus the area
        form = OneForm(("x", "y"), (
            ScalarField.from_text("y", ("x", "y")),
            ScalarField.from_text("0", ("x", "y")),
        ))
        loop = curve_xy([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])
        assert entropy_action(loop, form) == pytest.approx(-1.0, abs=1e-13)

    def test_exact_form_gives_potential_difference(self, rng):
        coords = ("x", "y")
        u = ScalarField.from_text(random_polynomial_text(list(coords), rng), coords)
        form = potential_form(u)
        pts = rng.uniform(-1, 1, (6, 2))
        c = curve_xy(pts)
        want = u.value(c.binding(5)) - u.value(c.binding(0))
        assert entropy_action(c, form, nodes=8) == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_loop_law(self, rng):
        coords = ("x", "y")
        u = ScalarField.from_text(random_polynomial_text(list(coords), rng), coords)
        pts = rng.uniform(-1, 1, (5, 2))
        pts[-1] = pts[0]
        assert abs(entropy_action(curve_xy(pts), potential_form(u), nodes=8)) <= 1e-10

    def test_coordinate_mismatch(self):
        form = potential_form(ScalarField.from_text("a*b", ("a", "b")))
        with pytest.raises(ProcessError):
            entropy_action(curve_xy([[0, 0], [1, 1]]), form)

    @pytest.mark.parametrize("xs, interval", [([0.0, 1e10], 0), ([0.0, 1.0, 1e10], 1)])
    def test_overflowing_quadrature_is_a_domain_error(self, xs, interval):
        # a finite coefficient times a finite step overflowed: a RuntimeWarning and an inf action
        form = OneForm(("x",), (ScalarField.from_text("1e300", ("x",)),))
        curve = ProcessCurve(("x",), np.arange(len(xs), dtype=float), np.array(xs).reshape(-1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^non-finite entropy action inf on curve interval {interval} "):
                entropy_action(curve, form)

    def test_node_count_is_honoured(self):
        # 1 to 3 nodes were silently raised to 4: x^3 dx over [0, 1] gave 0.25 at every count
        form = OneForm(("x",), (ScalarField.from_text("x^3", ("x",)),))
        curve = ProcessCurve(("x",), np.array([0.0, 1.0]), np.array([[0.0], [1.0]]))
        assert entropy_action(curve, form, nodes=1) == 0.125  # the midpoint rule
        assert entropy_action(curve, form, nodes=2) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("nodes", [0, -1, 2.5, None])
    def test_node_count_must_be_a_positive_integer(self, nodes):
        # 0 and -1 were raised to 4; 2.5 and None ended in numpy's TypeError
        form = potential_form(ScalarField.from_text("x*y", ("x", "y")))
        with pytest.raises(ProcessError, match=rf"^quadrature nodes must be an integer >= 1, got {nodes!r}$"):
            entropy_action(curve_xy([[0, 0], [1, 1]]), form, nodes=nodes)


class TestAdmissibility:
    @staticmethod
    def monotone_curve(direction=1.0, n=9):
        t = np.linspace(0.0, 1.0, n)
        q1 = direction * t
        q2 = np.ones(n)
        return ProcessCurve(("q1", "q2"), t, np.column_stack([q1, q2]))

    def test_increasing_production_is_admissible(self):
        report = admissibility(surface_q2("q1"), self.monotone_curve(+1.0))
        assert report.admissible
        assert report.rates == pytest.approx(np.ones(7))
        assert report.violating_intervals == ()

    def test_decreasing_production_is_not(self):
        report = admissibility(surface_q2("q1"), self.monotone_curve(-1.0))
        assert not report.admissible
        assert len(report.violating_intervals) == 7

    def test_mixed_curve_localizes_violation(self):
        # q1 rises then falls: only the falling interior samples violate
        t = np.linspace(0.0, 1.0, 9)
        q1 = np.concatenate([t[:5], t[3::-1]])
        c = ProcessCurve(("q1", "q2"), t, np.column_stack([q1, np.ones(9)]))
        report = admissibility(surface_q2("q1"), c)
        assert not report.admissible
        assert report.violating_intervals == (5, 6, 7)

    def test_constant_production_reversible(self):
        surf = surface_q2("0.5")
        c = self.monotone_curve(+1.0)
        assert admissibility(surf, c).admissible
        assert admissibility(surf, c.reversed()).admissible

    def test_reversal_negates_rates_bitwise(self, rng):
        sigma = random_polynomial_text(["q1", "q2"], rng)
        surf = surface_q2(sigma)
        # dyadic times keep the reversed stencil denominators exact, so the
        # negation is bitwise and not just approximate
        t = np.arange(11) * 0.25
        pts = rng.uniform(-0.5, 0.5, (11, 2))
        c = ProcessCurve(("q1", "q2"), t, pts)
        fwd = admissibility(surf, c).rates
        bwd = admissibility(surf, c.reversed()).rates
        assert np.array_equal(bwd, -fwd[::-1])

    def test_decomposition_identity(self, rng):
        surf = surface_q2(random_polynomial_text(["q1", "q2"], rng),
                          random_polynomial_text(["q1", "q2"], rng))
        t = np.linspace(0.0, 1.0, 7)
        c = ProcessCurve(("q1", "q2"), t, rng.uniform(-0.5, 0.5, (7, 2)))
        report = admissibility(surf, c)
        assert report.delta_s == report.delta_U + report.delta_sigma

    def test_endpoint_inclusion_flag(self):
        c = self.monotone_curve(+1.0, n=5)
        assert len(admissibility(surface_q2("q1"), c).rates) == 3
        assert len(admissibility(surface_q2("q1"), c, include_endpoints=True).rates) == 5

    def test_a_left_out_endpoint_takes_no_gradient(self):
        # d sqrt(q1) is undefined at the first sample: the run failed there, though that
        # rate was thrown away; include it and the same error is the verdict's
        c = ProcessCurve(("q1", "q2"), np.array([0.0, 0.5, 1.0]), np.array([[0.0, 1.0], [0.2, 1.0], [0.4, 1.0]]))
        surf = surface_q2("sqrt(q1)")
        report = admissibility(surf, c)
        assert report.rates.tolist() == [0.5 / math.sqrt(0.2) * 0.4]
        assert report.admissible and report.delta_sigma == math.sqrt(0.4)
        with pytest.raises(DomainError, match=r"^square root not differentiable at zero in 'sqrt\(q1\)' \(value 0\.0\)$"):
            admissibility(surf, c, include_endpoints=True)

    def test_the_first_judged_failure_is_raised(self):
        # the first sample fails first, but it is left out: the interior sample 2's pole is raised
        c = ProcessCurve(("q1", "q2"), np.arange(4.0), np.column_stack([[0.0, 0.2, 0.4, 0.6], np.ones(4)]))
        with pytest.raises(DomainError, match=r"^division by zero in '1/\(q1-0\.4\)' \(value 0\.0\)$"):
            admissibility(surface_q2("sqrt(q1) + 1/(q1-0.4)"), c)
        with pytest.raises(DomainError, match=r"^square root not differentiable at zero"):
            admissibility(surface_q2("sqrt(q1) + 1/(q1-0.4)"), c, include_endpoints=True)

    def test_judged_rates_are_those_of_the_run_with_endpoints(self, rng):
        surf = surface_q2(random_polynomial_text(["q1", "q2"], rng), random_polynomial_text(["q1", "q2"], rng))
        c = ProcessCurve(("q1", "q2"), np.linspace(0.0, 1.0, 9), rng.uniform(-0.5, 0.5, (9, 2)))
        inner, every = admissibility(surf, c), admissibility(surf, c, include_endpoints=True)
        assert list(map(float.hex, inner.rates.tolist())) == list(map(float.hex, every.rates[1:-1].tolist()))
        assert (inner.delta_sigma, inner.delta_U, inner.delta_s) == (every.delta_sigma, every.delta_U, every.delta_s)

    def test_curve_must_be_over_the_surface_coordinates(self):
        curve = ProcessCurve(("q1", "x"), np.arange(3.0), np.zeros((3, 2)))
        with pytest.raises(ProcessError, match="^curve coordinates must match the surface's base coordinates$"):
            admissibility(surface_q2("q1"), curve)

    def test_no_rate_to_judge_is_an_error(self):
        # a 2-sample curve has no interior sample: its "rates" were [] and its verdict "admissible"
        c = ProcessCurve(("q1", "q2"), np.array([0.0, 1.0]), np.array([[0.0, 1.0], [-5.0, 1.0]]))
        with pytest.raises(ProcessError, match="^no production rate to judge: a curve of 2 samples"):
            admissibility(surface_q2("q1"), c)
        assert admissibility(surface_q2("q1"), c, include_endpoints=True).rates.tolist() == [-5.0, -5.0]

    def test_nan_tolerance_is_an_error(self):
        # no rate is < -NaN: a curve whose interior rates are -1.0 was judged admissible
        assert not admissibility(surface_q2("q1"), self.monotone_curve(-1.0)).admissible
        with pytest.raises(ProcessError, match="^admissibility tolerance must be a number >= 0, got nan$"):
            admissibility(surface_q2("q1"), self.monotone_curve(-1.0), tol=math.nan)

    def test_negative_tolerance_is_an_error(self):
        # a rate of 1.0 is < 5: a production-positive curve was judged inadmissible
        assert admissibility(surface_q2("q1"), self.monotone_curve(1.0)).admissible
        with pytest.raises(ProcessError, match="^admissibility tolerance must be a number >= 0, got -5.0$"):
            admissibility(surface_q2("q1"), self.monotone_curve(1.0), tol=-5.0)

    @pytest.mark.parametrize("sigma, potential, q1, name", [
        ("q1", "q1", [0.0, 1e308, -1e308], "delta_s"),  # each change is -1e308
        ("q1", "0", [1e308, 0.0, 0.0, -1e308], "delta_sigma"),  # ends 2e308 apart
        ("0", "q1", [1e308, 0.0, 0.0, -1e308], "delta_U"),
    ])
    def test_overflowing_change_is_a_domain_error(self, sigma, potential, q1, name):
        # the endpoint tangents overflowed with RuntimeWarnings, and the change was -inf
        c = ProcessCurve(("q1", "q2"), 0.5 * np.arange(len(q1)), np.column_stack([q1, np.ones(len(q1))]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^non-finite {name} -inf between the curve's end samples$"):
                admissibility(surface_q2(sigma, potential), c)


class TestMetric:
    def test_quadratic(self):
        u = ScalarField.from_text("q1^2+q2^2", ("q1", "q2"))
        q = {"q1": 1.0, "q2": 2.0}
        assert thermo_metric(u, q) == pytest.approx(np.diag([2.0, 2.0]))
        assert godograph_det(u, q) == pytest.approx(4.0)

    def test_linear_is_degenerate(self):
        u = ScalarField.from_text("3*q1 - q2", ("q1", "q2"))
        q = {"q1": 0.0, "q2": 0.0}
        assert np.abs(thermo_metric(u, q)).max() == 0.0
        assert godograph_det(u, q) == 0.0

    def test_vdw_matches_fd_hessian(self):
        u = vdw_potential()
        q = {"S": 0.0, "V": 1.0}
        got = thermo_metric(u, q)
        ref = fd_hessian(lambda b: u.value(b), q, ("S", "V"))
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-4

    def test_consistency(self):
        u = vdw_potential()
        q = {"S": 0.1, "V": 0.8}
        assert godograph_det(u, q) == float(np.linalg.det(thermo_metric(u, q)))

    def test_overflowing_det_is_a_domain_error(self):
        # the Hessian diag(2e200, 2e200) is finite; its determinant overflowed to inf
        u = ScalarField.from_text("1e200*x^2 + 1e200*y^2", ("x", "y"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(thermo_metric(u, {"x": 1.0, "y": 1.0})).all()
            with pytest.raises(DomainError, match=r"^non-finite Hessian determinant inf in '1e\+200\*x\^2"):
                godograph_det(u, {"x": 1.0, "y": 1.0})


def loop_spinodal_scan(potential, scan_name, lo, hi, fixed, samples=200, xtol=1e-4):
    """Reference: one Hessian and one LAPACK det per grid point and per midpoint."""
    def det_at(v):
        with np.errstate(over="ignore", invalid="ignore"):
            det = float(np.linalg.det(thermo_metric(potential, {**fixed, scan_name: v})))
        if not math.isfinite(det):
            raise DomainError(f"non-finite Hessian determinant {det!r}", potential.expression)
        return det

    xs = np.linspace(lo, hi, samples)
    ds = [det_at(v) for v in xs]
    roots = []
    for i in range(len(xs)):
        if ds[i] == 0.0:
            roots.append(float(xs[i]))
        elif i + 1 < len(xs) and ds[i] * ds[i + 1] < 0.0:
            a, b = float(xs[i]), float(xs[i + 1])
            fa = ds[i]
            while b - a > xtol:
                mid = 0.5 * (a + b)
                fm = det_at(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return roots


def scan_outcome(scan, *args, **kwargs):
    """The roots as hex strings, or the error's type and message."""
    try:
        return [r.hex() for r in scan(*args, **kwargs)]
    except Exception as exc:
        return type(exc), str(exc)


def random_scan(rng):
    """A random 2- or 3-coordinate potential and spinodal_scan arguments over it.  Some
    carry a pole on a grid point, ln or sqrt of a negative value in the later samples,
    a determinant that overflows from some sample on, or both kinds of failure."""
    names = ("x", "y", "z")[:int(rng.integers(2, 4))]
    scan, *others = rng.permutation(names).tolist()
    lo = float(rng.uniform(-2.0, 1.0))
    hi = lo + float(rng.uniform(0.1, 3.0))
    samples = int(rng.integers(2, 41))
    grid = np.linspace(lo, hi, samples).tolist()
    text = random_polynomial_text(list(names), rng, terms=int(rng.integers(2, 7)))
    at = grid[int(rng.integers(samples))]  # a grid value, or a point between two
    if rng.uniform() < 0.5:
        at = 0.5 * (at + grid[min(grid.index(at) + 1, samples - 1)])
    for kind in rng.choice(["pole", "ln", "sqrt", "overflow", "grows"], size=int(rng.integers(0, 3))):
        c = float(rng.uniform(-2.0, 2.0))
        if kind == "pole":
            text += f" + {c!r}/({scan} - {at!r})"
        elif kind in ("ln", "sqrt"):
            text += f" + {c!r}*{kind}({at!r} - {scan})"
        elif kind == "overflow":
            text += " + " + " + ".join(f"1e160*{n}^2" for n in names)
        else:  # the determinant overflows from the samples past lo + 1/g on
            g = float(rng.uniform(0.3, 3.0))
            text += f" + 1e150*exp({100.0 * g!r}*({scan} - {lo!r}) - 100)*(" + " + ".join(
                f"{n}^2" for n in names) + ")"
    potential = ScalarField.from_text(text, names)
    fixed = {n: float(rng.uniform(-1.0, 1.0)) for n in others}
    xtol = float(rng.choice([1e-3, 1e-4, 1e-6]))
    return potential, scan, lo, hi, fixed, samples, xtol


def hessian_fails(potential, scan_name, lo, hi, fixed, samples):
    """Whether the Hessian raises at some grid point of the scan."""
    for v in np.linspace(lo, hi, samples):
        try:
            thermo_metric(potential, {**fixed, scan_name: v})
        except DomainError:
            return True
    return False


class TestSpinodal:
    def test_batch_matches_the_per_sample_loop(self, rng):
        # one stacked determinant call for the whole grid gives the loop's roots bit for
        # bit, and the loop's first error: an earlier sample's overflowing determinant
        # wins over a later sample's Hessian error
        kinds = []
        for _ in range(1000):
            args = random_scan(rng)
            got = scan_outcome(spinodal_scan, *args)
            want = scan_outcome(loop_spinodal_scan, *args)
            assert got == want, args
            kind = want[1].split(" in ")[0] if isinstance(want, tuple) else bool(want)
            if kind == "non-finite Hessian determinant inf" and hessian_fails(*args[:-1]):
                kind = "determinant, then a Hessian error"
            kinds.append(kind)
        # each outcome is common enough to be tested; True and False are some roots and none
        assert {kind: kinds.count(kind) >= 20 for kind in set(kinds)} == dict.fromkeys([
            True, False, "division by zero", "logarithm of a non-positive value",
            "square root of a negative value", "square root not differentiable at zero",
            "non-finite Hessian determinant inf", "non-finite Hessian determinant -inf",
            "determinant, then a Hessian error"], True)

    def test_overflowing_det_before_a_later_hessian_error(self):
        # det = 4e320 overflows at sample 0; ln(0.5 - x) fails from x = 0.5 on
        u = ScalarField.from_text("1e160*(x^2 + y^2) + ln(0.5 - x)", ("x", "y"))
        args = (u, "x", 0.25, 1.0, {"y": 1.0})
        with pytest.raises(DomainError, match="^non-finite Hessian determinant inf "):
            spinodal_scan(*args, samples=4)
        assert scan_outcome(spinodal_scan, *args, samples=4) == scan_outcome(loop_spinodal_scan, *args, samples=4)
        # a Hessian error before the first overflowing determinant is the error
        v = ScalarField.from_text("1e150*exp(100*x)*(x^2 + y^2) + ln(0.5 - x)", ("x", "y"))
        with pytest.raises(DomainError, match="^logarithm of a non-positive value "):
            spinodal_scan(v, "x", -1.0, 1.0, {"y": 1.0}, samples=5)

    def test_stacked_det_is_bitwise_the_per_matrix_det(self):
        # the batch rests on numpy's det gufunc running one LAPACK call per matrix alike
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5):
            stack = rng.normal(size=(500, n, n)) * 10.0 ** rng.uniform(-100, 100, size=(500, 1, 1))
            stack[::7] = stack[::7] + np.swapaxes(stack[::7], 1, 2)  # symmetric, as a Hessian is
            with np.errstate(over="ignore", under="ignore"):
                got = np.linalg.det(stack).tolist()
                want = [float(np.linalg.det(m)) for m in stack]
            assert [g.hex() for g in got] == [w.hex() for w in want]

    @pytest.mark.parametrize("samples", [2.5, "3", None])
    def test_samples_must_be_an_integer(self, samples):
        # 2.5 was a numpy TypeError from linspace
        with pytest.raises(ProcessError, match=re.escape(
                f"need an integer samples and a finite xtol > 0, got samples={samples!r}, xtol=0.0001")):
            spinodal_scan(vdw_potential(), "V", 0.15, 3.0, {"S": 0.0}, samples=samples)

    @pytest.mark.parametrize("xtol", [math.nan, math.inf, 0.0, -1e-4, "1e-4"])
    def test_xtol_must_be_finite_and_positive(self, xtol):
        # NaN skipped the bisection and reported the midpoint of the sample bracket
        with pytest.raises(ProcessError, match=re.escape(
                f"spinodal scan of V: need an integer samples and a finite xtol > 0, got samples=200, xtol={xtol!r}")):
            spinodal_scan(vdw_potential(), "V", 0.15, 3.0, {"S": 0.0}, xtol=xtol)

    def test_bisection_stops_when_the_midpoint_no_longer_splits(self):
        # below the float spacing at the root, b - a > xtol held forever
        script = ("from thermoform.processes import spinodal_scan; from thermoform.vdw import vdw_potential\n"
                  "print(spinodal_scan(vdw_potential(), 'V', 0.15, 3.0, {'S': 0.0}, xtol=1e-20))")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, out.stderr
        (root,) = json.loads(out.stdout)
        assert abs(root - 0.22153559021583927) <= 1e-12

    def test_no_root_for_convex_potential(self):
        u = ScalarField.from_text("q1^2+q2^2", ("q1", "q2"))
        assert spinodal_scan(u, "q1", -1.0, 1.0, {"q2": 0.0}) == []

    def test_sample_with_zero_det_is_a_root(self):
        # det = 12 q1 is exactly 0 at the middle of the 3 samples -1, 0, 1: no bisection
        u = ScalarField.from_text("q1^3 + q2^2", ("q1", "q2"))
        assert spinodal_scan(u, "q1", -1.0, 1.0, {"q2": 0.0}, samples=3) == [0.0]

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 0.0)], ids=["at-lo", "at-hi"])
    def test_zero_det_at_either_end_is_a_root(self, lo, hi):
        # det = q1 is exactly 0 at q1 = 0: it was a root at lo but never at hi
        u = ScalarField.from_text("q1^3/6 + q2^2/2", ("q1", "q2"))
        assert spinodal_scan(u, "q1", lo, hi, {"q2": 0.0}) == [0.0]

    def test_cubic_root_at_origin(self):
        u = ScalarField.from_text("q1^3 + q2^2", ("q1", "q2"))
        roots = spinodal_scan(u, "q1", -1.0, 1.0, {"q2": 0.0}, xtol=1e-6)
        assert len(roots) == 1
        assert abs(roots[0]) <= 1e-5

    @pytest.mark.parametrize("lo, hi, samples", [(3.0, 0.15, 200), (0.15, 0.15, 200), (0.15, 3.0, 1)])
    def test_empty_scan_is_a_process_error(self, lo, hi, samples):
        # a reversed range reported a wrong root; one sample gave a vacuous []
        with pytest.raises(ProcessError, match="need lo < hi and samples >= 2"):
            spinodal_scan(vdw_potential(), "V", lo, hi, {"S": 0.0}, samples=samples)

    @pytest.mark.parametrize("lo, hi", [(-1.7e308, 1.7e308), (-math.inf, 1.0)])
    def test_a_span_that_is_not_a_finite_float_is_a_process_error(self, lo, hi):
        # 1.7e308 - -1.7e308 overflows: the grid held nan and inf, with a numpy RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProcessError, match="^" + re.escape(
                    f"spinodal scan of V: the span of [{lo!r}, {hi!r}] is not a finite float") + "$"):
                spinodal_scan(vdw_potential(), "V", lo, hi, {"S": 0.0})

    def test_overflowing_det_is_a_domain_error(self):
        # an inf determinant took part in the sign test
        u = ScalarField.from_text("1e200*x^2 + 1e200*y^2", ("x", "y"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite Hessian determinant inf"):
                spinodal_scan(u, "x", -1.0, 1.0, {"y": 1.0})

    def test_vdw_spinodal_location(self):
        # analytic root of (2/3) f/(V-b)^2 = 2a/V^3 at S=0 frozen from a
        # high-precision bracketing solve of the closed-form bracket
        roots = spinodal_scan(vdw_potential(), "V", 0.15, 3.0, {"S": 0.0}, xtol=1e-4)
        assert len(roots) == 1
        assert abs(roots[0] - 0.22153559021583927) <= 1e-4


class TestRateRelation:
    @staticmethod
    def parabola_curve(h):
        t = np.arange(0.5, 1.5 + h / 2, h)
        return ProcessCurve(("q1", "q2"), t, np.column_stack([t, t ** 2]))

    def test_bilinear_potential_is_exact(self):
        # p = Hessian q + const with constant Hessian: both sides of the rate
        # relation are the same central differences, so the residual is 0 bitwise
        u = ScalarField.from_text("q1*q2", ("q1", "q2"))
        res = rate_relation_residual(u, self.parabola_curve(0.05))
        assert np.abs(res).max() == 0.0

    def test_cubic_potential_residual_is_2h2(self):
        # U = q1^2 q2 on (t, t^2): p1 = 2t^3, whose central difference is
        # 6t^2 + 2h^2 against the exact 6t^2 on the right side
        u = ScalarField.from_text("q1^2*q2", ("q1", "q2"))
        for h in (0.1, 0.05, 0.025):
            res = rate_relation_residual(u, self.parabola_curve(h))
            assert res == pytest.approx(np.full_like(res, 2 * h * h), rel=1e-9)

    def test_convergence_slope(self):
        u = ScalarField.from_text("q1^2*q2", ("q1", "q2"))
        hs = np.array([0.1, 0.05, 0.025, 0.0125])
        worst = np.array([rate_relation_residual(u, self.parabola_curve(h)).max()
                          for h in hs])
        slope = np.polyfit(np.log(hs), np.log(worst), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_time_dependent_potential(self):
        # U = q1 t: dp1/dt = 1 comes entirely from the explicit t derivative
        u = ScalarField.from_text("q1*t + q2^2", ("q1", "q2", "t"))
        t = np.linspace(0.0, 1.0, 11)
        c = ProcessCurve(("q1", "q2"), t, np.column_stack([np.ones(11), t]))
        res = rate_relation_residual(u, c)
        assert np.abs(res).max() <= 1e-12

    def test_one_hessian_per_interior_sample(self, monkeypatch):
        # the (q_i, t) column comes from the same Hessian as the q block (was 1 + n calls)
        calls = []
        hessian = ScalarField.hessian
        monkeypatch.setattr(ScalarField, "hessian",
                            lambda f, b, wrt=None: calls.append(wrt) or hessian(f, b, wrt))
        # on (t, t^2), p1 = 3t^2 and p2 = t: central differences are exact, and
        # dp1/dt = 6t needs the U_{,q1 t} = 2t column
        u = ScalarField.from_text("q1^2*t + q1*q2", ("q1", "q2", "t"))
        res = rate_relation_residual(u, self.parabola_curve(0.1))
        assert calls == [("q1", "q2", "t")] * len(res)
        assert np.abs(res).max() <= 1e-12

    def test_coordinate_mismatch(self):
        u = ScalarField.from_text("a*b", ("a", "b"))
        with pytest.raises(ProcessError):
            rate_relation_residual(u, self.parabola_curve(0.1))

    @pytest.mark.parametrize("text, q1, times, message", [
        ("1e300*q1^0.5", [1e-300, 2e-300, 3e-300], [0.0, 1.0, 2.0],
         r"^non-finite dU/dq1 in '1e\+300\*q1\^0\.5' \(value inf\)$"),
        ("1e300*q1^2", [0.1, 0.2, 0.3], [0.0, 1e-300, 2e-300],
         r"^non-finite rate-relation residual nan at curve sample 1$"),
    ], ids=["gradient", "residual"])
    def test_non_finite_is_domain_error(self, text, q1, times, message):
        # a RuntimeWarning and a NaN residual
        u = ScalarField.from_text(text, ("q1",))
        curve = ProcessCurve(("q1",), np.array(times), np.array(q1)[:, None])
        with pytest.raises(DomainError, match=message):
            rate_relation_residual(u, curve)
