"""The one constitutive law and forcing behind both point models."""
import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_polynomial_text
from test_cli import _fuzz_expression
from thermoform import expr
from thermoform import ferroelectric as fe
from thermoform import point
from thermoform import thermoelastic as te
from thermoform.config import time_fn
from thermoform.expr import DomainError, ScalarField, evaluate_all
from thermoform.point import Constitutive, Forcing, ModelError


def law(coords, **params):
    return Constitutive(ScalarField.from_text("ln(eps) - 0.15*H1^2", coords),
                        **{"rho": 1.0, "k": 1.0, **params})


def te_state():
    return te.ThermoelasticState(eps=0.5, F=np.eye(3), H=np.array([0.3, 0.0, 0.0]))


def fe_state():
    return fe.FerroelectricState(eps=0.5, F=np.eye(3), H=np.array([0.3, 0.0, 0.0]),
                                 pi=np.zeros(3), grad_pi=np.zeros((3, 3)), u=np.zeros(3),
                                 grad_u=np.zeros((3, 3)))


def test_model_names_alias_the_point_types():
    assert te.ThermoelasticConstitutive is fe.FerroelectricConstitutive is Constitutive
    assert te.ThermoelasticForcing is fe.FerroelectricForcing is Forcing


STATES = pytest.mark.parametrize("cls, size", [(te.ThermoelasticState, 13), (fe.FerroelectricState, 37)],
                                 ids=["13", "37"])


@STATES
def test_state_blocks_are_the_fields_after_eps_and_tile_the_vector(cls, size, rng):
    # _BLOCKS is the one list of a state's blocks: a class constant, not a dataclass field
    names = [f.name for f in dataclasses.fields(cls)]
    assert names[0] == "eps" and [name for name, _, _ in cls._BLOCKS] == names[1:]
    y = rng.standard_normal(size)
    y[1:10] = np.eye(3).ravel() + 0.1 * y[1:10]  # det F > 0
    x, stop = cls.from_vector(y), 1
    for name, shape, block in cls._BLOCKS:
        assert (block.start, block.step) == (stop, None)
        assert math.prod(shape) == block.stop - block.start
        assert getattr(x, name).shape == shape and getattr(x, name).tobytes() == y[block].tobytes()
        stop = block.stop
    assert stop == size and x.vector().tobytes() == y.tobytes()


@STATES
def test_state_channels_are_forcing_fields_at_their_default_shapes(cls, size):
    # _CHANNELS is the one list of the channels a model's rates read, in read order
    defaults = {f.name: f.default for f in dataclasses.fields(Forcing)}
    for name, shape in cls._CHANNELS:
        assert np.shape(defaults[name](0.0)) == shape, name
    assert cls._COORDS == (point.BASE_COORDS if size == 13 else point.FE_COORDS)


def test_the_thermoelastic_tables_are_prefixes_of_the_ferroelectric_ones():
    te_cls, fe_cls = te.ThermoelasticState, fe.FerroelectricState
    assert fe_cls._BLOCKS[:len(te_cls._BLOCKS)] == te_cls._BLOCKS
    assert fe_cls._CHANNELS[:len(te_cls._CHANNELS)] == te_cls._CHANNELS
    assert {name for name, _ in fe_cls._CHANNELS} == {f.name for f in dataclasses.fields(Forcing)}


def test_a_state_reshapes_its_blocks_in_state_order():
    # F is reshaped before pi, so numpy's error names F's size when both are wrong
    with pytest.raises(ValueError, match=r"^cannot reshape array of size 4 into shape \(3,3\)$"):
        fe.FerroelectricState(eps=0.5, F=np.ones(4), H=np.zeros(3), pi=np.zeros(2),
                              grad_pi=np.zeros((3, 3)), u=np.zeros(3), grad_u=np.zeros((3, 3)))


@pytest.mark.parametrize("coords", [point.BASE_COORDS, point.FE_COORDS], ids=["13", "25"])
@pytest.mark.parametrize("params", [{"rho": 0.0}, {"k": -1.0}, {"inertia": 0.0}],
                         ids=["rho", "k", "inertia"])
def test_parameters_are_checked_for_both_models(coords, params):
    with pytest.raises(ModelError, match="rho, k must be positive and inertia nonzero"):
        law(coords, **params)


@pytest.mark.parametrize("coords", [point.BASE_COORDS, point.FE_COORDS], ids=["13", "25"])
@pytest.mark.parametrize("params", [{"rho": np.nan}, {"k": np.nan}, {"rho": np.inf}, {"k": np.inf},
                                    {"inertia": np.nan}, {"inertia": np.inf}, {"inertia": -np.inf}])
def test_parameters_must_be_finite(coords, params):
    # nan <= 0 is False: such a law was built, and its run failed later or, with inertia nan, stepped
    with pytest.raises(ModelError, match=r"^rho, k and inertia must be finite: "):
        law(coords, **params)


def test_potential_must_be_over_a_model_coordinate_list():
    with pytest.raises(ModelError, match="13 or the 25 base coordinates"):
        law(point.BASE_COORDS + ("t",))


def test_forcing_channels_default_to_zero():
    f = Forcing()
    for name, shape in [("E_ext", (3,)), ("L", (3, 3)), ("divq", ()), ("poynting_term", ()),
                        ("div_e_tensor", (3,)), ("div_J_grad_u", (3, 3)),
                        ("source_grad_u", (3, 3))]:
        value = getattr(f, name)(0.7)
        assert np.shape(value) == shape and not np.any(value)
    # the two models listed their channels in different orders, so none is positional
    with pytest.raises(TypeError):
        Forcing(lambda t: np.eye(3))


@pytest.mark.parametrize("coords, state", [(point.BASE_COORDS, fe_state),
                                           (point.FE_COORDS, te_state)],
                         ids=["13-law-37-state", "25-law-13-state"])
def test_a_state_of_the_other_model_is_a_model_error(coords, state):
    # the 13-coordinate law with a ferroelectric state used to end in a numpy broadcast ValueError
    c, x = law(coords), state()
    with pytest.raises(ModelError, match="different point models"):
        point.rk4_step(x, c, Forcing(), 0.0, 0.01)
    with pytest.raises(ModelError, match="different point models"):
        point.rhs(x.vector(), c, Forcing(), 0.0)
    with pytest.raises(ModelError, match="different point models"):
        point.constitutive_from_potential(c, x)


def test_thermoelastic_functions_reject_a_ferroelectric_law():
    c = law(point.FE_COORDS)
    with pytest.raises(ModelError, match="13 base coordinates"):
        te.potential_coefficients(c)
    with pytest.raises(ModelError, match="13 base coordinates"):
        te.constitutive_from_potential(c, fe_state())


# --- the RK4 step in floats, against the numpy step it replaced ---

def oracle_rhs(y, c, f, t):
    """The numpy right-hand side that the float rates replaced, kept as the oracle:
    BLAS products for L F and LE . u, numpy sums for the double contractions."""
    b = dict(zip(point._POTENTIAL_NAMES, y.tolist()))
    if len(b) != len(c.potential.coords):
        raise ModelError("the state and the constitutive law are of different point models")
    g = c.potential.finite_grad(b, point._DU_LABELS, point._POTENTIAL_NAMES[:len(b)])
    if float(g[0]) == 0.0:
        raise point.TemperatureSingularity("dU/d(eps) = 0 at the probe state")
    theta = 1.0 / float(g[0])
    stress_term = -c.rho * theta * g[1:10].reshape(3, 3)
    L = np.asarray(f.L(t), dtype=float).reshape(3, 3)
    F_dot = L @ y[1:10].reshape(3, 3)
    H_dot = (c.rho / c.k) * g[10:13]
    power = float((stress_term * F_dot).sum()) / c.rho
    if len(g) == 13:
        return np.concatenate(([power - f.divq(t) / c.rho], F_dot.ravel(), H_dot))
    e_loc, e_tensor = theta * g[13:16], -c.rho * theta * g[16:25].reshape(3, 3)
    u, grad_u = y[25:28], y[28:37]
    eps_dot = (power - float(e_loc @ u) + float((e_tensor * grad_u.reshape(3, 3)).sum()) / c.rho
               - f.divq(t) / c.rho + f.poynting_term(t))
    u_dot = (np.asarray(f.E_ext(t), dtype=float).reshape(3) + e_loc
             + np.asarray(f.div_e_tensor(t), dtype=float).reshape(3) / c.rho) / c.inertia
    grad_u_dot = (np.asarray(f.div_J_grad_u(t), dtype=float).reshape(3, 3)
                  + np.asarray(f.source_grad_u(t), dtype=float).reshape(3, 3))
    return np.concatenate(([eps_dot], F_dot.ravel(), H_dot, u, grad_u, u_dot, grad_u_dot.ravel()))


def oracle_step(x, c, f, t, dt):
    """The numpy RK4 step: the forcing read at every stage, rates checked as before."""
    if dt <= 0:
        raise ModelError("dt must be positive")

    def stage(n, y, s):
        k = oracle_rhs(y, c, f, s)
        if not np.isfinite(k).all():
            i = int(np.argmin(np.isfinite(k)))
            raise ModelError(f"non-finite d{point.STATE_NAMES[i]}/dt in RK stage {n} at t={s!r} "
                             f"(value {k[i].item()!r})")
        return k

    y = x.vector()
    with np.errstate(all="ignore"):
        k1 = stage(1, y, t)
        k2 = stage(2, y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = stage(3, y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = stage(4, y + dt * k3, t + dt)
        return type(x).from_vector(y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


_SHAPES = {"E_ext": (3,), "L": (3, 3), "divq": (), "poynting_term": (), "div_e_tensor": (3,),
           "div_J_grad_u": (3, 3), "source_grad_u": (3, 3)}
# Every entry of L F is one product or none under the first three: a BLAS kernel, fused
# multiply-add or not, then rounds it as the float sum does.
_L_MASKS = {"zero": np.zeros((3, 3)), "diagonal": np.eye(3), "superdiagonal": np.eye(3, k=1),
            "general": np.ones((3, 3))}


def linear_forcing(rng, mask):
    """Each channel a + b t, numpy-valued like config.time_fn's; L entries kept where ``mask`` is 1."""
    def channel(name):
        a, b = (rng.uniform(-1.0, 1.0, _SHAPES[name]) for _ in range(2))
        if name == "L":
            a, b = a * mask, b * mask
        if not _SHAPES[name]:
            return lambda t: float(a + b * t)
        return lambda t: a + b * t
    return Forcing(**{name: channel(name) for name in _SHAPES})


def random_point(rng, electric, single_u):
    """A random polynomial law with ln(eps), and a state with det F > 0; with ``single_u``
    only u1 is nonzero, so that LE . u is one product too."""
    coords = point.FE_COORDS if electric else point.BASE_COORDS
    text = random_polynomial_text(coords, rng, terms=10, degree=3, offset="ln(eps)")
    c = Constitutive(ScalarField.from_text(text, coords), rho=rng.uniform(0.5, 2.0),
                     k=rng.uniform(0.5, 2.0), inertia=rng.uniform(0.5, 2.0))
    y = rng.uniform(-0.5, 0.5, 37 if electric else 13)
    y[0] = rng.uniform(0.3, 1.5)
    y[1:10] = (np.eye(3) + 0.2 * rng.uniform(-1.0, 1.0, (3, 3))).ravel()
    if single_u:
        y[26:28] = 0.0
    return c, y


def outcome(fn, *args):
    """fn's state vector or rates, or its error."""
    try:
        value = fn(*args)
    except Exception as exc:
        return exc
    return value.vector() if hasattr(value, "vector") else value


@given(seed=st.integers(0, 2 ** 32 - 1), electric=st.booleans(), mask=st.sampled_from(sorted(_L_MASKS)),
       t=st.floats(0.0, 2.0), dt=st.sampled_from([1e-3, 0.01, 0.05, 0.2]))
@settings(max_examples=80, deadline=None)
def test_float_step_matches_the_numpy_step(seed, electric, mask, t, dt):
    rng = np.random.default_rng(seed)
    exact = mask != "general"
    c, y = random_point(rng, electric, single_u=exact)
    f = linear_forcing(rng, _L_MASKS[mask])
    x = (point.FerroelectricState if electric else point.ThermoelasticState).from_vector(y)
    # after stage 1, u moves off u1 and LE . u sums three products: a ferroelectric step is not exact
    for new, old, exact in ((outcome(point.rhs, y, c, f, t), outcome(oracle_rhs, y, c, f, t), exact),
                            (outcome(point.rk4_step, x, c, f, t, dt), outcome(oracle_step, x, c, f, t, dt),
                             exact and not electric)):
        if isinstance(old, Exception) or isinstance(new, Exception):
            assert type(new) is type(old)
            if exact:  # the same message too; elsewhere the value it quotes may move by an ulp
                assert str(new) == str(old)
        elif exact:  # bitwise, but for the sign of a zero: BLAS sums onto +0.0
            assert (new + 0.0).tobytes() == (old + 0.0).tobytes()
        else:  # a sum of products the kernel rounds its own way, which cancellation magnifies
            assert np.allclose(new, old, rtol=0.0, atol=64 * np.finfo(float).eps * np.abs(old).max())


def counting_forcing(calls):
    """Zero forcing that records (channel, t) for every read."""
    def channel(name):
        def read(t):
            calls.append((name, t))
            return np.zeros(_SHAPES[name]) if _SHAPES[name] else 0.0
        return read
    return Forcing(**{name: channel(name) for name in _SHAPES})


@pytest.mark.parametrize("coords, state", [(point.BASE_COORDS, te_state), (point.FE_COORDS, fe_state)],
                         ids=["thermoelastic", "ferroelectric"])
def test_each_channel_is_read_once_per_distinct_t(coords, state):
    calls = []
    t, dt = 0.3, 0.1
    point.rk4_step(state(), law(coords), counting_forcing(calls), t, dt)
    read = ["L", "divq"] if coords == point.BASE_COORDS else [
        "L", "divq", "poynting_term", "E_ext", "div_e_tensor", "div_J_grad_u", "source_grad_u"]
    # stages 2 and 3 share t + dt/2, the same float
    assert calls == [(name, s) for s in (t, t + 0.5 * dt, t + dt) for name in read]


def failing_forcing():
    def fail(t):
        raise RuntimeError("forcing read")
    return Forcing(L=fail, divq=fail, E_ext=fail)


@pytest.mark.parametrize("coords, state, text, error, message", [
    (point.BASE_COORDS, fe_state, "ln(eps)", ModelError, "different point models"),
    (point.BASE_COORDS, lambda: te.ThermoelasticState(eps=0.5, F=np.eye(3), H=np.array([1e-300, 0.0, 0.0])),
     "ln(eps) - 1e300*H1^0.5", DomainError, "non-finite dU/dH1"),
    (point.BASE_COORDS, te_state, "H1^2 + 0*eps", point.TemperatureSingularity, r"dU/d\(eps\) = 0"),
    (point.FE_COORDS, fe_state, "ln(eps) + ln(pi1)", DomainError, "logarithm of a non-positive value"),
], ids=["model", "non-finite", "temperature", "domain"])
def test_the_gradient_error_wins_over_a_failing_forcing(coords, state, text, error, message):
    c = Constitutive(ScalarField.from_text(text, coords), rho=1.0, k=1.0)
    x = state()
    for run in (lambda: point.rk4_step(x, c, failing_forcing(), 0.0, 0.01),
                lambda: point.rhs(x.vector(), c, failing_forcing(), 0.0),
                lambda: oracle_step(x, c, failing_forcing(), 0.0, 0.01)):
        with pytest.raises(error, match=message):
            run()


def test_a_failing_forcing_read_is_raised_as_it_is():
    with pytest.raises(RuntimeError, match="forcing read"):
        point.rk4_step(te_state(), law(point.BASE_COORDS), failing_forcing(), 0.0, 0.01)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_dt_must_be_positive_before_anything_is_read(dt):
    # a nan or inf dt used to surface as a non-finite dU in the potential
    calls = []
    with pytest.raises(ModelError, match=rf"^dt must be positive and finite, got {dt!r}$"):
        point.rk4_step(te_state(), law(point.BASE_COORDS), counting_forcing(calls), 0.0, dt)
    assert calls == []


def test_a_forcing_whose_numpy_arithmetic_overflows_names_the_stage():
    # the overflow warning is silenced; the infinite L shows as stage 1's non-finite rate
    f = Forcing(L=lambda t: np.full((3, 3), 1e300) * 1e10)
    with pytest.raises(ModelError, match=r"non-finite deps/dt in RK stage 1 at t=0.0 \(value nan\)"):
        point.rk4_step(te_state(), law(point.BASE_COORDS), f, 0.0, 0.01)


@pytest.mark.parametrize("forcing, rho", [
    (lambda: Forcing(L=lambda t: np.full((3, 3), 1e300) * 1e10), 1.0),
    (lambda: Forcing(divq=lambda t: np.float64(1e308)), 1e-10),  # a numpy scalar is read as a float
], ids=["numpy overflow", "numpy scalar"])
def test_rhs_returns_a_forcings_non_finite_rates_without_a_warning(forcing, rho):
    # rhs warned here (RuntimeWarnings are errors in this suite); rk4_step already did not
    rates = point.rhs(te_state().vector(), law(point.BASE_COORDS, rho=rho), forcing(), 0.0)
    assert not math.isfinite(rates[0])


def test_an_overflowing_temperature_is_a_temperature_singularity():
    # 1/dU/d(eps) was inf: constitutive_from_potential returned it, and a step named a NaN rate
    c = Constitutive(ScalarField.from_text("1e-310*eps - 0.1*H1^2", point.BASE_COORDS), rho=1.0, k=1.0)
    x = te_state()
    for run in (lambda: point.constitutive_from_potential(c, x), lambda: point.rhs(x.vector(), c, Forcing(), 0.0),
                lambda: point.rk4_step(x, c, Forcing(), 0.0, 0.01)):
        with pytest.raises(point.TemperatureSingularity,
                           match=r"^dU/d\(eps\) = 1e-310 at the probe state: theta = 1/dU/d\(eps\) overflows$"):
            run()


def test_orientation_is_checked_by_the_sign_of_det_F():
    rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert te.ThermoelasticState(eps=0.5, F=rotation, H=np.zeros(3)).F.tolist() == rotation.tolist()
    for F in (-np.eye(3), np.diag([1.0, 1.0, 0.0]), rotation[[1, 0, 2]], np.full((3, 3), np.nan)):
        with pytest.raises(ModelError, match="positive determinant"):
            te.ThermoelasticState(eps=0.5, F=F, H=np.zeros(3))


def test_finite_rates_whose_weighted_sum_overflows_name_the_state_entry():
    # deps/dt = -divq/rho = 1.5e308 at every stage, and k1 + 2k2 + 2k3 + k4 overflows: the step returned
    # eps = inf, and the next one named a symptom, dU/d(eps) = 0 at the probe state
    f = Forcing(divq=lambda t: -1.5e308)
    with pytest.raises(ModelError, match=r"^non-finite eps after the RK4 step to t=0.25 \(value inf\)$"):
        point.rk4_step(te_state(), law(point.BASE_COORDS), f, 0.0, 0.25)


# --- the forcing read: one joint tape against the per-channel loop it replaced ---

def loop_forcing_read(f, channels, t):
    """The per-channel read that the joint tape replaced, kept as the reference."""
    return [point._entries(getattr(f, name)(t), shape) for name, shape in channels]


def closure_time_fn(tape, shape):
    """A channel as config.time_fn built it before TimeFunction: a closure over its own tape."""
    if tape is None:
        return (lambda t: np.zeros(shape)) if shape else (lambda t: 0.0)
    if not shape:
        return lambda t: evaluate_all(tape, {"t": t})[0]
    return lambda t: np.array(evaluate_all(tape, {"t": t})).reshape(shape)


_NOT_T = re.compile(r"\bw\b")  # the fuzz terms' unresolved name
_OTHER_SHAPE = {(): (3,), (3,): (3, 3), (3, 3): (3,)}


_KINDS = ("zero", "zero", "text", "text", "text", "text", "text", "call", "raise", "other shape")
_PLAIN = ("0", "0.5*t", "t^2-1", "-0.0", "sqrt(t*t)")  # finite at every t


def forcing_case(rng, pool):
    """A channel list, per channel its kind and, for a time function, its entry texts (each
    from ``pool`` one time in four, else a plain one), and 1-3 times."""
    channels = (te.ThermoelasticState, fe.FerroelectricState)[rng.integers(2)]._CHANNELS
    fuzz = rng.choice(pool, size=rng.integers(1, 3)).tolist()
    spec = []
    for name, shape in channels:
        kind, entries = _KINDS[rng.integers(len(_KINDS))], None
        if kind in ("text", "other shape"):
            size = _OTHER_SHAPE[shape] if kind == "other shape" else shape
            entries = np.where(rng.random(size) < 0.25, rng.choice(fuzz, size), rng.choice(_PLAIN, size)).tolist()
        spec.append((name, kind, entries))
    ts = [float(rng.choice([0.0, 0.25, 0.5, 1.0, -0.5, 3.0])) if rng.integers(2) else rng.uniform(-2.0, 4.0)
          for _ in range(rng.integers(1, 4))]
    return channels, spec, ts


def case_forcings(channels, spec, calls):
    """The case as a Forcing of TimeFunctions and as one of closures; user callables shared."""
    def user(name, shape, fails):
        def read(t):
            calls.append((name, t))
            if fails:
                raise RuntimeError(f"{name} read at {t!r}")
            return np.arange(math.prod(shape), dtype=float).reshape(shape) * t + 0.5 if shape else 0.5 * t
        return read

    new, old = {}, {}
    for (name, shape), (_, kind, texts) in zip(channels, spec):
        if kind in ("call", "raise"):
            new[name] = old[name] = user(name, shape, kind == "raise")
        else:
            shape = _OTHER_SHAPE[shape] if kind == "other shape" else shape
            new[name] = time_fn(texts, f"config.forcing.{name}", shape)
            old[name] = closure_time_fn(new[name].tape, shape)
    return Forcing(**new), Forcing(**old)


def read_outcome(read, f, channels, t, calls):
    """(each channel's floats by hex, or the error's type and message; the callables called)."""
    calls.clear()
    try:
        values = read(f, channels, t)
    except Exception as exc:
        return (type(exc), str(exc)), list(calls)
    return [[v.hex() for v in e] if isinstance(e, list) else e.hex() if type(e) is float else repr(e)
            for e in values], list(calls)


@given(pool=st.lists(_fuzz_expression(["t"]).filter(lambda s: not _NOT_T.search(s)), min_size=8, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_the_joint_read_is_the_per_channel_loop(pool, seed):
    # 10 cases an example, 1,000 in all; the fuzz texts bring poles at t, logs of negatives
    # and overflow, and some user callables raise
    rng = np.random.default_rng(seed)
    for _ in range(10):
        channels, spec, ts = forcing_case(rng, pool)
        calls = []
        new, old = case_forcings(channels, spec, calls)
        for t in ts:
            assert (read_outcome(lambda f, c, s: f._read(c, s), new, channels, t, calls)
                    == read_outcome(loop_forcing_read, old, channels, t, calls))


def test_a_forcing_lowers_its_time_functions_once_per_channel_list():
    f = Forcing(L=time_fn([["t", "0", "0"], ["0", "2*t", "0"], ["0", "0", "1"]], "config.forcing.L", (3, 3)),
                divq=time_fn("0.5*t", "config.forcing.divq", ()), E_ext=lambda t: np.ones(3))
    channels = te.ThermoelasticState._CHANNELS
    assert f._read(channels, 2.0) == [[2.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 1.0], 1.0]
    tape, _ = f._joints[channels]
    assert len(tape.roots) == 10  # L and divq; E_ext is a callable and is not read here
    assert f._read(channels, 3.0)[1] == 1.5 and f._joints[channels][0] is tape
    fe_read = f._read(fe.FerroelectricState._CHANNELS, 1.0)
    assert fe_read[3] == [1.0, 1.0, 1.0] and fe_read[2] == 0.0 and fe_read[-1] == [0.0] * 9
    assert set(f._joints) == {channels, fe.FerroelectricState._CHANNELS}


def test_a_failing_read_lowers_no_one_entry_tape():
    # the joint sweep's error used to be worded by re-running each entry through evaluate,
    # which lowered a one-entry tape for each; only the channels' own tapes run now
    f = Forcing(L=time_fn([["t", "0", "0"], ["0", "ln(t)", "0"], ["0", "0", "1/(t-1)"]], "config.forcing.L", (3, 3)),
                divq=time_fn("sqrt(t)", "config.forcing.divq", ()))
    channels, calls = fe.FerroelectricState._CHANNELS, []
    assert f._read(channels, 2.0)[1] == math.sqrt(2.0) and f._read(channels, 0.5)[1] == math.sqrt(0.5)
    for t, message in ((1.0, r"division by zero in '1/\(t-1\)' \(value 0\.0\)"),
                       (-1.0, r"logarithm of a non-positive value in 'ln\(t\)' \(value -1\.0\)")):
        with mock.patch.object(expr, "_lower", wraps=expr._lower) as lowering:
            outcome = read_outcome(lambda g, c, s: g._read(c, s), f, channels, t, calls)
        assert lowering.call_count == 0
        assert outcome == read_outcome(loop_forcing_read, f, channels, t, calls)
        assert outcome[0][0] is DomainError and re.fullmatch(message, outcome[0][1])


def _fe_time_functions(**texts):
    """Every ferroelectric channel but those in ``texts`` as a config.time_fn of a few entries in t."""
    entries = {"L": [["t", "0", "1"], ["0", "2*t", "0"], ["t^2", "0", "-t"]], "divq": "0.5*t",
               "poynting_term": None, "E_ext": ["t", "1", "-t"], "div_e_tensor": ["t", "-t", "1/(t+2)"],
               "div_J_grad_u": None, "source_grad_u": [["sqrt(t+1)", "0", "t"]] * 3, **texts}
    return {name: time_fn(entries[name], f"config.forcing.{name}", shape)
            for name, shape in fe.FerroelectricState._CHANNELS if entries[name] != "callable"}


@pytest.mark.parametrize("t, message", [
    (0.0, r"logarithm of a non-positive value in 'ln\(t\)' \(value 0\.0\)"),  # L's entry and divq's both fail
    (1.0, r"division by zero in '1/\(t\*\(t-1\)\)' \(value 0\.0\)"),
    (-1.0, r"logarithm of a non-positive value in 'ln\(t\)' \(value -1\.0\)"),
])
def test_a_faulting_sweep_calls_no_time_function(t, message):
    # the joint sweep's error is the first failing channel's own, so no channel is called to word it
    f = Forcing(**_fe_time_functions(L=[["t", "0", "0"], ["0", "ln(t)", "0"], ["0", "0", "1"]],
                                     divq="1/(t*(t-1))"))
    channels, calls = fe.FerroelectricState._CHANNELS, []
    assert f._read(channels, 2.0)[1] == 0.5  # the joint tape is built
    with mock.patch.object(point.TimeFunction, "__call__") as called:
        outcome = read_outcome(lambda g, c, s: g._read(c, s), f, channels, t, calls)
    assert called.call_count == 0
    assert outcome == read_outcome(loop_forcing_read, f, channels, t, calls)
    assert outcome[0][0] is DomainError and re.fullmatch(message, outcome[0][1])


def test_a_mixed_forcing_calls_each_channel_once_per_read_in_order():
    # one user callable among time functions: every channel is called, none read from a joint sweep
    calls = []

    def e_ext(t):
        calls.append(("E_ext", t))
        return np.array([t, 1.0, -t])

    fns = _fe_time_functions(E_ext="callable")
    names, call = {id(fn): name for name, fn in fns.items()}, point.TimeFunction.__call__

    def recording(fn, t):
        calls.append((names[id(fn)], t))
        return call(fn, t)

    f, channels = Forcing(E_ext=e_ext, **fns), fe.FerroelectricState._CHANNELS
    with mock.patch.object(point.TimeFunction, "__call__", recording):
        for t in (0.0, 0.5, -0.75):
            values, called = read_outcome(lambda g, c, s: g._read(c, s), f, channels, t, calls)
            assert called == [(name, t) for name, _ in channels]
            assert (values, called) == read_outcome(loop_forcing_read, f, channels, t, calls)
            # read_outcome gives a float as its hex and anything else as its repr
            assert all(v.startswith(("0x", "-0x")) for e in values for v in (e if isinstance(e, list) else [e]))
