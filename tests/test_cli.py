import argparse
import ast
import contextlib
import importlib
import inspect
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from thermoform import cli, point
from thermoform.expr import ScalarField
from thermoform.cli import (_FORCING_KEYS, _MODELS, EXIT_DOMAIN, EXIT_ERROR, EXIT_NOT_CLOSED, EXIT_OK,
                            build_parser, main)
from thermoform.point import _rk4


def write(path, text):
    path.write_text(text)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def read_csv(path):
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return header, np.array(rows)


class TestCheckClosed:
    def test_potential_form_closed(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
coords: [x, y]
potential: "x^2*y + y^3"
box: {x: [0.5, 1.5], y: [0.5, 1.5]}
count: 16
""")
        code, doc = run_json(capsys, ["check-closed", "--config", config])
        assert code == EXIT_OK
        assert doc["closed"] is True
        assert doc["max_residual"] <= 1e-8

    def test_rotation_form_not_closed(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
coords: [x, y]
coefficients: {x: "y", y: "-x"}
box: {x: [0.0, 1.0], y: [0.0, 1.0]}
count: 8
""")
        code, doc = run_json(capsys, ["check-closed", "--config", config])
        assert code == EXIT_NOT_CLOSED
        assert doc["closed"] is False
        assert doc["max_residual"] == pytest.approx(2.0)
        assert set(doc["worst_pair"]) == {"x", "y"}

    def test_deep_potential_is_closed(self, tmp_path, capsys):
        # differentiating this 3000-deep sum raised RecursionError, a traceback
        terms = " + ".join(f"{k}*x*y" for k in range(1, 3001))
        config = write(tmp_path / "c.yaml", f"""
coords: [x, y]
potential: "{terms}"
box: {{x: [0.5, 1.5], y: [0.5, 1.5]}}
count: 4
""")
        code, doc = run_json(capsys, ["check-closed", "--config", config])
        assert code == EXIT_OK
        assert doc["closed"] is True

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
coords: [x, y]
potential: "x*y"
box: {x: [0.0, 1.0], y: [0.0, 1.0]}
bogus: 1
""")
        assert main(["check-closed", "--config", config]) == EXIT_ERROR

    def test_missing_config_file(self):
        assert main(["check-closed", "--config", "/nonexistent.yaml"]) == EXIT_ERROR

    @pytest.mark.parametrize("count", ["0", "-3", "2.5", "true", "'8'"])
    def test_count_must_be_a_positive_integer(self, tmp_path, capsys, count):
        # a verdict over no samples would be vacuous
        config = write(tmp_path / "c.yaml", f"""
coords: [x, y]
coefficients: {{x: "y", y: "-x"}}
box: {{x: [0.0, 1.0], y: [0.0, 1.0]}}
count: {count}
""")
        assert main(["check-closed", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config.count" in captured.err

    def test_negative_seed_exits_1(self, tmp_path):
        # the Halton points never came: a child process, so that a hang fails at the timeout
        config = write(tmp_path / "c.yaml", 'coords: [x]\npotential: "x"\nbox: {x: [0.0, 1.0]}\n')
        proc = subprocess.run(
            [sys.executable, "-m", "thermoform.cli", "check-closed", "--config", config, "--seed=-1"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src")))
        assert (proc.returncode, proc.stdout) == (EXIT_ERROR, "")
        assert proc.stderr == "error: the sample seed must be >= 0, got -1\n"

    def test_count_beyond_the_sample_limit(self, tmp_path, capsys):
        # numpy could not size 10^30 points: a ValueError traceback
        config = write(tmp_path / "c.yaml", """
coords: [x]
potential: "x"
box: {x: [0.0, 1.0]}
count: 1000000000000000000000000000000
""")
        assert main(["check-closed", "--config", config]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: config.count: at most 1000000 sample points, got 1000000000000000000000000000000\n")


# --- check-closed under generated configs: poles, ln, overflow, bad boxes and counts ---

_FUZZ_NAMES = ("x", "y", "z")
# {a} and {b} stand for coordinates; "w" is never one
_FUZZ_TERMS = ("{a}", "{a}*{b}", "1/({a}-0.5)", "1/{b}", "ln({a})", "ln({b}-0.25)", "sqrt({a})",
               "{a}*1e308*10", "exp({b}*800)", "1e200*{a}*{b}", "{a}^-1", "{a}^0.5", "pow({a}, {b})",
               "abs({a}-0.5)", "{a}^({b}-{b})", "1e308*10-1e308*10", "2.5", "0", "w")
_FUZZ_FAULTS = st.sampled_from([float("nan"), float("inf"), -1.7e308, 1.7e308, 1e300, "a", None, True])


@st.composite
def _fuzz_expression(draw, names):
    def term():
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        return draw(st.sampled_from(_FUZZ_TERMS)).format(a=a, b=b)
    text = term()
    for _ in range(draw(st.integers(0, 2))):
        text += f"{draw(st.sampled_from('+-*/'))}({term()})"
    return text


def _mostly(draw, good, bad, odds: int = 6):
    """good, or one time in ``odds`` bad."""
    return draw(bad) if not draw(st.integers(0, odds - 1)) else draw(good)


@st.composite
def _check_closed_doc(draw):
    """Mostly well-formed configs whose forms may have poles, ln of negatives or
    overflow; now and then a malformed section, box or count."""
    coords = _mostly(draw, st.lists(st.sampled_from(_FUZZ_NAMES), min_size=1, max_size=3, unique=True),
                     st.sampled_from([[], ["x", "x"], "x", [1], None]), odds=12)
    names = [c for c in coords if isinstance(c, str)] if isinstance(coords, list) else []
    names = names or ["x"]
    doc = {"coords": coords}
    kind = _mostly(draw, st.sampled_from(["potential", "coefficients"]), st.sampled_from(["both", "neither"]),
                   odds=12)
    if kind in ("potential", "both"):
        doc["potential"] = draw(_fuzz_expression(names))
    if kind in ("coefficients", "both"):
        keys = _mostly(draw, st.just(names), st.lists(st.sampled_from(_FUZZ_NAMES), unique=True), odds=12)
        doc["coefficients"] = {k: _mostly(draw, _fuzz_expression(names), st.just(3), odds=20) for k in keys}
    bound = st.floats(-2.0, 2.0, allow_subnormal=False)
    interval = st.tuples(bound, bound).filter(lambda p: p[0] != p[1]).map(sorted)
    bad_interval = st.one_of(st.tuples(bound, _FUZZ_FAULTS).map(list), st.lists(bound, max_size=3),
                             st.tuples(bound, bound).map(lambda p: sorted(p, reverse=True)))
    doc["box"] = _mostly(draw, st.just(None), st.sampled_from([5, None, []]), odds=20) or {
        k: _mostly(draw, interval, bad_interval, odds=10) for k in names}
    count = _mostly(draw, st.one_of(st.none(), st.integers(1, 12)),
                    st.sampled_from([0, -2, 2.5, True, "8", None, 10 ** 30]))
    if count is not None:
        doc["count"] = count
    if not draw(st.integers(0, 4)):
        doc["tol"] = _mostly(draw, st.floats(0.0, 1.0), _FUZZ_FAULTS)
    if not draw(st.integers(0, 19)):
        doc["bogus"] = 1
    return doc


@given(doc=_check_closed_doc(), seed=st.integers(0, 5))
# the partial 1e308*10 was folded to an inf literal, which the error message could not print
@example(doc={"coords": ["x"], "potential": "x+(x*1e308*10)/(x)", "box": {"x": [0.0, 1.7e308]}}, seed=0)
@settings(max_examples=200, deadline=None)
def test_check_closed_fuzz_ends_in_an_exit_code(doc, seed):
    """A result or a documented exit code, never a traceback, with RuntimeWarnings as errors."""
    code, out, err = _run_cli(["check-closed", "--seed", str(seed)], doc)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_NOT_CLOSED, EXIT_DOMAIN)
    assert "Traceback" not in err
    if code in (EXIT_OK, EXIT_NOT_CLOSED):
        assert err == ""
        assert json.loads(out)["closed"] is (code == EXIT_OK)
    else:
        assert out == "" and err.startswith("error: ")


def _run_cli(argv, doc=None):
    """(exit code, stdout, stderr) of main(argv), with ``doc`` as the YAML at --config,
    argparse's SystemExit taken as the exit code and RuntimeWarnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        if doc is not None:
            path = os.path.join(directory, "c.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(doc, fh)
            argv = [*argv, "--config", path]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_exit_code(code, out, err):
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_NOT_CLOSED, EXIT_DOMAIN)
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert err == "" and out != ""
    else:
        assert out == "" and "error: " in err


_BAD_COUNTS = [10 ** 6 + 1, 10 ** 30, 0, -3, 2.5, True, "8", None]
_BAD_BOUNDS = [float("nan"), float("inf"), -float("inf"), "a", None, [1.0]]


@st.composite
def _surface_doc(draw):
    """Mostly well-formed surface configs, counts in cap kept small so a case takes
    milliseconds; now and then a count over the cap, a bad bound, a wrong type, a
    missing or an unknown key."""
    names = draw(st.lists(st.sampled_from(("q1", "q2", "q3")), min_size=1, max_size=3, unique=True))
    doc = {"coords": _mostly(draw, st.just(names), st.sampled_from([[], ["q1", "q1"], "q1", [1], ["s"]]),
                             odds=12),
           "potential": _mostly(draw, _fuzz_expression(names), st.sampled_from([3, None, "q1+", "w"]),
                                odds=12)}
    if draw(st.booleans()):
        doc["sigma"] = _mostly(draw, _fuzz_expression(names), st.sampled_from([3, "q1+"]), odds=12)
    bound = st.floats(-2.0, 2.0, allow_subnormal=False)
    grid = {}
    for i, name in enumerate(_mostly(draw, st.just(names), st.lists(st.sampled_from(("q1", "q2", "q9"))),
                                     odds=12)):
        count = _mostly(draw, st.integers(1, 50 if i == 0 else 4), st.sampled_from(_BAD_COUNTS))
        lo, hi = (_mostly(draw, bound, st.sampled_from(_BAD_BOUNDS), odds=10) for _ in range(2))
        grid[name] = _mostly(draw, st.just([lo, hi, count]), st.sampled_from([[lo, hi], 5, None]), odds=12)
    doc["grid"] = _mostly(draw, st.just(grid), st.sampled_from([None, [], 5]), odds=20)
    for key in ("coords", "potential", "grid"):
        if not draw(st.integers(0, 24)):
            del doc[key]
    if not draw(st.integers(0, 19)):
        doc["bogus"] = 1
    return doc


@given(doc=_surface_doc())
@settings(max_examples=150, deadline=None)
def test_surface_fuzz_ends_in_an_exit_code(doc):
    code, out, err = _run_cli(["surface"], doc)
    _assert_exit_code(code, out, err)
    if code == EXIT_OK:
        assert out.startswith(",".join(doc["coords"]) + ",s,")


_VDW_NUMBERS = st.one_of(st.floats(-3.0, 3.0, allow_subnormal=False).map(repr),
                         st.sampled_from(["nan", "inf", "-inf", "1e309", "abc", "", "1e300"]))
_VDW_COUNTS = st.sampled_from([str(10 ** 6 + 1), str(10 ** 30), "0", "-3", "2.5", "abc", ""])


@st.composite
def _vdw_argv(draw):
    """vdw flags: defaults, in-cap counts of at most 50, and now and then a count over
    the cap, a non-finite, malformed or extreme number, or an unknown flag."""
    argv = ["vdw"]
    for flag in ("--a", "--b", "--r", "--cv", "--smin", "--smax", "--vmin", "--vmax"):
        if not draw(st.integers(0, 3)):
            argv += [flag, draw(_VDW_NUMBERS)]
    for flag, top in (("--sn", 5), ("--vn", 50)):
        if draw(st.booleans()):
            argv += [flag, _mostly(draw, st.integers(1, top).map(str), _VDW_COUNTS)]
    if not draw(st.integers(0, 19)):
        argv.append(draw(st.sampled_from(["--bogus", "--sn", "extra"])))
    return argv


@given(argv=_vdw_argv())
@settings(max_examples=120, deadline=None)
def test_vdw_fuzz_ends_in_an_exit_code(argv):
    code, out, err = _run_cli(argv)
    _assert_exit_code(code, out, err)
    if code == EXIT_OK:
        assert out.startswith("S,V,U,T,p\n")


_Q_NAMES = ("q1", "q2", "q3")
_CURVE_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "abc", ""])


def _pick(draw, good, bad, odds: int = 12):
    """good, or exactly one time in ``odds`` bad (shrinking to good)."""
    return draw(bad if _seldom(draw, odds) else good)


@st.composite
def _curve(draw, names):
    """A curve file's text, mostly 3-6 samples at increasing times in the config's
    coordinates; now and then fewer samples, a missing or extra column, a bad cell,
    a repeated time. Now and then a value that is no curve text."""
    if _seldom(draw, 12):
        return draw(st.sampled_from([0, 1.5, None, ["a"], True, "/missing/curve.csv"]))
    cols = _pick(draw, st.just(list(names)), st.lists(st.sampled_from(_Q_NAMES), max_size=3))
    n = _pick(draw, st.integers(2, 5), st.integers(0, 1))  # time steps: one fewer than samples
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    rows = [[repr(t)] + [repr(draw(st.floats(-2.0, 2.0, allow_subnormal=False))) for _ in cols]
            for t in itertools.accumulate(steps, initial=draw(st.floats(-2.0, 2.0)))]
    if _seldom(draw, 6):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_CURVE_CELLS)
    if _seldom(draw, 20):
        draw(st.sampled_from(rows)).append("0")
    if len(rows) > 1 and _seldom(draw, 12):
        rows.insert(1, rows[0])  # a repeated time
    return "\n".join(["t," + ",".join(cols)] + [",".join(row) for row in rows]) + "\n"


def _run_with_curve(argv, doc, curve):
    """_run_cli with config.curve set to ``curve``, or to a file holding it when it is a curve's text."""
    with tempfile.TemporaryDirectory() as directory:
        if isinstance(curve, str) and curve.startswith("t,"):
            path = os.path.join(directory, "curve.csv")
            with open(path, "w") as fh:
                fh.write(curve)
            curve = path
        return _run_cli(argv, {**doc, "curve": curve})


def _assert_json_exit(code, out, err):
    """_assert_exit_code, and at exit 0 JSON with no NaN or Infinity in it."""
    _assert_exit_code(code, out, err)
    if code == EXIT_OK:
        assert "NaN" not in out and "Infinity" not in out
        json.loads(out)


def _names(draw):
    return tuple(draw(st.lists(st.sampled_from(_Q_NAMES), min_size=1, max_size=3, unique=True)))


def _finish(draw, doc, keys):
    """``doc`` with, now and then, one of ``keys`` missing or an unknown key."""
    for key in keys:
        if _seldom(draw, 30):
            doc.pop(key, None)
    if _seldom(draw, 20):
        doc["bogus"] = 1
    return doc


def _point(draw, names):
    """config.point: mostly a finite number per name; now and then a non-finite or
    wrong-typed number, a missing or an unknown name, or no mapping."""
    keys = _pick(draw, st.just(names), st.lists(st.sampled_from(_Q_NAMES + ("s",)), unique=True))
    point = {k: _pick(draw, st.floats(-2.0, 2.0, allow_subnormal=False), _FUZZ_FAULTS) for k in keys}
    return _pick(draw, st.just(point), st.sampled_from([None, [], 5]), odds=30)


_BAD_COORDS = st.sampled_from([[], ["q1", "q1"], "q1", [1], None])
_BAD_TEXT = st.sampled_from([3, None, "q1+", "w"])


@st.composite
def _admissible_doc(draw):
    names = _names(draw)
    doc = {"coords": _pick(draw, st.just(list(names)), st.one_of(_BAD_COORDS, st.just(["s"]))),
           "potential": _pick(draw, _fuzz_expression(names), _BAD_TEXT),
           "sigma": _pick(draw, _fuzz_expression(names), _BAD_TEXT)}
    if _seldom(draw, 5):
        doc["tol"] = _pick(draw, st.floats(0.0, 1.0), _FUZZ_FAULTS, odds=4)
    return _finish(draw, doc, ("coords", "potential")), draw(_curve(names))


@given(case=_admissible_doc())
@settings(max_examples=50, deadline=None)
def test_admissible_fuzz_ends_in_an_exit_code(case):
    code, out, err = _run_with_curve(["admissible"], *case)
    _assert_json_exit(code, out, err)
    if code == EXIT_OK:
        assert json.loads(out)["rates"]  # a verdict needs at least one judged rate


@st.composite
def _action_doc(draw):
    names = _names(draw)
    doc = {"coords": _pick(draw, st.just(list(names)), _BAD_COORDS)}
    if draw(st.booleans()):
        doc["potential"] = _pick(draw, _fuzz_expression(names), _BAD_TEXT)
    else:
        keys = _pick(draw, st.just(names), st.lists(st.sampled_from(_Q_NAMES), unique=True))
        doc["coefficients"] = {k: _pick(draw, _fuzz_expression(names), _BAD_TEXT) for k in keys}
    return _finish(draw, doc, ("coords",)), draw(_curve(names))


@given(case=_action_doc())
@settings(max_examples=50, deadline=None)
def test_action_fuzz_ends_in_an_exit_code(case):
    _assert_json_exit(*_run_with_curve(["action"], *case))


@st.composite
def _metric_doc(draw):
    names = _names(draw)
    doc = {"coords": _pick(draw, st.just(list(names)), _BAD_COORDS),
           "potential": _pick(draw, _fuzz_expression(names), _BAD_TEXT),
           "point": _point(draw, names)}
    return _finish(draw, doc, ("coords", "potential", "point"))


@given(doc=_metric_doc())
@settings(max_examples=50, deadline=None)
def test_metric_fuzz_ends_in_an_exit_code(doc):
    _assert_json_exit(*_run_cli(["metric"], doc))


@st.composite
def _curvature_doc(draw):
    names = _names(draw)
    s_name = _pick(draw, st.sampled_from(["s", "u"]), st.sampled_from([3, None, "q1", ["s"]]))
    full = (s_name if isinstance(s_name, str) else "s",) + names
    doc = {"coords": _pick(draw, st.just(list(names)), _BAD_COORDS),
           "coefficients": _pick(draw, st.fixed_dictionaries({k: _fuzz_expression(full) for k in names}),
                                 st.sampled_from([None, [], {"q9": "1"}, {k: 3 for k in names}])),
           "point": _point(draw, full)}
    if s_name != "s" or draw(st.booleans()):
        doc["s"] = s_name
    return _finish(draw, doc, ("coords", "coefficients", "point"))


@given(doc=_curvature_doc())
@settings(max_examples=50, deadline=None)
def test_curvature_fuzz_ends_in_an_exit_code(doc):
    _assert_json_exit(*_run_cli(["curvature"], doc))


_SIM_NAMES = {"thermoelastic": ("eps", "F11", "F12", "H1"), "ferroelectric": ("eps", "F11", "pi1", "gpi12", "H1")}
_SIM_OVER_CAP = [{"t1": 1e30, "dt": 1.0}, {"t1": 2_000_000, "dt": 1}, {"t0": -1e6, "t1": 1.0, "dt": 0.5}]


def _seldom(draw, odds: int) -> bool:
    """True about one time in ``odds``; shrinks to False."""
    return draw(st.sampled_from([False] * (odds - 1) + [True]))


@st.composite
def _simulate_doc(draw):
    """Mostly well-formed simulate configs of at most 50 steps, whose potentials and
    forcing may have poles, ln of negatives or overflow; now and then a wrong type, a
    non-finite number, a missing or an unknown key, an empty section or a step count
    over the cap."""
    def pick(good, bad, odds=12):
        return draw(bad if _seldom(draw, odds) else good)

    model = pick(st.sampled_from(sorted(_SIM_NAMES)), st.sampled_from(["bogus", 3, None]), odds=20)
    names = _SIM_NAMES.get(model, ("eps",))
    number = st.floats(-2.0, 2.0, allow_subnormal=False)
    doc = {"model": model,
           "potential": pick(_fuzz_expression(names).map("ln(eps) + {}".format),
                             st.sampled_from([3, None, "eps+", "w"]))}
    for param in ("rho", "k", "inertia") if model == "ferroelectric" else ("rho", "k"):
        if _seldom(draw, 3):
            doc[param] = pick(st.floats(0.1, 3.0), st.one_of(_FUZZ_FAULTS, st.sampled_from([0.0, -1.0])))
    initial = {"eps": pick(st.floats(0.2, 2.0), _FUZZ_FAULTS)}
    blocks = _MODELS[model][0]._BLOCKS if model in _SIM_NAMES else ()
    for key, size in ((name, math.prod(shape)) for name, shape, _ in blocks):
        if draw(st.booleans()):
            good = st.lists(number, min_size=size, max_size=size)
            if key == "F":  # near the identity, so that det F > 0 mostly
                good = st.lists(st.floats(-0.2, 0.2), min_size=9, max_size=9).map(
                    lambda v: [x + (i % 4 == 0) for i, x in enumerate(v)])
            initial[key] = pick(good, st.one_of(_FUZZ_FAULTS, st.lists(number, max_size=4),
                                                st.lists(_FUZZ_FAULTS, min_size=size, max_size=size)))
    doc["initial"] = pick(st.just(initial), st.sampled_from([{}, None, [], {"H": [0, 0, 0]}]), odds=20)
    if draw(st.booleans()):
        def channel(shape):
            good = _fuzz_expression(["t"])
            for n in reversed(shape):
                good = st.lists(good, min_size=n, max_size=n)
            return pick(good, st.sampled_from([3, "t+", ["t"], [["t"] * 3] * 2]))
        channels = _MODELS[model][0]._CHANNELS if model in _SIM_NAMES else ()
        doc["forcing"] = pick(st.just({_FORCING_KEYS.get(name, name): channel(shape)
                                       for name, shape in channels if draw(st.booleans())}),
                              st.sampled_from([{}, None, [], {"bogus": "t"}]))
    dt = draw(st.sampled_from([0.01, 0.05, 0.1]))
    doc["integration"] = pick(
        st.integers(1, 50).map(lambda n: {"t1": n * dt, "dt": dt}),
        st.one_of(st.sampled_from(_SIM_OVER_CAP + [{}, None, {"t1": 1.0}, {"t1": 1.0, "dt": 0.3},
                                                   {"t1": 0.0, "dt": 0.1}, {"t1": 1.0, "dt": -0.1}]),
                  st.fixed_dictionaries({"t1": _FUZZ_FAULTS, "dt": st.just(0.1)}),
                  st.fixed_dictionaries({"t1": st.just(1.0), "dt": _FUZZ_FAULTS})), odds=6)
    if model in _SIM_NAMES and _seldom(draw, 6):
        doc["surface"] = {"sigma": pick(_fuzz_expression(names), st.sampled_from([3, "eps+"]), odds=8)}
    for key in ("potential", "initial", "integration"):
        if _seldom(draw, 30):
            del doc[key]
    if _seldom(draw, 20):
        doc["bogus"] = 1
    return doc


@given(doc=_simulate_doc())
@example(doc={"model": "thermoelastic", "potential": "ln(eps)", "initial": {"eps": 0.5},
              "integration": {"t1": 1e30, "dt": 1.0}})
@settings(max_examples=80, deadline=None)
def test_simulate_fuzz_ends_in_an_exit_code(doc):
    code, out, err = _run_cli(["simulate"], doc)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_DOMAIN)
    assert "Traceback" not in err
    if code == EXIT_ERROR:
        assert out == "" and err.startswith("error: ")
    else:  # the trace, whole or up to a domain exit that one stderr line names
        assert out.startswith("t,eps,") and out.endswith("\n")
        if code == EXIT_OK:
            assert err == ""
        else:
            assert err.startswith("domain exit at t=") and err.count("\n") == 1


class TestSimulate:
    THERMO = """
model: thermoelastic
potential: "ln(eps) - 0.15*(H1^2+H2^2+H3^2)"
rho: 1.0
k: 1.0
initial:
  eps: 0.5
  H: [1.0, 0.0, 0.0]
integration: {t1: 1.0, dt: 0.001}
"""

    def test_thermoelastic_trace(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", self.THERMO)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header[:2] == ["t", "eps"]
        assert "theta" in header and "U" in header
        assert len(rows) == 1001
        # H1 decays like e^(-0.3 t) for this potential (rho = k = 1)
        h1 = rows[-1][header.index("H1")]
        assert h1 == pytest.approx(math.exp(-0.3), abs=1e-9)
        # theta column is 1/dU/d(eps) = eps for the log potential
        assert rows[-1][header.index("theta")] == pytest.approx(
            rows[-1][header.index("eps")], rel=1e-12)

    def test_deterministic_bytes(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", self.THERMO)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", config, "--out", str(a)])
        main(["simulate", "--config", config, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_domain_exit_keeps_partial_trace(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
model: thermoelastic
potential: "ln(eps)"
initial: {eps: 0.2}
forcing: {divq: "1"}
integration: {t1: 1.0, dt: 0.05}
""")
        out = tmp_path / "trace.csv"
        # eps decreases at unit rate and leaves the log domain near t = 0.2
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_DOMAIN
        header, rows = read_csv(out)
        assert 2 <= len(rows) < 21
        assert rows[-1][header.index("eps")] > 0.0

    def test_overflow_is_a_domain_exit(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
model: thermoelastic
potential: "ln(eps) + exp(H1)"
initial: {eps: 1.0, H: [5.0, 0.0, 0.0]}
integration: {t1: 0.1, dt: 0.001}
""")
        out = tmp_path / "trace.csv"
        # H1' = exp(H1) blows up at t = exp(-5), about 0.0067
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_DOMAIN
        assert "overflow in 'exp(H1)'" in capsys.readouterr().err
        header, rows = read_csv(out)
        assert 2 <= len(rows) < 101
        assert np.all(np.isfinite(rows))

    def test_non_finite_potential_gradient_exits_1(self, tmp_path, capsys):
        # the infinite dU/dH1 at t = 0 entered the RK stages, which exited 3 naming a symptom
        config = write(tmp_path / "c.yaml", """
model: thermoelastic
potential: "ln(eps) - 1e300*H1^0.5"
initial: {eps: 0.5, H: [1.0e-300, 0, 0]}
integration: {t1: 0.1, dt: 0.05}
""")
        out = tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite dU/dH1 in 'ln(eps)-1e+300*H1^0.5' (value -inf)\n"
        assert not out.exists()

    def test_forcing_entry_domain_exit_line(self, tmp_path, capsys):
        # the nine L entries are one tape; the exit line names entry [1][2] on its own
        config = write(tmp_path / "c.yaml", """
model: thermoelastic
potential: "ln(eps) - 0.15*(H1^2+H2^2+H3^2)"
initial: {eps: 0.5, H: [1.0, 0.0, 0.0]}
forcing:
  L: [["0", "0.1*t", "0"], ["0", "0", "ln(0.01-t)"], ["1/(t-0.05)", "0", "0"]]
integration: {t1: 0.1, dt: 0.001}
""")
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "domain exit at t=0.009000000000000001: logarithm of a non-positive value in "
            "'ln(0.01-t)' (value -1.734723475976807e-18)\n")
        assert len(read_csv(out)[1]) == 10

    def test_overflowing_rk_stage_is_named(self, tmp_path, capsys):
        # two numpy RuntimeWarnings, then "non-finite dU/deps" at the next stage: a symptom
        config = write(tmp_path / "c.yaml", """
model: thermoelastic
potential: "ln(eps) - 0.15*(H1^2+H2^2+H3^2)"
initial: {eps: 0.5, H: [1.0, 0.0, 0.0]}
integration: {t1: 0.1, dt: 0.01}
forcing:
  L: [["0", "1e306*(t-0.02)", "0"], ["0", "0", "1e306*(t-0.02)"], ["0", "0", "0"]]
""")
        out = tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "domain exit at t=0.0: non-finite deps/dt in RK stage 2 at t=0.005 (value nan)\n")
        assert len(read_csv(out)[1]) == 1

    def test_rows_are_written_as_they_are_made(self, tmp_path, capsys, monkeypatch):
        config = write(tmp_path / "c.yaml", self.THERMO.replace("t1: 1.0", "t1: 0.01"))
        seen = []

        def step(y, *args):  # what stdout holds when each step starts
            seen.append(capsys.readouterr().out.count("\n"))
            return _rk4(y, *args)

        monkeypatch.setattr("thermoform.cli._rk4", step)
        assert main(["simulate", "--config", config]) == EXIT_OK
        # the header and the first row are out before the first step; the writer
        # is one row behind the steps, since a row is written when it is yielded
        assert seen == [2, *[1] * 9]

    def test_partial_trace_bytes_are_the_same_on_stdout_and_in_a_file(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
model: thermoelastic
potential: "ln(eps)"
initial: {eps: 0.2}
forcing: {divq: "1"}
integration: {t1: 1.0, dt: 0.05}
""")
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_DOMAIN
        in_file = capsys.readouterr()
        assert main(["simulate", "--config", config]) == EXIT_DOMAIN
        on_stdout = capsys.readouterr()
        assert on_stdout.out == out.read_text() and on_stdout.out.startswith("t,eps,")
        assert on_stdout.err == in_file.err and in_file.err.startswith("domain exit at t=0.")

    def test_ferroelectric_harmonic(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
model: ferroelectric
potential: "eps - 2*(pi1^2+pi2^2+pi3^2)"
initial:
  eps: 1.0
  pi: [0.3, 0.0, 0.0]
integration: {t1: 1.0, dt: 0.001}
""")
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert rows[-1][header.index("pi1")] == pytest.approx(0.3 * math.cos(2.0), abs=1e-6)

    def test_unknown_model(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", "model: bogus\n")
        assert main(["simulate", "--config", config]) == EXIT_ERROR

    def test_surface_sigma_columns(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", self.THERMO.replace("integration: {t1: 1.0",
                                                                 "integration: {t1: 0.1")
                       + 'surface: {sigma: "0.1*eps^2 + H1"}\n')
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header[-4:] == ["theta", "U", "sigma_prod", "s"]
        col = {name: rows[:, header.index(name)] for name in header}
        assert np.array_equal(col["sigma_prod"], 0.1 * col["eps"] ** 2 + col["H1"])
        # s = U + sigma, summed before formatting; 17 digits read back exactly
        assert np.array_equal(col["s"], col["U"] + col["sigma_prod"])

    def test_ferroelectric_surface_sigma_columns(self, tmp_path, capsys):
        # the ferroelectric model exited 1 with "config: unknown keys ['surface']"
        config = write(tmp_path / "c.yaml", """
model: ferroelectric
potential: "eps - 2*(pi1^2+pi2^2+pi3^2)"
initial: {eps: 1.0, pi: [0.3, 0.0, 0.0], grad_pi: [0, 0.2, 0, 0, 0, 0, 0, 0, 0]}
integration: {t1: 0.1, dt: 0.001}
surface: {sigma: "0.1*eps^2 + pi1*gpi12"}
""")
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header[-4:] == ["theta", "U", "sigma_prod", "s"] and header[1:-4] == list(point.STATE_NAMES)
        col = {name: rows[:, header.index(name)] for name in header}
        assert np.array_equal(col["sigma_prod"], 0.1 * col["eps"] ** 2 + col["pi1"] * col["gpi12"])
        assert np.array_equal(col["s"], col["U"] + col["sigma_prod"])
        assert len(set(col["s"])) > 1

    def test_ferroelectric_forcing_is_parsed_in_read_order(self):
        # the rates read L, divq, poynting, E, ...; E was parsed first, so of E and L
        # malformed the error named E
        forcing = dict.fromkeys(["E", "div_J_grad_u", "poynting", "source_grad_u", "divq", "L",
                                 "div_e_tensor"], 3)
        doc = {"model": "ferroelectric", "potential": "ln(eps)", "initial": {"eps": 0.5},
               "forcing": forcing, "integration": {"t1": 0.1, "dt": 0.1}}
        named = []
        while forcing:
            code, out, err = _run_cli(["simulate"], doc)
            assert (code, out) == (EXIT_ERROR, "") and err.startswith("error: config.forcing.")
            named.append(err.removeprefix("error: config.forcing.").split(":")[0])
            del forcing[named[-1]]
        assert named == ["L", "divq", "poynting", "E", "div_e_tensor", "div_J_grad_u", "source_grad_u"]


class TestSurface:
    def test_production_residual_column(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
coords: [q1, q2]
potential: "q1*q2"
sigma: "0.1*q1"
grid: {q1: [0.0, 1.0, 3], q2: [0.0, 1.0, 3]}
""")
        out = tmp_path / "surf.csv"
        assert main(["surface", "--config", config, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["q1", "q2", "s", "p_q1", "p_q2", "res_q1", "res_q2"]
        assert rows[:, header.index("res_q1")] == pytest.approx(np.full(9, 0.1))
        assert np.abs(rows[:, header.index("res_q2")]).max() <= 1e-12
        # s column carries U + sigma of the shifted embedding
        i = np.argmax((rows[:, 0] == 1.0) & (rows[:, 1] == 1.0))
        assert rows[i, header.index("s")] == pytest.approx(1.0 + 0.1)

    def test_zero_sigma_is_legendre(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
coords: [q1, q2]
potential: "q1^2 + q2^2"
grid: {q1: [-1.0, 1.0, 3], q2: [-1.0, 1.0, 3]}
""")
        out = tmp_path / "surf.csv"
        assert main(["surface", "--config", config, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        res = rows[:, [header.index("res_q1"), header.index("res_q2")]]
        assert np.abs(res).max() <= 1e-9


    def test_non_finite_gradient_exits_1(self, tmp_path, capsys, recwarn):
        # printed p_q1 = inf and res_q1 = nan with a numpy RuntimeWarning and exit 0
        config = write(tmp_path / "c.yaml", """
coords: [q1]
potential: "1e300*q1^0.5"
grid: {q1: [1.0e-300, 1.0e-299, 2]}
""")
        out = tmp_path / "surf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["surface", "--config", config, "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite p_q1 in '1e+300*q1^0.5' (value inf)\n"
        assert not out.exists()


class TestAdmissible:
    def curve_file(self, tmp_path, q1):
        lines = ["t,q1,q2"] + [f"{0.1 * i},{v},1.0" for i, v in enumerate(q1)]
        return write(tmp_path / "curve.csv", "\n".join(lines) + "\n")

    def config_file(self, tmp_path, curve):
        return write(tmp_path / "c.yaml", f"""
coords: [q1, q2]
potential: "q1*q2"
sigma: "q1"
curve: "{curve}"
""")

    def test_monotone_admissible(self, tmp_path, capsys):
        curve = self.curve_file(tmp_path, [0.0, 0.1, 0.2, 0.3, 0.4])
        code, doc = run_json(capsys, ["admissible", "--config", self.config_file(tmp_path, curve)])
        assert code == EXIT_OK
        assert doc["admissible"] is True
        assert doc["rates"] == pytest.approx([1.0, 1.0, 1.0])
        assert doc["delta_s"] == pytest.approx(doc["delta_U"] + doc["delta_sigma"])

    def test_reversed_flags_violations(self, tmp_path, capsys):
        curve = self.curve_file(tmp_path, [0.4, 0.3, 0.2, 0.1, 0.0])
        code, doc = run_json(capsys, ["admissible", "--config", self.config_file(tmp_path, curve)])
        assert code == EXIT_OK
        assert doc["admissible"] is False
        assert doc["violating_intervals"] == [1, 2, 3]

    def test_rates_csv(self, tmp_path, capsys):
        curve = self.curve_file(tmp_path, [0.0, 0.1, 0.2, 0.3, 0.4])
        out = tmp_path / "rates.csv"
        main(["admissible", "--config", self.config_file(tmp_path, curve), "--out", str(out)])
        capsys.readouterr()
        header, rows = read_csv(out)
        assert header == ["sample", "rate"]
        assert len(rows) == 3

    @pytest.mark.parametrize("q1", [[1e-300] * 3, [1e-300, 2e-300, 3e-300]], ids=["held", "rising"])
    def test_non_finite_production_gradient_exits_1(self, tmp_path, capsys, q1):
        # held printed NaN rates (not JSON) and "admissible": true, rising -Infinity rates; both exit 0
        lines = ["t,q1"] + [f"{0.1 * i},{v}" for i, v in enumerate(q1)]
        curve = write(tmp_path / "curve.csv", "\n".join(lines) + "\n")
        config = write(tmp_path / "c.yaml", f"""
coords: [q1]
potential: "q1^2"
sigma: "-1e300*q1^0.5"
curve: "{curve}"
""")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["admissible", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite dsigma/dq1 in '-1e+300*q1^0.5' (value -inf)\n"

    def test_overflowing_rate_exits_1(self, tmp_path, capsys):
        # a finite gradient times a finite tangent overflowed: a RuntimeWarning,
        # "rates": [Infinity] and "admissible": true with exit 0
        curve = write(tmp_path / "curve.csv", "t,q1\n0,0\n1e-300,1e-100\n2e-300,2e-100\n")
        config = write(tmp_path / "c.yaml", f"""
coords: [q1]
potential: "q1^2"
sigma: "1e200*q1"
curve: "{curve}"
""")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["admissible", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite production rate inf at curve sample 1\n"


class TestMetricAction:
    def test_metric(self, tmp_path, capsys, monkeypatch):
        config = write(tmp_path / "c.yaml", """
coords: [q1, q2]
potential: "q1^2 + q2^2"
point: {q1: 1.0, q2: 2.0}
""")
        calls = []
        hessian = ScalarField.hessian
        monkeypatch.setattr(ScalarField, "hessian", lambda f, *args: calls.append(f) or hessian(f, *args))
        code, doc = run_json(capsys, ["metric", "--config", config])
        assert code == EXIT_OK
        assert len(calls) == 1  # the det is taken from the printed matrix, not a second Hessian
        assert doc["metric"] == [[2.0, 0.0], [0.0, 2.0]]
        assert doc["det"] == pytest.approx(4.0)

    def test_nan_exponent_exits_1(self, tmp_path, capsys):
        # round(nan) raised ValueError: a traceback
        config = write(tmp_path / "c.yaml", """
coords: [x]
potential: "x^(1e308*10-1e308*10)"
point: {x: 2.0}
""")
        assert main(["metric", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: NaN exponent in 'x^(1e+308*10-1e+308*10)' (value nan)\n"

    def test_overflowing_det_exits_1(self, tmp_path, capsys):
        # printed "det": Infinity with a RuntimeWarning and exit 0
        config = write(tmp_path / "c.yaml", """
coords: [x, y]
potential: "1e200*x^2 + 1e200*y^2"
point: {x: 1.0, y: 1.0}
""")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["metric", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite Hessian determinant inf in '1e+200*x^2+1e+200*y^2'\n"

    def test_overflowing_action_exits_1(self, tmp_path):
        # printed "action": Infinity with a RuntimeWarning and exit 0
        curve = write(tmp_path / "curve.csv", "t,x\n0,0\n1,1e10\n")
        config = write(tmp_path / "c.yaml", f"""
coords: [x]
coefficients: {{x: "1e300"}}
curve: "{curve}"
""")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "thermoform.cli", "action",
             "--config", config], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src")))
        assert proc.returncode == EXIT_ERROR
        assert proc.stdout == ""
        assert proc.stderr == "error: non-finite entropy action inf on curve interval 0 (t = 0.0 to 1.0)\n"

    def test_action_of_exact_form(self, tmp_path, capsys):
        curve = write(tmp_path / "curve.csv",
                      "t,x,y\n0.0,0.0,0.0\n1.0,0.5,0.5\n2.0,1.0,1.0\n")
        config = write(tmp_path / "c.yaml", f"""
coords: [x, y]
potential: "x*y"
curve: "{curve}"
""")
        code, doc = run_json(capsys, ["action", "--config", config])
        assert code == EXIT_OK
        assert doc["action"] == pytest.approx(1.0, abs=1e-12)


class TestCurvature:
    def test_flat_and_curved(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
s: s
coords: [q1, q2]
coefficients: {q1: "0", q2: "s*q1"}
point: {s: 2.0, q1: 0.0, q2: 0.0}
""")
        code, doc = run_json(capsys, ["curvature", "--config", config])
        assert code == EXIT_OK
        assert doc["curvature"][0][1] == pytest.approx(2.0)
        assert doc["curvature"][1][0] == pytest.approx(-2.0)

    @pytest.mark.parametrize("coords, coefficients, point, message", [
        ("[q1, q2]", '{q1: "1e300*q2^0.5", q2: "0"}', "{s: 0.0, q1: 1.0, q2: 1.0e-300}",
         "non-finite dp_q1/dq2 in '1e+300*q2^0.5' (value inf)"),
        ("[q1]", '{q1: "1e300*q1^0.5"}', "{s: 0.0, q1: 1.0e-300}",
         "non-finite dp_q1/dq1 in '1e+300*q1^0.5' (value inf)"),
        ("[q1, q2]", '{q1: "1e200*s", q2: "1e200*s"}', "{s: 1.0, q1: 1.0, q2: 1.0}",
         "non-finite curvature nan in the pair (q1, q2)"),
    ], ids=["jacobian", "one-coordinate", "omega"])
    def test_non_finite_entry_exits_1(self, tmp_path, capsys, coords, coefficients, point, message):
        # printed -Infinity/Infinity with exit 0, or a RuntimeWarning
        config = write(tmp_path / "c.yaml",
                       f"coords: {coords}\ncoefficients: {coefficients}\npoint: {point}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["curvature", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestVdw:
    def test_csv_and_spinodal(self, tmp_path, capsys):
        out = tmp_path / "vdw.csv"
        code, doc = run_json(capsys, ["vdw", "--out", str(out)])
        assert code == EXIT_OK
        roots = doc["spinodal_V_at_S0"]
        assert len(roots) == 1
        assert abs(roots[0] - 0.22153559021583927) <= 1e-4
        header, rows = read_csv(out)
        assert header == ["S", "V", "U", "T", "p"]
        assert len(rows) == 5 * 60
        # T column is the exact S-derivative of the constitutive law
        s, v = rows[100, 0], rows[100, 1]
        expected_T = (v - 0.1) ** (-2 / 3) * math.exp(s / 1.5) / 1.5
        assert rows[100, 3] == pytest.approx(expected_T, rel=1e-12)
        # p column is minus the V-derivative
        expected_p = (2 / 3) * (v - 0.1) ** (-5 / 3) * math.exp(s / 1.5) - 1.0 / v ** 2
        assert rows[100, 4] == pytest.approx(expected_p, rel=1e-12)

    @pytest.mark.parametrize("flag, value", [("--sn", "0"), ("--sn", "-1"), ("--vn", "0"),
                                             ("--vn", "2.5")])
    def test_grid_count_must_be_a_positive_integer(self, capsys, flag, value):
        # -1 was a numpy ValueError traceback, 0 a header-only table with exit 0
        with pytest.raises(SystemExit) as exit_info:
            main(["vdw", flag, value])
        assert exit_info.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected an integer >= 1, got '{value}'" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag, value", [("--sn", str(10 ** 30)), ("--vn", "1000001")])
    def test_grid_count_is_capped(self, capsys, flag, value):
        # 10^30 was a numpy ValueError traceback from np.linspace
        with pytest.raises(SystemExit) as exit_info:
            main(["vdw", flag, value])
        assert exit_info.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: at most 1000000 samples, got '{value}'" in captured.err

    def test_grid_points_are_capped(self, tmp_path, capsys):
        out = tmp_path / "vdw.csv"
        assert main(["vdw", "--sn", "1000", "--vn", "1001", "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --sn x --vn: at most 1000000 grid points, got 1001000\n"
        assert not out.exists()

    def test_reversed_volume_range(self, tmp_path, capsys):
        # the bisection never ran, so the spinodal was reported at 0.2144 instead of 0.2215
        out = tmp_path / "vdw.csv"
        assert main(["vdw", "--vmin", "3", "--vmax", "0.15", "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: spinodal scan of V: need lo < hi and samples >= 2, "
                                "got lo=3.0, hi=0.15, samples=200\n")
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["s", "v"])
    def test_axis_span_must_be_a_finite_float(self, tmp_path, axis):
        # the table held nan, and the run blamed the potential: non-finite result in its power
        out = tmp_path / "vdw.csv"
        flags = [f"--{axis}min=-1.7e308", f"--{axis}max=1.7e308", "--out", str(out)]
        assert _run_cli(["vdw", *flags]) == (EXIT_ERROR, "", (
            f"error: --{axis}min, --{axis}max: the span of [-1.7e+308, 1.7e+308] is not a finite float\n"))
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["vdw", "--out", str(a)])
        main(["vdw", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


CHART_CLASH = "config.coords: coordinate names must be distinct: the chart adds 's' and 'p_<name>' per name"


class TestInputRobustness:
    """Malformed input ends in exit 1 with a message naming where it is, never a traceback."""

    SIM = """
model: thermoelastic
potential: "ln(eps)"
initial: {{eps: 0.5}}
integration: {integration}
"""

    def test_check_closed_non_finite_residual(self, tmp_path, capsys):
        # a NaN residual ranks below every tolerance; it must not read as closed
        config = write(tmp_path / "c.yaml", """
coords: [x, y]
coefficients: {x: "y*(1e308*10 - 1e308*10)", y: "x"}
box: {x: [0.5, 1.5], y: [0.5, 1.5]}
count: 4
""")
        assert main(["check-closed", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: non-finite closeness residual")
        assert "(x, y)" in captured.err

    @pytest.mark.parametrize("integration, key", [
        ("{t1: 1.0, dt: .nan}", "config.integration.dt"),
        ("{t1: .inf, dt: 0.1}", "config.integration.t1"),
        ("{t0: -.inf, t1: 1.0, dt: 0.1}", "config.integration.t0"),
    ])
    def test_non_finite_integration_bounds(self, tmp_path, capsys, integration, key):
        config = write(tmp_path / "c.yaml", self.SIM.format(integration=integration))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {key}: expected a finite number")
        assert not out.exists()

    def test_non_mapping_section(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", self.SIM.format(integration="5"))
        assert main(["simulate", "--config", config]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: config.integration: expected a mapping, got 5\n"

    def test_partial_last_step_rejected(self, tmp_path, capsys):
        # 1 / 0.3 steps would silently stop at t = 0.9
        config = write(tmp_path / "c.yaml", self.SIM.format(integration="{t1: 1, dt: 0.3}"))
        assert main(["simulate", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config.integration.dt" in captured.err
        assert "whole number of steps" in captured.err

    @pytest.mark.parametrize("line, detail", [
        ("0.1,abc,1.0", "could not convert string to float: 'abc'"),
        ("0.1,0.2", "expected 3 cells, got 2"),
    ])
    def test_bad_curve_file(self, tmp_path, capsys, line, detail):
        curve = write(tmp_path / "curve.csv", f"t,q1,q2\n0.0,0.0,1.0\n{line}\n0.2,0.4,1.0\n")
        config = write(tmp_path / "c.yaml", f"""
coords: [q1, q2]
potential: "q1*q2"
curve: "{curve}"
""")
        assert main(["action", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: curve file {curve}, line 3: {detail}\n"

    @pytest.mark.parametrize("sub", ["action", "admissible"])
    def test_curve_file_not_utf8(self, tmp_path, capsys, sub):
        # a byte that is not UTF-8 ended in a UnicodeDecodeError traceback
        curve = tmp_path / "curve.csv"
        curve.write_bytes(b"t,q1,q2\n0.0,0.0,1.0\n0.1,\xff,1.0\n")
        config = write(tmp_path / "c.yaml", f"""
coords: [q1, q2]
potential: "q1*q2"
curve: "{curve}"
""")
        assert main([sub, "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: curve file {curve}: 'utf-8' codec can't decode byte 0xff"
                                " in position 24: invalid start byte\n")

    @pytest.mark.parametrize("sub", ["action", "admissible"])
    @pytest.mark.parametrize("curve", ["0", "7", "1.5", "[a.csv]", "null"])
    def test_curve_must_be_a_path_string(self, tmp_path, capsys, monkeypatch, sub, curve):
        # curve 0 was opened as file descriptor 0: a curve piped to stdin gave exit 0
        monkeypatch.setattr(sys, "stdin", io.StringIO("t,q1,q2\n0.0,0.0,1.0\n1.0,1.0,1.0\n"))
        config = write(tmp_path / "c.yaml", f"""
coords: [q1, q2]
potential: "q1*q2"
curve: {curve}
""")
        assert main([sub, "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        value = yaml.safe_load(curve)
        assert captured.err == f"error: config.curve: expected a file path string, got {value!r}\n"

    @pytest.mark.parametrize("integration, steps", [("{t1: 1.0e+30, dt: 1.0}", round(1e30)),
                                                    ("{t1: 1000.001, dt: 0.001}", 1_000_001)])
    def test_simulate_step_count_is_capped(self, tmp_path, capsys, integration, steps):
        # 10^30 steps ran until killed, holding every row in memory
        config = write(tmp_path / "c.yaml", self.SIM.format(integration=integration))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: config.integration: at most 1000000 steps, got {steps}\n"
        assert not out.exists()

    def test_simulate_step_cap_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr("thermoform.cli.MAX_SAMPLES", 5)
        config = write(tmp_path / "c.yaml", self.SIM.format(integration="{t1: 0.5, dt: 0.1}"))
        assert _run_cli(["simulate", "--config", config])[0] == EXIT_OK
        config = write(tmp_path / "c.yaml", self.SIM.format(integration="{t1: 0.6, dt: 0.1}"))
        assert _run_cli(["simulate", "--config", config])[:2] == (EXIT_ERROR, "")

    @pytest.mark.parametrize("count", ["2.5", "0"])
    def test_surface_grid_count(self, tmp_path, capsys, count):
        # 2.5 used to give 2 points, 0 a header-only CSV with exit 0
        config = write(tmp_path / "c.yaml", f"""
coords: [q1, q2]
potential: "q1*q2"
grid: {{q1: [0.0, 1.0, 3], q2: [0.0, 1.0, {count}]}}
""")
        out = tmp_path / "surf.csv"
        assert main(["surface", "--config", config, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: config.grid.q2: expected an integer >= 1, got {count}\n")
        assert not out.exists()

    @pytest.mark.parametrize("q1, q2, message", [
        (10 ** 30, 2, f"config.grid.q1: at most 1000000 samples, got {10 ** 30}"),
        (2, 1_000_001, "config.grid.q2: at most 1000000 samples, got 1000001"),
        (1000, 1001, "config.grid: at most 1000000 grid points, got 1001000"),
    ], ids=["count-1e30", "count-over-cap", "product-over-cap"])
    def test_surface_grid_is_capped(self, tmp_path, capsys, q1, q2, message):
        # 10^30 was a numpy ValueError traceback from np.linspace
        config = write(tmp_path / "c.yaml", f"""
coords: [q1, q2]
potential: "q1*q2"
grid: {{q1: [0.0, 1.0, {q1}], q2: [0.0, 1.0, {q2}]}}
""")
        out = tmp_path / "surf.csv"
        assert main(["surface", "--config", config, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_surface_grid_bound_must_be_finite(self, tmp_path, capsys):
        # a NaN start wrote rows of nan with exit 0
        config = write(tmp_path / "c.yaml", """
coords: [q1, q2]
potential: "q1*q2"
grid: {q1: [.nan, 1.0, 2], q2: [0.0, 1.0, 2]}
""")
        out = tmp_path / "surf.csv"
        assert main(["surface", "--config", config, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: config.grid.q1: expected a finite number, got nan\n"
        assert not out.exists()

    def test_surface_grid_span_must_be_a_finite_float(self, tmp_path):
        # the grid held nan, and the run blamed the potential: non-finite result in 'q1^2'
        doc = {"coords": ["q1"], "potential": "q1^2", "grid": {"q1": [-1.7e308, 1.7e308, 3]}}
        assert _run_cli(["surface"], doc) == (EXIT_ERROR, "", (
            "error: config.grid.q1: the span of [-1.7e+308, 1.7e+308] is not a finite float\n"))

    def test_check_closed_box_span_must_be_a_finite_float(self, tmp_path):
        # the samples held nan and inf, and the form x*y was reported closed with exit 0;
        # the error names the schema path, as surface's grid error does
        doc = {"coords": ["x", "y"], "potential": "x*y", "box": {"x": [-1e308, 1e308], "y": [0, 1]}}
        assert _run_cli(["check-closed"], doc) == (EXIT_ERROR, "", (
            "error: config.box.x: the span of [-1e+308, 1e+308] is not a finite float\n"))

    def test_check_closed_tol_must_be_finite(self, tmp_path, capsys):
        # a NaN tol gave "closed": false over a zero residual and non-JSON NaN
        config = write(tmp_path / "c.yaml", """
coords: [x, y]
potential: "x*y"
box: {x: [0.0, 1.0], y: [0.0, 1.0]}
tol: .nan
""")
        assert main(["check-closed", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config.tol: expected a finite number, got nan\n"

    def test_check_closed_tol_flag_must_be_finite(self, tmp_path, capsys):
        config = write(tmp_path / "c.yaml", """
coords: [x, y]
potential: "x*y"
box: {x: [0.0, 1.0], y: [0.0, 1.0]}
""")
        with pytest.raises(SystemExit) as exit_info:
            main(["check-closed", "--config", config, "--tol", "nan"])
        assert exit_info.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --tol: expected a finite number, got 'nan'" in captured.err

    @pytest.mark.parametrize("command, argv, doc, path", [
        ("check-closed", [], {"tol": -1.0}, "config.tol"),
        ("check-closed", ["--tol", "-1"], {}, "--tol"),
        ("admissible", [], {"tol": -1.0}, "config.tol"),
        ("admissible", ["--tol", "-1"], {}, "--tol"),
    ], ids=["check-closed-config", "check-closed-flag", "admissible-config", "admissible-flag"])
    def test_tol_must_not_be_negative(self, tmp_path, command, argv, doc, path):
        # check-closed printed "closed": false over a zero residual and exited 2; admissible judged
        # a curve whose rates are all 1.0 inadmissible
        curve = write(tmp_path / "curve.csv", "t,x,y\n0,0,1\n1,1,1\n2,2,1\n")
        base = {"coords": ["x", "y"], "potential": "x*y"}
        base.update({"box": {"x": [0, 1], "y": [0, 1]}} if command == "check-closed" else
                    {"sigma": "x", "curve": curve})
        assert _run_cli([command, *argv], {**base, **doc}) == (
            EXIT_ERROR, "", f"error: {path}: tolerance must be a number >= 0, got -1.0\n")

    @pytest.mark.parametrize("argv, config", [
        (["vdw", "--vn", "4000"], None),
        (["simulate"], TestSimulate.THERMO.replace("t1: 1.0", "t1: 5.0")),
    ], ids=["vdw", "simulate"])
    def test_a_closed_stdout_exits_quietly(self, tmp_path, argv, config):
        # vdw --vn 20000 | head -1 ended in a BrokenPipeError traceback from _write_csv
        if config is not None:
            argv = [*argv, "--config", write(tmp_path / "c.yaml", config)]
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen([sys.executable, "-m", "thermoform.cli", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.readline().startswith(b"S,V," if argv[0] == "vdw" else b"t,eps,")
        proc.stdout.close()  # megabytes are still to come: the next write meets a closed pipe
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_ERROR
        assert "Traceback" not in err and "Exception ignored" not in err, err
        proc.stderr.close()

    @pytest.mark.parametrize("initial, extra, path", [
        ("{eps: 0.5}", "rho: .nan\n", "config.rho"),
        ("{eps: 0.5, H: [1.0, .inf, 0.0]}", "", "config.initial.H"),
    ], ids=["rho", "initial.H"])
    def test_simulate_parameters_must_be_finite(self, tmp_path, capsys, initial, extra, path):
        # rho: .nan wrote an all-NaN trace with exit 0
        config = write(tmp_path / "c.yaml", f"""
model: thermoelastic
potential: "ln(eps)"
initial: {initial}
integration: {{t1: 0.1, dt: 0.01}}
{extra}""")
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {path}: expected ")
        assert not out.exists()

    @pytest.mark.parametrize("sub, body", [
        ("simulate", SIM.format(integration="{t1: 0.1, dt: 0.01}")),
        ("surface", "coords: [q1]\npotential: \"q1^2\"\ngrid: {q1: [0.0, 1.0, 2]}\n"),
    ], ids=["simulate", "surface"])
    def test_output_key_is_unknown(self, tmp_path, capsys, sub, body):
        # --out is the one output path; `output: true` used to write to fd 1 and close stdout
        config = write(tmp_path / "c.yaml", body + "output: true\n")
        assert main([sub, "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config: unknown keys ['output']\n"


    @pytest.mark.parametrize("forcing, message", [
        ("{divq: 0.5}", "config.forcing.divq: expected an expression string"),
        ('{E: ["t", "0"]}', "config.forcing.E: expected a list of 3 expression strings"),
        ('{div_e_tensor: ["t", 1, "0"]}', "config.forcing.div_e_tensor[1]: expected an expression string"),
        ('{L: [["0", "0", "0"], ["0", "0"], ["0", "0", "0"]]}',
         "config.forcing.L: expected a 3x3 nested list of expression strings"),
        ('{source_grad_u: [["0", "0", "0"], ["0", "0", "0"], ["0", "eps", "0"]]}',
         "config.forcing.source_grad_u[2][1]: unresolved coordinate names: ['eps']"),
    ], ids=["scalar", "vector-length", "vector-entry", "matrix-ragged", "matrix-entry"])
    def test_forcing_errors_name_the_entry(self, tmp_path, capsys, forcing, message):
        config = write(tmp_path / "c.yaml", f"""
model: ferroelectric
potential: "ln(eps)"
initial: {{eps: 0.5}}
forcing: {forcing}
integration: {{t1: 0.1, dt: 0.01}}
""")
        assert main(["simulate", "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("sub, body, message", [
        ("check-closed", 'coords: [x, y]\npotential: "x^^2"\nbox: {x: [0, 1], y: [0, 1]}\n',
         "config.potential: unexpected token at offset 2 (expected literal | name | '(' | '-')"),
        ("check-closed", 'coords: [x, y]\ncoefficients: {x: "y", y: "x+"}\n'
                         'box: {x: [0, 1], y: [0, 1]}\n',
         "config.coefficients.y: unexpected token at offset 2 (expected literal | name | '(' | '-')"),
        ("action", 'coords: [x, y]\ncoefficients: {x: "y"}\ncurve: c.csv\n',
         "config.coefficients.y: missing required key"),
        ("action", 'coords: [x, y]\ncoefficients: 5\ncurve: c.csv\n',
         "config.coefficients: expected a mapping, got 5"),
        ("check-closed", 'coords: [x, y]\npotential: "x*y"\nbox: 5\n',
         "config.box: expected a mapping, got 5"),
        ("metric", 'coords: [q1, q2]\npotential: "q1*q2"\npoint: 5\n',
         "config.point: expected a mapping, got 5"),
        ("curvature", 'coords: [q1]\ncoefficients: {q1: "s"}\npoint: [2.0, 1.0]\n',
         "config.point: expected a mapping, got [2.0, 1.0]"),
    ], ids=["potential", "coefficient", "missing-coefficient", "coefficients-not-a-mapping",
            "box-not-a-mapping", "point-not-a-mapping", "curvature-point-not-a-mapping"])
    def test_coordinate_keyed_errors_name_the_schema_path(self, tmp_path, capsys, sub, body,
                                                          message):
        # check-closed and action said "potential: ..." and "coefficients.y: ..."
        config = write(tmp_path / "c.yaml", body)
        assert main([sub, "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("sub, body, message", [
        ("surface", 'coords: [s]\npotential: "s"\ngrid: {s: [0.0, 1.0, 2]}\n', CHART_CLASH),
        ("admissible", 'coords: [x, p_x]\npotential: "x"\ncurve: c.csv\n', CHART_CLASH),
        ("curvature", 's: [a]\ncoords: [q1]\ncoefficients: {q1: "0"}\npoint: {q1: 1.0}\n',
         "config.s: expected a name not in config.coords, got ['a']"),
        ("curvature", 's: q1\ncoords: [q1]\ncoefficients: {q1: "0"}\npoint: {q1: 1.0}\n',
         "config.s: expected a name not in config.coords, got 'q1'"),
        ("curvature", 'coords: [s]\ncoefficients: {s: "0"}\npoint: {s: 1.0}\n',
         "config.s: expected a name not in config.coords, got 's'"),
    ], ids=["surface-s", "admissible-p_x", "curvature-s-list", "curvature-s-in-coords",
            "curvature-default-s-in-coords"])
    def test_chart_name_collisions_name_the_schema_path(self, tmp_path, capsys, sub, body, message):
        # surface and admissible ended in a GeometryError traceback; curvature blamed
        # config.coefficients.q1 with "unhashable type: 'list'"
        config = write(tmp_path / "c.yaml", body)
        assert main([sub, "--config", config]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("sub", ["simulate", "surface", "admissible", "vdw"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_1(self, tmp_path, sub, where):
        # open() raised FileNotFoundError or IsADirectoryError: a traceback, and
        # admissible had printed its JSON before it tried the CSV
        out = str(tmp_path / "missing" / "x.csv") if where == "missing-directory" else str(tmp_path)
        curve = write(tmp_path / "curve.csv", "t,q1\n0,0\n0.5,0.5\n1,1\n")
        doc = {"simulate": {"model": "thermoelastic", "potential": "ln(eps)", "initial": {"eps": 0.5},
                            "integration": {"t1": 0.1, "dt": 0.05}},
               "surface": {"coords": ["q1"], "potential": "q1^2", "grid": {"q1": [0.0, 1.0, 3]}},
               "admissible": {"coords": ["q1"], "potential": "q1^2", "sigma": "q1", "curve": curve},
               "vdw": None}[sub]
        code, stdout, stderr = _run_cli([sub, "--out", out], doc)
        assert (code, stdout) == (EXIT_ERROR, "")
        assert stderr.startswith(f"error: --out: cannot write {out!r}: ") and stderr.count("\n") == 1

    @staticmethod
    def curve_doc(tmp_path, sub, text, coords=("q1", "q2"), potential="q1*q2"):
        doc = {"coords": list(coords), "potential": potential, "curve": write(tmp_path / "curve.csv", text)}
        if sub == "admissible":
            doc["sigma"] = "q1"
        return doc

    @pytest.mark.parametrize("sub", ["admissible", "action"])
    @pytest.mark.parametrize("times", [["0", "nan", "1"], ["0", "inf"], ["-inf", "0", "1"]],
                             ids=["nan", "inf", "minus-inf"])
    def test_curve_times_must_be_finite(self, tmp_path, sub, times):
        # NaN passed the strictly-increasing test (every comparison with it is False),
        # and so did inf: each exited 0
        text = "t,q1,q2\n" + "".join(f"{t},{i},1\n" for i, t in enumerate(times))
        assert _run_cli([sub], self.curve_doc(tmp_path, sub, text)) == (
            EXIT_ERROR, "", "error: times must be finite and strictly increasing\n")

    def test_curve_header_must_start_with_t(self, tmp_path):
        doc = self.curve_doc(tmp_path, "action", "q1,t,q2\n0,0,1\n1,1,1\n")
        assert _run_cli(["action"], doc) == (
            EXIT_ERROR, "", f"error: curve file {doc['curve']}: first column must be 't'\n")

    def test_blank_curve_line_is_skipped(self, tmp_path):
        with_blank = _run_cli(["action"], self.curve_doc(tmp_path, "action", "t,q1,q2\n0,0,1\n\n0.5,1,1\n1,2,1\n"))
        without = _run_cli(["action"], self.curve_doc(tmp_path, "action", "t,q1,q2\n0,0,1\n0.5,1,1\n1,2,1\n"))
        assert with_blank == without == (EXIT_OK, '{\n  "action": 2.0\n}\n', "")

    @pytest.mark.parametrize("sub", ["admissible", "action"])
    @pytest.mark.parametrize("header", ["t,x,x", "t,x,y,x", "t,y,x,y"])
    def test_curve_column_must_not_repeat(self, tmp_path, sub, header):
        # the first of the repeated columns was read and the command exited 0
        name = header.split(",")[-1]
        text = header + "\n" + "".join(f"{i},{i}" + ",1" * (header.count(",") - 1) + "\n" for i in range(3))
        doc = self.curve_doc(tmp_path, sub, text, coords=("x",), potential="x^2")
        if sub == "admissible":
            doc["sigma"] = "x"
        assert _run_cli([sub], doc) == (
            EXIT_ERROR, "", f"error: curve file {doc['curve']}: duplicate column {name!r}\n")

    def test_curve_path_that_is_a_directory(self, tmp_path):
        doc = {"coords": ["q1"], "potential": "q1", "curve": str(tmp_path)}
        assert _run_cli(["action"], doc) == (
            EXIT_ERROR, "", f"error: cannot read curve file: [Errno 21] Is a directory: {str(tmp_path)!r}\n")

    def test_box_entry_must_be_a_pair(self):
        doc = {"coords": ["x", "y"], "potential": "x*y", "box": {"x": [1], "y": [0, 1]}}
        assert _run_cli(["check-closed"], doc) == (EXIT_ERROR, "", "error: config.box.x: expected [lo, hi]\n")

    def test_initial_vector_must_be_numbers(self):
        doc = {"model": "thermoelastic", "potential": "ln(eps)", "initial": {"eps": 0.5, "H": ["a", "b", "c"]},
               "integration": {"t1": 1.0, "dt": 0.1}}
        assert _run_cli(["simulate"], doc) == (
            EXIT_ERROR, "", "error: config.initial.H: expected 3 finite numbers\n")

    @pytest.mark.parametrize("t0", [1.0, 2.0], ids=["equal", "reversed"])
    def test_t1_must_exceed_t0(self, t0):
        doc = {"model": "thermoelastic", "potential": "ln(eps)", "initial": {"eps": 0.5},
               "integration": {"t0": t0, "t1": 1.0, "dt": 0.1}}
        assert _run_cli(["simulate"], doc) == (
            EXIT_ERROR, "", "error: config.integration: need dt > 0 and t1 > t0\n")

    def test_admissible_needs_an_interior_sample(self, tmp_path):
        # printed "rates": [], "delta_sigma": -5.0 and "admissible": true, with exit 0
        doc = self.curve_doc(tmp_path, "admissible", "t,q1,q2\n0,0,1\n1,-5,1\n")
        assert _run_cli(["admissible"], doc) == (
            EXIT_ERROR, "", "error: no production rate to judge: a curve of 2 samples has no interior sample\n")

    def test_admissible_overflowing_curve_exits_1(self, tmp_path):
        # two RuntimeWarnings from the endpoint tangents, then "delta_s": -Infinity with exit 0
        doc = self.curve_doc(tmp_path, "admissible", "t,q1\n0,0\n0.5,1e308\n1,-1e308\n", ("q1",), "q1")
        assert _run_cli(["admissible"], doc) == (
            EXIT_ERROR, "", "error: non-finite delta_s -inf between the curve's end samples\n")


def subcommand_parsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestFlags:
    def test_each_subcommand_accepts_only_its_flags(self):
        flags = {name: {opt for a in p._actions for opt in a.option_strings if a.dest != "help"}
                 for name, p in subcommand_parsers().items()}
        vdw_params = {"--a", "--b", "--r", "--cv", "--smin", "--smax", "--sn", "--vmin", "--vmax",
                      "--vn"}
        assert flags == {
            "check-closed": {"--config", "--tol", "--seed"},
            "admissible": {"--config", "--tol", "--out"},
            "simulate": {"--config", "--out"},
            "surface": {"--config", "--out"},
            "metric": {"--config"},
            "action": {"--config"},
            "curvature": {"--config"},
            "vdw": {"--out"} | vdw_params,
        }

    def test_every_flag_is_read(self):
        # a flag whose subcommand never reads args.<dest> is accepted and silently ignored
        for name, p in subcommand_parsers().items():
            fn = p.get_default("fn")
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
            read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "args"}
            dests = {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
            assert read == dests, name

    @pytest.mark.parametrize("argv, message", [
        (["metric", "--config", "m.yaml", "--out", "m.json"], "unrecognized arguments: --out m.json"),
        (["simulate", "--config", "s.yaml", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["metric"], "the following arguments are required: --config"),
        (["vdw", "--a", "inf"], "argument --a: expected a finite number, got 'inf'"),
        (["bogus"], "invalid choice: 'bogus'"),
    ], ids=["unknown-flag", "flag-of-another-subcommand", "missing-config", "non-finite-flag",
            "unknown-subcommand"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        # 2 is "closeness check failed", so argparse's usage exit 2 is not used
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_consecutive_calls_print_what_separate_calls_print(self, tmp_path):
        # main keeps one parser per process: no flag of one call may leak into the next
        form = {"coords": ["x", "y"], "coefficients": {"x": "y", "y": "-x*x"},
                "box": {"x": [0.0, 1.0], "y": [0.0, 1.0]}, "count": 8}
        metric = {"coords": ["x", "y"], "potential": "x^2*y + y^3", "point": {"x": 0.5, "y": 1.5}}
        argvs = [(["check-closed", "--tol", "0.5", "--seed", "3"], form), (["metric"], metric),
                 (["check-closed"], form), (["vdw", "--sn", "2", "--vn", "3", "--a", "2"], None),
                 (["vdw", "--sn", "2", "--vn", "3"], None)]
        together = [_run_cli(*argv) for argv in argvs]
        alone = []
        for argv in argvs:
            cli._parser.cache_clear()
            alone.append(_run_cli(*argv))
        assert together == alone
        assert together[0] != together[2] and together[3] != together[4]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check-closed", "--help"])
        assert exit_info.value.code == EXIT_OK
        assert "--seed" in capsys.readouterr().out


class TestOnePointModel:
    def test_ferroelectric_without_electric_content_is_thermoelastic(self, tmp_path, capsys):
        # the same potential, forcing and start through both models: every
        # column the two traces share is byte-identical
        body = """
potential: "ln(eps) - 0.15*(H1^2+H2^2+H3^2) + 0.05*F11*F22 + 0.02*(F12+F21)^2"
rho: 1.3
k: 0.7
initial:
  eps: 0.5
  F: [[1.0, 0.05, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.1]]
  H: [0.3, -0.1, 0.2]
forcing:
  L: [["0.01*t", "0.1", "0"], ["0", "-0.02", "0.1*t^2"], ["0", "0", "0.03"]]
  divq: "0.02 + 0.01*t^2"
integration: {t1: 1.0, dt: 0.01}
"""
        columns = {}
        for model in ("thermoelastic", "ferroelectric"):
            config = write(tmp_path / f"{model}.yaml", f"model: {model}\n" + body)
            out = tmp_path / f"{model}.csv"
            assert main(["simulate", "--config", config, "--out", str(out)]) == EXIT_OK
            lines = out.read_text().splitlines()
            cells = [line.split(",") for line in lines[1:]]
            columns[model] = {name: [row[i] for row in cells]
                              for i, name in enumerate(lines[0].split(","))}
        te, fe = columns["thermoelastic"], columns["ferroelectric"]
        assert list(te) == ["t", "eps", "F11", "F12", "F13", "F21", "F22", "F23", "F31", "F32",
                            "F33", "H1", "H2", "H3", "theta", "U"]
        assert len(te["t"]) == 101
        for name in te:
            assert fe[name] == te[name], name
        assert set(fe["pi1"]) == {"0"}


def _readme_simulate_table() -> dict:
    """README's simulate schema table: model -> cells after the model, each a list of
    entries, each entry the list of its words (a `key` and its shape, or a coordinate range)."""
    lines = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| Model | Coordinates | Parameters | `initial` | `forcing` | `surface` |")
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        model, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[model.strip("`")] = [[entry.replace("`", "").split() for entry in cell.split(", ")]
                                  for cell in cells]
    return rows


def _shaped(value, word: str):
    """``value`` nested at a README shape: scalar, 3 or 3x3."""
    for n in reversed(() if word == "scalar" else tuple(map(int, word.split("x")))):
        value = [value] * n
    return value


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_the_readme_simulate_table_is_what_simulate_accepts(model, monkeypatch):
    coords, params, initial, forcing, surface = _readme_simulate_table()[model]
    names = list(point.STATE_NAMES)
    coords = [n for (entry,) in coords for first, _, last in [entry.partition("..")]
              for n in names[names.index(first):names.index(last or first) + 1]]
    # the table's config, every coordinate in the potential and sigma: simulate runs it
    terms = "0*(" + " + ".join(coords) + ")"
    doc = {"model": model, "potential": "ln(eps) + " + terms,
           **{name: 1.0 for (name,) in params},
           "initial": {key: _shaped(0.5, shape) if key == "eps" else
                       np.eye(3).tolist() if key == "F" else _shaped(0.0, shape) for key, shape in initial},
           "forcing": {key: _shaped("0", shape) for key, shape in forcing},
           "integration": {"t1": 0.1, "dt": 0.1},
           "surface": {name: "eps + " + terms for (name,) in surface}}
    # and what simulate checks its sections and expressions against, recorded on the way
    allowed, fields, channels = {}, {}, []
    check_keys, field_from, time_fn = cli.cfg.check_keys, cli.cfg.field_from, cli.cfg.time_fn

    def record_keys(d, keys, path):
        allowed[path] = set(keys)
        return check_keys(d, keys, path)

    def record_field(text, names, path):
        fields[path] = names
        return field_from(text, names, path)

    def record_channel(value, path, shape):
        channels.append(path.removeprefix("config.forcing."))
        return time_fn(value, path, shape)

    monkeypatch.setattr(cli.cfg, "check_keys", record_keys)
    monkeypatch.setattr(cli.cfg, "field_from", record_field)
    monkeypatch.setattr(cli.cfg, "time_fn", record_channel)
    code, out, err = _run_cli(["simulate"], doc)
    assert (code, err) == (EXIT_OK, "") and out.split("\n")[0].endswith(",U,sigma_prod,s")
    assert allowed["config"] == {"model", "potential", "initial", "forcing", "integration",
                                 *(name for (name,) in params), "surface"}
    assert allowed["config.initial"] == {key for key, _ in initial}
    assert allowed["config.forcing"] == {key for key, _ in forcing}
    assert channels == [key for key, _ in forcing]  # parsed in the table's order
    assert allowed["config.surface"] == {name for (name,) in surface}
    assert fields["config.potential"] == fields["config.surface.sigma"] == tuple(coords)


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


NO_KERNEL_TO_FORCE = "numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH, so no kernel can be forced"


class TestCpuIndependentBytes:
    """simulate's and check-closed's output paths have no BLAS or LAPACK call, so the
    kernel that OpenBLAS picks for this CPU cannot change a bit of them.  vdw's only
    LAPACK call is the spinodal scan's determinant, of which only the sign is used."""

    CORE_TYPES = ("SkylakeX", "Haswell", "Nehalem", "Prescott")
    FORCING = """
integration: {t1: 0.5, dt: 0.01}
forcing:
  L: [["0.3*t+0.1", "0.7", "-0.45"], ["0.3", "-0.2+0.11*t", "0.9"], ["0.6", "0.13", "0.25-t"]]
  divq: "0.1*t"
"""
    # every other channel of the ferroelectric point, all read from one sweep with L and divq
    ELECTRIC = """
  poynting: "0.02*t^2"
  E: ["0.1*t", "-0.3", "0.05+t"]
  div_e_tensor: ["0.2", "-0.1*t", "0.07"]
  div_J_grad_u: [["0.1", "0", "-0.2*t"], ["0.3*t", "0.05", "0"], ["0", "-0.15", "0.2+0.1*t"]]
  source_grad_u: [["-0.05*t", "0.1", "0"], ["0", "0.2", "-0.1"], ["0.07*t", "0", "0.3"]]
"""
    CONFIGS = {
        "thermoelastic": """
model: thermoelastic
potential: "ln(eps) - 0.15*(H1^2+H2^2+H3^2) - 0.2*(F11^2+F22^2+F33^2) + 0.1*F12*F21 + 0.05*F13*F31*eps"
initial: {eps: 0.7, H: [0.3, -0.2, 0.1]}
""",
        "ferroelectric": """
model: ferroelectric
potential: "ln(eps) - 0.3*(pi1^2+pi2^2+pi3^2) - 0.1*(gpi11^2+gpi12*gpi21+gpi33^2) - 0.2*(F11^2+F22^2)"
initial:
  eps: 0.9
  pi: [0.3, -0.1, 0.2]
  grad_pi: [0.1, 0.2, -0.3, 0.05, 0.1, 0.15, -0.2, 0.3, 0.12]
  u: [0.7, -0.35, 0.4]
  grad_u: [0.31, -0.17, 0.23, 0.41, 0.13, -0.29, 0.37, 0.19, -0.11]
""",
    }

    def run_under_every_kernel(self, script, args):
        """(stdout, exit code) of ``script`` run with ``args``, per forced kernel."""
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        children = [subprocess.Popen([sys.executable, "-W", "error::RuntimeWarning", "-c", script, core, *args],
                                     stdout=subprocess.PIPE,
                                     env=dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=core))
                    for core in self.CORE_TYPES]
        return [(child.communicate(timeout=60)[0], child.returncode) for child in children]

    @pytest.mark.skipif(not _dynamic_openblas(), reason=NO_KERNEL_TO_FORCE)
    def test_simulate_bytes_are_the_same_under_every_kernel(self, tmp_path):
        # a general L and nonzero u, grad u: the products L F and LE . u went through BLAS
        paths = [write(tmp_path / f"{name}.yaml", text + self.FORCING + self.ELECTRIC * (name == "ferroelectric"))
                 for name, text in self.CONFIGS.items()]
        script = ("import sys; from thermoform.cli import main\n"
                  "sys.exit(max(main(['simulate', '--config', p, '--out', f'{p}.{sys.argv[1]}.csv'])"
                  " for p in sys.argv[2:]))")
        runs = self.run_under_every_kernel(script, paths)
        assert [code for _, code in runs] == [EXIT_OK] * len(self.CORE_TYPES)
        for path in paths:
            outputs = {pathlib.Path(f"{path}.{core}.csv").read_bytes() for core in self.CORE_TYPES}
            assert len(outputs) == 1, path

    @pytest.mark.skipif(not _dynamic_openblas(), reason=NO_KERNEL_TO_FORCE)
    @pytest.mark.parametrize("flags", [[], ["--a", "1.3", "--b", "0.07", "--vmin", "0.1", "--vmax", "5",
                                            "--vn", "200"]], ids=["default", "wide"])
    def test_vdw_bytes_are_the_same_under_every_kernel(self, tmp_path, flags):
        # the spinodal grid's determinants are one stacked LAPACK call
        out = str(tmp_path / "vdw")
        script = ("import sys; from thermoform.cli import main\n"
                  "sys.exit(main(['vdw', '--out', f'{sys.argv[2]}.{sys.argv[1]}.csv', *sys.argv[3:]]))")
        runs = self.run_under_every_kernel(script, [out, *flags])
        assert {code for _, code in runs} == {EXIT_OK}
        assert len({stdout for stdout, _ in runs}) == 1
        assert json.loads(runs[0][0])["spinodal_V_at_S0"]
        assert len({pathlib.Path(f"{out}.{core}.csv").read_bytes() for core in self.CORE_TYPES}) == 1

    @pytest.mark.skipif(not _dynamic_openblas(), reason=NO_KERNEL_TO_FORCE)
    def test_check_closed_bytes_are_the_same_under_every_kernel(self, tmp_path):
        config = write(tmp_path / "c.yaml", """
coords: [x, y, z]
coefficients: {x: "exp(0.3*y*z) + x", y: "ln(1 + x^2)*sqrt(z + 2)", z: "sqrt(x*y + 1)*exp(-z)"}
box: {x: [0.1, 1.3], y: [-0.7, 0.9], z: [0.2, 1.1]}
count: 64
""")
        script = "import sys; from thermoform.cli import main; sys.exit(main(sys.argv[2:]))"
        runs = self.run_under_every_kernel(script, ["check-closed", "--config", config])
        assert {code for _, code in runs} == {EXIT_NOT_CLOSED}
        assert len({out for out, _ in runs}) == 1
        assert json.loads(runs[0][0])["samples"] == 64


class TestBenchmarkScenarios:
    def test_outputs_match_the_benchmark_golden_copy(self, tmp_path, capsys):
        # the benchmark's eight CLI scenarios, checked as its workload checks them
        perfbench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
        sys.path.insert(0, str(perfbench))
        try:
            workloads = importlib.import_module("workloads")
        finally:
            sys.path.remove(str(perfbench))
        directory = str(tmp_path)
        workloads.write_cli_inputs(directory)
        golden = workloads.load_golden()["cli"]
        assert set(golden) == set(workloads.CLI_SCENARIOS)
        for sub in workloads.CLI_SCENARIOS:
            assert main(workloads.cli_argv(directory, sub)) == EXIT_OK, sub
            captured = capsys.readouterr()
            assert captured.err == "", sub
            text = workloads.read_output(directory, sub, captured.out)
            assert workloads.cli_output_matches(text, golden[sub]), sub
