"""Command-line surface: closeness checks, simulations, surfaces, process reports.

All outputs are deterministic: CSV cells are printed with 17 significant
digits and LF line endings, JSON keys are sorted.  Exit codes: 0 success,
1 config/schema error, 2 closeness check failed, 3 mid-run domain exit.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import config as cfg
from .expr import DomainError
from .geometry import ContactChart, GeometryError, OneForm, low_discrepancy_samples, potential_form, worst_residual
from .legendre import ConstitutiveSurface, GibbsConnection, connection_curvature, pullback_contact, surface_embed
from .processes import (ProcessCurve, ProcessError, _metric_det, admissibility, entropy_action,
                        spinodal_scan, thermo_metric)
from .point import (_POTENTIAL_NAMES, STATE_NAMES, Constitutive, FerroelectricState, Forcing, ModelError,
                    ThermoelasticState, _gradient, _rk4)
from .vdw import vdw_potential

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CLOSED = 2
EXIT_DOMAIN = 3
MAX_SAMPLES = 1_000_000  # sample or grid points; numpy cannot even size 10^30 of them


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """Write ``rows``, any iterable, as it yields them: to stdout when ``path`` is None."""
    try:
        out = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    except OSError as exc:
        raise cfg.ConfigError(f"--out: cannot write {path!r}: {exc.strerror}") from None
    with out as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _read_curve(path: str, coords: tuple[str, ...]) -> ProcessCurve:
    if not isinstance(path, str):  # an int would be opened as a file descriptor
        raise cfg.ConfigError(f"config.curve: expected a file path string, got {path!r}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "t":
                raise cfg.ConfigError(f"curve file {path}: first column must be 't'")
            cols = tuple(header[1:])
            for name in (c for i, c in enumerate(cols) if c in cols[:i]):
                raise cfg.ConfigError(f"curve file {path}: duplicate column {name!r}")
            missing = set(coords) - set(cols)
            if missing:
                raise cfg.ConfigError(f"curve file {path}: missing columns {sorted(missing)}")
            times, rows = [], []
            for line in reader:
                if not line:
                    continue
                where = f"curve file {path}, line {reader.line_num}"
                if len(line) != len(header):
                    raise cfg.ConfigError(f"{where}: expected {len(header)} cells, got {len(line)}")
                try:
                    values = [float(v) for v in line]
                except ValueError as exc:
                    raise cfg.ConfigError(f"{where}: {exc}") from None
                times.append(values[0])
                rows.append(values[1:])
    except OSError as exc:
        raise cfg.ConfigError(f"cannot read curve file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise cfg.ConfigError(f"curve file {path}: {exc}") from None
    pts = np.array(rows).reshape(-1, len(cols))[:, [cols.index(name) for name in coords]]
    return ProcessCurve(coords, np.array(times), pts)


def _span(lo: float, hi: float, path: str) -> None:
    if not math.isfinite(hi - lo):  # sampling and np.linspace scale by hi - lo as a float
        raise cfg.ConfigError(f"{path}: the span of [{lo!r}, {hi!r}] is not a finite float")


def _interval(entry, path: str) -> tuple[float, float]:
    if not isinstance(entry, list) or len(entry) != 2:
        raise cfg.ConfigError(f"{path}: expected [lo, hi]")
    lo, hi = (cfg.as_number(v, path) for v in entry)
    if not lo < hi:
        raise cfg.ConfigError(f"{path}: need lo < hi")
    _span(lo, hi, path)
    return lo, hi


def _capped(count: int, path: str, what: str) -> int:
    if count > MAX_SAMPLES:
        raise cfg.ConfigError(f"{path}: at most {MAX_SAMPLES} {what}, got {count}")
    return count


def _linspace(start: float, stop: float, count: int, path: str) -> np.ndarray:
    _span(start, stop, path)
    return np.linspace(start, stop, count)


def _axis(entry, path: str) -> np.ndarray:
    if not isinstance(entry, list) or len(entry) != 3:
        raise cfg.ConfigError(f"{path}: expected [start, stop, count]")
    return _linspace(cfg.as_number(entry[0], path), cfg.as_number(entry[1], path),
                     _capped(cfg.as_count(entry[2], path), path, "samples"), path)


def _tolerance(flag: float | None, doc: dict, default: float) -> float:
    """``--tol``, else ``config.tol``, else ``default``; a negative one would decide the verdict alone."""
    path = "--tol" if flag is not None else "config.tol"
    tol = flag if flag is not None else cfg.as_number(doc.get("tol", default), path)
    if tol < 0:
        raise cfg.ConfigError(f"{path}: tolerance must be a number >= 0, got {tol!r}")
    return tol


def _coefficients(doc: dict, names: tuple[str, ...], coords: tuple[str, ...]) -> tuple:
    """``config.coefficients``: one expression in ``coords`` per name of ``names``."""
    return tuple(cfg.per_name(cfg.need(doc, "coefficients", "config"), names, "config.coefficients",
                              lambda text, path: cfg.field_from(text, coords, path)).values())


def _load_form(doc: dict, coords: tuple[str, ...]) -> OneForm:
    if ("potential" in doc) == ("coefficients" in doc):
        raise cfg.ConfigError("config: give exactly one of 'potential' or 'coefficients'")
    if "potential" in doc:
        return potential_form(cfg.field_from(doc["potential"], coords, "config.potential"))
    return OneForm(coords, _coefficients(doc, coords, coords))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_closed(args) -> int:
    doc = cfg.load_yaml(args.config)
    cfg.check_keys(doc, {"coords", "potential", "coefficients", "box", "count", "tol"}, "config")
    coords = cfg.as_name_list(cfg.need(doc, "coords", "config"), "config.coords")
    form = _load_form(doc, coords)
    box = cfg.per_name(cfg.need(doc, "box", "config"), coords, "config.box", _interval)
    count = _capped(cfg.as_count(doc.get("count", 64), "config.count"), "config.count", "sample points")
    tol = _tolerance(args.tol, doc, 1e-8)

    worst, worst_pair = worst_residual(form, low_discrepancy_samples(box, count, seed=args.seed))
    closed = worst <= tol
    _print_json({
        "closed": closed,
        "max_residual": worst,
        "worst_pair": list(worst_pair),
        "tol": tol,
        "samples": count,
    })
    return EXIT_OK if closed else EXIT_NOT_CLOSED


def _init_vector(doc, key: str, size: int, path: str) -> np.ndarray:
    value = doc.get(key)
    if value is None:
        return np.zeros(size)
    try:
        flat = np.asarray(value, dtype=float).ravel()
    except (TypeError, ValueError):
        flat = None
    if flat is None or flat.size != size or not np.isfinite(flat).all():
        raise cfg.ConfigError(f"{path}.{key}: expected {size} finite numbers")
    return flat


# model name: (state class, the constitutive parameters after the potential, each defaulting to 1)
_MODELS = {"thermoelastic": (ThermoelasticState, ("rho", "k")),
           "ferroelectric": (FerroelectricState, ("rho", "k", "inertia"))}
_FORCING_KEYS = {"E_ext": "E", "poynting_term": "poynting"}  # the config keys that are not Forcing field names


def _load_integration(doc) -> tuple[float, float, int]:
    """(t0, dt, step count); t1 - t0 must be a whole number of steps."""
    cfg.check_keys(doc, {"t0", "t1", "dt"}, "config.integration")
    t0 = cfg.as_number(doc.get("t0", 0.0), "config.integration.t0")
    t1 = cfg.as_number(cfg.need(doc, "t1", "config.integration"), "config.integration.t1")
    dt = cfg.as_number(cfg.need(doc, "dt", "config.integration"), "config.integration.dt")
    if dt <= 0 or t1 <= t0:
        raise cfg.ConfigError("config.integration: need dt > 0 and t1 > t0")
    steps = (t1 - t0) / dt
    n_steps = round(steps) if math.isfinite(steps) else 0
    # a relative slack for the rounding of dt itself (0.001 is not a binary fraction)
    if n_steps < 1 or abs(steps - n_steps) > 1e-9 * n_steps:
        raise cfg.ConfigError(f"config.integration.dt: t1 - t0 = {t1 - t0!r} is not a whole "
                              f"number of steps of {dt!r}")
    return t0, dt, _capped(n_steps, "config.integration", "steps")


def cmd_simulate(args) -> int:
    doc = cfg.load_yaml(args.config)
    model = cfg.need(doc, "model", "config")
    if not isinstance(model, str) or model not in _MODELS:
        raise cfg.ConfigError(f"config.model: unknown model {model!r}")
    state, params = _MODELS[model]
    cfg.check_keys(doc, {"model", "potential", "initial", "forcing", "integration", "surface",
                         *params}, "config")
    u = cfg.field_from(cfg.need(doc, "potential", "config"), state._COORDS, "config.potential")
    constitutive = Constitutive(u, **{
        name: cfg.as_number(doc.get(name, 1.0), f"config.{name}") for name in params})
    init = cfg.need(doc, "initial", "config")
    blocks = [(name, math.prod(shape)) for name, shape, _ in state._BLOCKS[1:]]  # after F
    cfg.check_keys(init, {"eps", "F", *(name for name, _ in blocks)}, "config.initial")
    y = state(cfg.as_number(cfg.need(init, "eps", "config.initial"), "config.initial.eps"),
              _init_vector(init, "F", 9, "config.initial") if "F" in init else np.eye(3),
              *(_init_vector(init, name, size, "config.initial") for name, size in blocks)).vector().tolist()
    fdoc = doc.get("forcing") or {}
    channels = [(_FORCING_KEYS.get(name, name), name, shape) for name, shape in state._CHANNELS]
    cfg.check_keys(fdoc, {key for key, _, _ in channels}, "config.forcing")
    forcing = Forcing(**{name: cfg.time_fn(fdoc.get(key), f"config.forcing.{key}", shape)
                         for key, name, shape in channels})
    t0, dt, n_steps = _load_integration(cfg.need(doc, "integration", "config"))

    sigma = None
    if "surface" in doc:
        sigma = cfg.per_name(doc["surface"], ("sigma",), "config.surface",
                             lambda text, path: cfg.field_from(text, state._COORDS, path))["sigma"]

    header = ["t", *STATE_NAMES[:len(y)], "theta", "U"]
    if sigma is not None:
        header += ["sigma_prod", "s"]

    def row(t: float, y: list) -> list[float]:
        b = dict(zip(_POTENTIAL_NAMES, y))  # state order, which for the ferroelectric point is not FE_COORDS
        out = [t, *y, 1.0 / _gradient(constitutive, y)[0], u.value(b)]
        if sigma is not None:
            sv = sigma.value(b)
            out += [sv, out[-1] + sv]
        return out

    exits = []

    def trace(y):  # rows as they are made; the output is opened after the first
        for i in range(n_steps):
            t = t0 + i * dt
            try:
                y = _rk4(y, constitutive, forcing, t, dt)
                yield row(t0 + (i + 1) * dt, y)
            except (ModelError, DomainError) as exc:
                print(f"domain exit at t={t}: {exc}", file=sys.stderr)
                exits.append(EXIT_DOMAIN)
                return

    _write_csv(args.out, header, itertools.chain([row(t0, y)], trace(y)))
    return exits[0] if exits else EXIT_OK


def _surface_from(doc) -> ConstitutiveSurface:
    coords = cfg.as_name_list(cfg.need(doc, "coords", "config"), "config.coords")
    u = cfg.field_from(cfg.need(doc, "potential", "config"), coords, "config.potential")
    sigma = cfg.field_from(doc.get("sigma", "0"), coords, "config.sigma")
    try:
        chart = ContactChart(n=len(coords), q_names=coords, p_names=tuple("p_" + c for c in coords))
    except GeometryError as exc:
        raise cfg.ConfigError(f"config.coords: {exc}: the chart adds 's' and 'p_<name>' per name") from None
    return ConstitutiveSurface(chart, u, sigma)


def cmd_surface(args) -> int:
    doc = cfg.load_yaml(args.config)
    cfg.check_keys(doc, {"coords", "potential", "sigma", "grid"}, "config")
    surface = _surface_from(doc)
    coords = surface.chart.q_names
    axes = cfg.per_name(cfg.need(doc, "grid", "config"), coords, "config.grid", _axis).values()
    _capped(math.prod(map(len, axes)), "config.grid", "grid points")

    header = [*coords, "s", *(f"p_{c}" for c in coords), *(f"res_{c}" for c in coords)]
    rows = []
    for values in itertools.product(*axes):
        q = dict(zip(coords, map(float, values)))
        point = surface_embed(surface, q)
        res = pullback_contact(surface, q)
        rows.append([*values, point[surface.chart.s_name],
                     *(point[p] for p in surface.chart.p_names), *res])
    _write_csv(args.out, header, rows)
    return EXIT_OK


def cmd_admissible(args) -> int:
    doc = cfg.load_yaml(args.config)
    cfg.check_keys(doc, {"coords", "potential", "sigma", "curve", "tol"}, "config")
    surface = _surface_from(doc)
    curve = _read_curve(cfg.need(doc, "curve", "config"), surface.chart.q_names)
    tol = _tolerance(args.tol, doc, 1e-9)
    report = admissibility(surface, curve, tol=tol)
    if args.out:  # before the JSON, so that a failed write leaves stdout empty
        _write_csv(args.out, ["sample", "rate"],
                   [[float(i + 1), float(r)] for i, r in enumerate(report.rates)])
    _print_json({
        "admissible": report.admissible,
        "violating_intervals": list(report.violating_intervals),
        "rates": [float(r) for r in report.rates],
        "delta_sigma": report.delta_sigma,
        "delta_U": report.delta_U,
        "delta_s": report.delta_s,
        "tol": tol,
    })
    return EXIT_OK


def cmd_metric(args) -> int:
    doc = cfg.load_yaml(args.config)
    cfg.check_keys(doc, {"coords", "potential", "point"}, "config")
    coords = cfg.as_name_list(cfg.need(doc, "coords", "config"), "config.coords")
    u = cfg.field_from(cfg.need(doc, "potential", "config"), coords, "config.potential")
    point = cfg.per_name(cfg.need(doc, "point", "config"), coords, "config.point", cfg.as_number)
    hess = thermo_metric(u, point)
    _print_json({"metric": [[float(v) for v in row] for row in hess], "det": _metric_det(u, [hess])[0]})
    return EXIT_OK


def cmd_action(args) -> int:
    doc = cfg.load_yaml(args.config)
    cfg.check_keys(doc, {"coords", "potential", "coefficients", "curve"}, "config")
    coords = cfg.as_name_list(cfg.need(doc, "coords", "config"), "config.coords")
    form = _load_form(doc, coords)
    curve = _read_curve(cfg.need(doc, "curve", "config"), coords)
    _print_json({"action": entropy_action(curve, form)})
    return EXIT_OK


def cmd_curvature(args) -> int:
    doc = cfg.load_yaml(args.config)
    cfg.check_keys(doc, {"s", "coords", "coefficients", "point"}, "config")
    q_names = cfg.as_name_list(cfg.need(doc, "coords", "config"), "config.coords")
    s_name = doc.get("s", "s")
    if not isinstance(s_name, str) or s_name in q_names:
        raise cfg.ConfigError(f"config.s: expected a name not in config.coords, got {s_name!r}")
    connection = GibbsConnection(s_name, q_names, _coefficients(doc, q_names, (s_name,) + q_names))
    point = cfg.per_name(cfg.need(doc, "point", "config"), connection.coords, "config.point", cfg.as_number)
    omega = connection_curvature(connection, point)
    _print_json({"curvature": [[float(v) for v in row] for row in omega]})
    return EXIT_OK


def cmd_vdw(args) -> int:
    _capped(args.sn * args.vn, "--sn x --vn", "grid points")
    u = vdw_potential(a=args.a, b=args.b, R=args.r, c_V=args.cv)
    s_axis = _linspace(args.smin, args.smax, args.sn, "--smin, --smax")
    v_axis = _linspace(args.vmin, args.vmax, args.vn, "--vmin, --vmax")
    rows = []
    for s_val, v_val in itertools.product(s_axis, v_axis):
        q = {"S": float(s_val), "V": float(v_val)}
        try:
            g = u.finite_grad(q, ("dU/dS", "dU/dV"))
        except DomainError as exc:  # the grid point, on the error path only
            raise DomainError(f"{exc} at S={q['S']!r}, V={q['V']!r}") from None
        rows.append([s_val, v_val, u.value(q), float(g[0]), -float(g[1])])
    # the scan rejects an empty V range, so it runs before any output is written
    roots = spinodal_scan(u, "V", args.vmin, args.vmax, {"S": 0.0}, xtol=1e-4)
    _write_csv(args.out, ["S", "V", "U", "T", "p"], rows)
    _print_json({
        "params": {"a": args.a, "b": args.b, "R": args.r, "c_V": args.cv},
        "spinodal_V_at_S0": roots,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, a configuration error; argparse's own 2 means "not closed" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    if int(text) > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"at most {MAX_SAMPLES} samples, got {text!r}")
    return int(text)


_FLAGS = {
    "out": dict(default=None, help="output path (default: stdout)"),
    "tol": dict(type=_finite, default=None, help="tolerance override"),
    "seed": dict(type=int, default=0, help="sample-point generation seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thermoform")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, flags in [("check-closed", cmd_check_closed, ("tol", "seed")),
                            ("simulate", cmd_simulate, ("out",)),
                            ("surface", cmd_surface, ("out",)),
                            ("admissible", cmd_admissible, ("tol", "out")),
                            ("metric", cmd_metric, ()),
                            ("action", cmd_action, ()),
                            ("curvature", cmd_curvature, ())]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(fn=fn)

    p = sub.add_parser("vdw", help="built-in van der Waals constitutive law")
    p.add_argument("--out", **_FLAGS["out"])
    p.add_argument("--a", type=_finite, default=1.0)
    p.add_argument("--b", type=_finite, default=0.1)
    p.add_argument("--r", type=_finite, default=1.0)
    p.add_argument("--cv", type=_finite, default=1.5)
    p.add_argument("--smin", type=_finite, default=-0.5)
    p.add_argument("--smax", type=_finite, default=0.5)
    p.add_argument("--sn", type=_count, default=5)
    p.add_argument("--vmin", type=_finite, default=0.15)
    p.add_argument("--vmax", type=_finite, default=3.0)
    p.add_argument("--vn", type=_count, default=60)
    p.set_defaults(fn=cmd_vdw)
    return parser


_parser = functools.cache(build_parser)  # main's parser, built once: parsing leaves no state on it


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed stdout early fails here, not in the interpreter's last flush
        return code
    except (cfg.ConfigError, ModelError, DomainError, GeometryError, ProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:  # stdout now writes to devnull, so what is still buffered goes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
