"""The four workloads.  Each builds its inputs from the seed (its set-up) and
exposes one pass as a list of items: zero-argument callables that run one
unit of work through thermoform's public functions, check the output and
return True when it is correct.

Module functions are always looked up at call time (``te.step``, not a
name imported once), so the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np

from thermoform import cli
from thermoform import config as cfg
from thermoform import expr, geometry, legendre, processes, vdw
from thermoform import ferroelectric as fe
from thermoform import thermoelastic as te

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def close(a, b, rel: float, abs_: float = 0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= abs_ + rel * np.abs(b)))


def _flatten(nested):
    if isinstance(nested, str):
        return [nested]
    return [text for part in nested for text in _flatten(part)]


class Workload:
    points_per_item = 1  # sample points one item evaluates; rates and latencies are per point
    round_items = None  # a timing window ends after a multiple of this many items (None: a pass)

    def items(self) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        """Items run once, untimed, before timing starts."""
        return self.items()

    def expressions(self) -> list:
        """Expression trees the workload evaluates, for the node counts."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# integrate: one item = one RK4 step of one of three trajectories, round robin
# ---------------------------------------------------------------------------

class _Trajectory:
    """Fixed-length segments from a fixed initial state; the step that ends a
    segment checks the final state and restarts from the initial one."""

    def __init__(self, initial, advance, check, steps: int, dt: float):
        self.initial, self.advance, self.check = initial, advance, check
        self.steps, self.dt = steps, dt
        self.state, self.i = initial, 0
        self.t_end = steps * dt

    def item(self) -> bool:
        i = self.i
        self.i = 0  # a raising step restarts the segment
        self.state = self.advance(self.state, i * self.dt, self.dt)
        if i + 1 < self.steps:
            self.i = i + 1
            return True
        final, self.state = self.state, self.initial
        return self.check(final)


def readme_model():
    """The README thermoelastic run: constitutive law, forcing and initial state."""
    run = inputs.README_RUN
    potential = expr.ScalarField.from_text(run["potential"], te.BASE_COORDS)
    forcing = te.ThermoelasticForcing(L=cfg.time_fn_matrix(run["L"], "forcing.L"),
                                      divq=cfg.time_fn_scalar(run["divq"], "forcing.divq"))
    return (te.ThermoelasticConstitutive(potential, rho=1.0, k=1.0), forcing,
            te.ThermoelasticState(eps=run["eps0"], F=np.eye(3), H=run["H0"]))


class Integrate(Workload):
    round_items = 3  # one step of each trajectory

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng([seed, 1])
        steps = 100 if smoke else 1000
        dt = inputs.README_RUN["dt"]
        golden = load_golden()["readme_final_state"][str(steps)]
        t_end = steps * dt

        te_c, te_f, te_x0 = readme_model()
        self.te_potential = te_c.potential
        te_exact = inputs.readme_oracle(t_end)

        def te_check(x):
            y = x.vector()
            return close(y, golden, 1e-12, 1e-15) and close(y, te_exact, 1e-12, 1e-14)

        orbit = inputs.HarmonicOrbit(rng)
        self.orbit_potential = expr.ScalarField.from_text(orbit.potential(), fe.FE_COORDS)
        orbit_c = fe.FerroelectricConstitutive(self.orbit_potential, rho=1.0, k=1.0)
        orbit_f = fe.FerroelectricForcing()
        orbit_x0 = fe.FerroelectricState(eps=1.0, F=np.eye(3), H=np.zeros(3), pi=orbit.pi0,
                                         grad_pi=np.zeros((3, 3)), u=orbit.u0,
                                         grad_u=np.zeros((3, 3)))

        pi_end, u_end = orbit.pi_u(t_end)

        def orbit_check(x):
            return close(x.pi, pi_end, 0.0, 1e-6) and close(x.u, u_end, 0.0, 1e-6)

        forced = inputs.ForcedOrbit(rng)
        self.forced_potential = expr.ScalarField.from_text(forced.potential(), fe.FE_COORDS)
        forced_c = fe.FerroelectricConstitutive(self.forced_potential, rho=1.0, k=1.0)
        texts = forced.forcing_texts()
        self.forcing_texts = texts
        forced_f = fe.FerroelectricForcing(
            E_ext=cfg.time_fn_vector(texts["E"], "forcing.E"),
            L=cfg.time_fn_matrix(texts["L"], "forcing.L"),
            divq=cfg.time_fn_scalar(texts["divq"], "forcing.divq"),
            poynting_term=cfg.time_fn_scalar(texts["poynting"], "forcing.poynting"),
            div_e_tensor=cfg.time_fn_vector(texts["div_e_tensor"], "forcing.div_e_tensor"),
            div_J_grad_u=cfg.time_fn_matrix(texts["div_J_grad_u"], "forcing.div_J_grad_u"),
            source_grad_u=cfg.time_fn_matrix(texts["source_grad_u"], "forcing.source_grad_u"),
        )
        forced_x0 = fe.FerroelectricState.from_vector(forced.state(0.0))
        forced_end = forced.state(t_end)

        def forced_check(x):
            return close(x.vector(), forced_end, 0.0, 1e-8)

        def te_advance(x, t, h):
            return te.step(x, te_c, te_f, t, h)

        def fe_advance(c, f):
            return lambda x, t, h: fe.fe_step(x, c, f, t, h)

        self.trajectories = [
            _Trajectory(te_x0, te_advance, te_check, steps, dt),
            _Trajectory(orbit_x0, fe_advance(orbit_c, orbit_f), orbit_check, steps, dt),
            _Trajectory(forced_x0, fe_advance(forced_c, forced_f), forced_check, steps, dt),
        ]

    def items(self):
        one_round = [t.item for t in self.trajectories]
        return one_round * self.trajectories[0].steps

    def expressions(self):
        trees = [self.te_potential.expression, self.orbit_potential.expression,
                 self.forced_potential.expression]
        texts = [*self.forcing_texts.values(), inputs.README_RUN["L"], inputs.README_RUN["divq"]]
        return trees + [expr.parse(text) for text in _flatten(texts)]


# ---------------------------------------------------------------------------
# certify: one item = one is_closed call over a chunk of a form's sample points
# ---------------------------------------------------------------------------

class Certify(Workload):
    """Each form is checked on 64 Halton points (acceptance 02), in is_closed
    calls of ``points_per_item`` points each: a batched evaluator gets real
    batches, and a timed run still holds over a thousand calls for the tail."""
    points_per_item = 8

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng([seed, 2])
        n_fe, n_te, points = (1, 1, 8) if smoke else (6, 3, 64)
        box_fe = {n: (0.05, 0.3) for n in fe.FE_COORDS}
        box_te = {n: (0.05, 0.3) for n in te.BASE_COORDS}
        jobs = []  # (form, box, expected residual or None for closed)
        for k in range(n_fe):
            poly = inputs.RandomPolynomial(fe.FE_COORDS, rng, k, terms=8, degree=3, offset=10.0)
            c = fe.FerroelectricConstitutive(
                expr.ScalarField.from_text(poly.text(), fe.FE_COORDS), rho=1.5, k=1.0)
            jobs.append((fe.fe_entropy_form(*fe.fe_potential_coefficients(c), rho=c.rho), box_fe, None))
        for k in range(n_te):
            poly = inputs.RandomPolynomial(te.BASE_COORDS, rng, 100 + k, terms=8, degree=3, offset=10.0)
            c = te.ThermoelasticConstitutive(
                expr.ScalarField.from_text(poly.text(), te.BASE_COORDS), rho=1.5, k=1.0)
            jobs.append((te.entropy_form(*te.potential_coefficients(c), rho=c.rho), box_te, None))
        # Controls: one closed form of each model with c*x_j added to coefficient i,
        # so d(eta)_ij = c at every point.  A shortcut that skips work fails here.
        for form, box, _ in (jobs[0], jobs[n_fe]):
            i, j = (int(v) for v in rng.choice(len(form.coords), size=2, replace=False))
            c = float(rng.uniform(0.5, 1.0))
            coeffs = list(form.coefficients)
            coeffs[i] = expr.ScalarField(
                expr.add(coeffs[i].expression, expr.mul(expr.const(c), expr.var(form.coords[j]))),
                form.coords)
            jobs.append((geometry.OneForm(form.coords, tuple(coeffs)), box, c))

        self.forms = [form for form, _, _ in jobs]
        self._items = []
        chunk = self.points_per_item
        for form, box, expected in jobs:
            skip = int(rng.integers(0, 4096))
            samples = geometry.low_discrepancy_samples(box, points, seed=skip)
            for k in range(0, points, chunk):
                self._items.append(self._item(form, samples[k:k + chunk], expected))
        order = rng.permutation(len(self._items))
        self._items = [self._items[k] for k in order]

    @staticmethod
    def _item(form, xs, expected):
        def item():
            closed, worst = geometry.is_closed(form, xs, tol=1e-8)
            if expected is None:
                return closed and worst <= 1e-8
            return not closed and abs(worst - expected) <= 1e-9
        return item

    def items(self):
        return self._items

    def expressions(self):
        return [c.expression for form in self.forms for c in form.coefficients]


# ---------------------------------------------------------------------------
# scan: one item = one grid point, spinodal scan or curve sample
# ---------------------------------------------------------------------------

class Scan(Workload):

    def __init__(self, seed: int, smoke: bool):
        rng = np.random.default_rng([seed, 3])
        # ng and m put the median item inside the cluster of surface, action and
        # admissibility items, not in the gap below it, where it would swing
        # between runs.
        ns, nv, ng, m = (3, 8, 2, 12) if smoke else (5, 60, 6, 300)
        items = []

        # What `thermoform vdw` does with its defaults, over seeded ranges near
        # them: the U, T, p table over an S x V grid (5 x 60), then one
        # spinodal_scan at S = 0 over the whole V range with its default
        # samples (Hessian calls, bisection at the one root).
        u = vdw.vdw_potential()
        self.vdw_potential = u
        vmin, vmax = rng.uniform(0.15, 0.17), rng.uniform(2.9, 3.1)
        for s in np.linspace(rng.uniform(-0.55, -0.45), rng.uniform(0.45, 0.55), ns):
            for v in np.linspace(vmin, vmax, nv):
                items.append(self._table_item(u, float(s), float(v)))
        items.append(self._spinodal_item(u, float(vmin), float(vmax)))

        # Reeb-shifted constitutive surface over 3 coordinates
        q3 = ("q1", "q2", "q3")
        chart = geometry.ContactChart(n=3, q_names=q3, p_names=("p1", "p2", "p3"))
        pu = inputs.RandomPolynomial(q3, rng, 1, terms=6, degree=3)
        ps = inputs.RandomPolynomial(q3, rng, 2, terms=6, degree=3)
        surface = legendre.ConstitutiveSurface(chart, expr.ScalarField.from_text(pu.text(), q3),
                                               expr.ScalarField.from_text(ps.text(), q3))
        axes = [np.linspace(rng.uniform(-1.0, -0.8), rng.uniform(0.8, 1.0), ng) for _ in q3]
        for a in axes[0]:
            for b in axes[1]:
                for c in axes[2]:
                    items.append(self._surface_item(surface, pu, ps, np.array([a, b, c])))

        # long curves over 2 coordinates: action of an exact form per interval,
        # production rate and rate relation per interior sample
        q2 = ("q1", "q2")
        times = np.linspace(0.0, 1.0, m + 1)
        phase, radius = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.3, 0.8)
        pts = np.column_stack([radius * np.cos(2 * math.pi * times + phase),
                               radius * np.sin(4 * math.pi * times + phase)])
        pa = inputs.RandomPolynomial(q2, rng, 3, terms=6, degree=3)
        exact = geometry.potential_form(expr.ScalarField.from_text(pa.text(), q2))
        for i in range(m):
            items.append(self._action_item(exact, pa, processes.ProcessCurve(
                q2, times[i:i + 2], pts[i:i + 2])))

        chart2 = geometry.ContactChart(n=2, q_names=q2, p_names=("p1", "p2"))
        pu2 = inputs.RandomPolynomial(q2, rng, 4, terms=6, degree=3)
        ps2 = inputs.RandomPolynomial(q2, rng, 5, terms=6, degree=3)
        surface2 = legendre.ConstitutiveSurface(chart2, expr.ScalarField.from_text(pu2.text(), q2),
                                                expr.ScalarField.from_text(ps2.text(), q2))
        for i in range(1, m):
            items.append(self._admissibility_item(surface2, ps2, processes.ProcessCurve(
                q2, times[i - 1:i + 2], pts[i - 1:i + 2])))

        # degree <= 2, so central differences of its gradient are exact
        quad = inputs.RandomPolynomial(q2, rng, 6, terms=6, degree=2)
        quad_field = expr.ScalarField.from_text(quad.text(), q2)
        v0, v1, v2 = rng.uniform(-1.0, 1.0, (3, 2))
        parabola = v0 + np.outer(times, v1) + np.outer(times ** 2, v2)
        for i in range(1, m):
            items.append(self._rate_item(quad_field, processes.ProcessCurve(
                q2, times[i - 1:i + 2], parabola[i - 1:i + 2])))

        self.fields = [surface.potential, surface.production, *exact.coefficients,
                       surface2.potential, surface2.production, quad_field]
        order = rng.permutation(len(items))
        self._items = [items[k] for k in order]

    @staticmethod
    def _table_item(u, s, v):
        want = inputs.vdw_table_oracle(s, v)

        def item():
            q = {"S": s, "V": v}
            value = u.value(q)
            g = u.grad(q)
            return close([value, g[0], -g[1]], want, 1e-12, 1e-14)
        return item

    @staticmethod
    def _spinodal_item(u, lo, hi):
        def item():
            roots = processes.spinodal_scan(u, "V", lo, hi, {"S": 0.0}, xtol=1e-4)
            return len(roots) == 1 and abs(roots[0] - inputs.SPINODAL_ROOT) <= 1e-4
        return item

    @staticmethod
    def _surface_item(surface, pu, ps, q):
        binding = dict(zip(surface.chart.q_names, map(float, q)))
        want = [pu.value(q) + ps.value(q), *pu.grad(q), *ps.grad(q)]

        def item():
            point = legendre.surface_embed(surface, binding)
            res = legendre.pullback_contact(surface, binding)
            got = [point["s"], *(point[p] for p in surface.chart.p_names), *res]
            return close(got, want, 1e-12, 1e-12)
        return item

    @staticmethod
    def _action_item(form, pa, curve):
        want = pa.value(curve.points[1]) - pa.value(curve.points[0])

        def item():
            return close(processes.entropy_action(curve, form, nodes=4), want, 1e-10, 1e-13)
        return item

    @staticmethod
    def _admissibility_item(surface, ps, curve):
        tangent = (curve.points[2] - curve.points[0]) / (curve.times[2] - curve.times[0])
        want = float(ps.grad(curve.points[1]) @ tangent)

        def item():
            report = processes.admissibility(surface, curve)
            return (close(report.rates, [want], 1e-10, 1e-12)
                    and report.admissible == bool(report.rates[0] >= -1e-9))
        return item

    @staticmethod
    def _rate_item(field, curve):
        def item():
            return float(processes.rate_relation_residual(field, curve).max()) <= 1e-9
        return item

    def items(self):
        return self._items

    def expressions(self):
        return [self.vdw_potential.expression] + [f.expression for f in self.fields]


# ---------------------------------------------------------------------------
# cli: one item = one subcommand through cli.main
# ---------------------------------------------------------------------------

CURVE_CSV = "t,q1,q2\n0.0,0.0,1.0\n0.5,0.2,1.0\n1.0,0.4,1.0\n1.5,0.6,1.0\n"
CLI_CONFIGS = {  # the acceptance-test shapes; "{curve}" is the curve file's path
    "closed.yaml": "coords: [x, y]\npotential: \"x^2*y\"\n"
                   "box: {x: [0.5, 1.5], y: [0.5, 1.5]}\ncount: 16\n",
    "sim.yaml": "model: thermoelastic\npotential: \"ln(eps) - 0.1*(H1^2+H2^2+H3^2)\"\n"
                "initial: {eps: 0.5, H: [1.0, 0.0, 0.0]}\n"
                "integration: {t1: 0.2, dt: 0.01}\n",
    "surf.yaml": "coords: [q1, q2]\npotential: \"q1*q2\"\nsigma: \"0.1*q1\"\n"
                 "grid: {q1: [0.0, 1.0, 4], q2: [0.0, 1.0, 4]}\n",
    "adm.yaml": "coords: [q1, q2]\npotential: \"q1*q2\"\nsigma: \"q1\"\ncurve: \"{curve}\"\n",
    "met.yaml": "coords: [q1, q2]\npotential: \"q1^2+q2^2\"\npoint: {q1: 1.0, q2: 2.0}\n",
    "act.yaml": "coords: [q1, q2]\npotential: \"q1*q2\"\ncurve: \"{curve}\"\n",
    "curv.yaml": "s: s\ncoords: [q1, q2]\ncoefficients: {q1: \"0\", q2: \"s*q1\"}\n"
                 "point: {s: 2.0, q1: 0.5, q2: 0.0}\n",
}
# subcommand -> (arguments, output file or None)
CLI_SCENARIOS = {
    "check-closed": (["--config", "closed.yaml"], None),
    "simulate": (["--config", "sim.yaml"], "sim.csv"),
    "surface": (["--config", "surf.yaml"], "surf.csv"),
    "admissible": (["--config", "adm.yaml"], None),
    "metric": (["--config", "met.yaml"], None),
    "action": (["--config", "act.yaml"], None),
    "curvature": (["--config", "curv.yaml"], None),
    "vdw": (["--sn", "3", "--vn", "20"], "vdw.csv"),
}
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def cli_output_matches(text: str, golden: str) -> bool:
    """Same text around the numbers, and every number within 1e-12 relative."""
    if _NUMBER.sub("#", text) != _NUMBER.sub("#", golden):
        return False
    got = [float(v) for v in _NUMBER.findall(text)]
    want = [float(v) for v in _NUMBER.findall(golden)]
    return close(got, want, 1e-12, 1e-300)


def write_cli_inputs(directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    curve = os.path.join(directory, "curve.csv")
    with open(curve, "w", newline="") as fh:
        fh.write(CURVE_CSV)
    for name, text in CLI_CONFIGS.items():
        with open(os.path.join(directory, name), "w", newline="") as fh:
            fh.write(text.replace("{curve}", curve))


def cli_argv(directory: str, sub: str) -> list[str]:
    args, out = CLI_SCENARIOS[sub]
    argv = [sub] + [os.path.join(directory, a) if a.endswith(".yaml") else a for a in args]
    return argv + (["--out", os.path.join(directory, out)] if out else [])


def read_output(directory: str, sub: str, stdout: str) -> str:
    out = CLI_SCENARIOS[sub][1]
    if out is None:
        return stdout
    with open(os.path.join(directory, out), newline="") as fh:
        return stdout + "--- " + out + "\n" + fh.read()


class Cli(Workload):
    """One item runs one subcommand through ``cli.main(argv)`` in this process.

    Process start-up, the bulk of a CLI call, is this workload's ``setup_s``
    (a fresh interpreter importing thermoform.cli and loading the configs).
    Timing whole ``python -m thermoform.cli`` processes as items spread 20-25 %
    between runs on a shared machine, wider than any bound the benchmark can
    hold; the processes are still run and checked before timing.
    """

    def __init__(self, seed: int, smoke: bool, run_dir: str, src_dir: str):
        rng = np.random.default_rng([seed, 4])
        self.dir = os.path.join(run_dir, "cli")
        write_cli_inputs(self.dir)
        self.docs = [cfg.load_yaml(os.path.join(self.dir, name)) for name in CLI_CONFIGS]
        self.golden = load_golden()["cli"]
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.smoke = smoke
        # Every output must be byte-identical to the subcommand's previous run,
        # whether that ran as a process or in-process.
        self.last: dict[str, str] = {}
        self.order = [list(CLI_SCENARIOS)[k] for k in rng.permutation(len(CLI_SCENARIOS))]
        self._items = [self._in_process_item(sub) for sub in self.order]

    def _check(self, sub, code, stdout) -> bool:
        if code != 0:
            return False
        text = read_output(self.dir, sub, stdout)
        repeat_ok = self.last.get(sub, text) == text
        self.last[sub] = text
        return repeat_ok and cli_output_matches(text, self.golden[sub])

    def _spawn_item(self, sub):
        def item():
            proc = subprocess.run([sys.executable, "-m", "thermoform.cli", *cli_argv(self.dir, sub)],
                                  cwd=self.dir, env=self.env, capture_output=True, text=True,
                                  timeout=120)
            return self._check(sub, proc.returncode, proc.stdout)
        return item

    def _in_process_item(self, sub):
        def item():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(cli_argv(self.dir, sub))
            return self._check(sub, code, buf.getvalue())
        return item

    def items(self):
        return self._items

    def warmup(self):
        """One untimed process (every subcommand's in smoke mode), then a pass."""
        spawned = self.order if self.smoke else self.order[:1]
        return [self._spawn_item(sub) for sub in spawned] + self._items

    def expressions(self):
        trees = []
        for doc in self.docs:
            for key in ("potential", "sigma"):
                if key in doc:
                    trees.append(expr.parse(doc[key]))
            for text in (doc.get("coefficients") or {}).values():
                trees.append(expr.parse(text))
        return trees


WORKLOADS = {"integrate": Integrate, "certify": Certify, "scan": Scan, "cli": Cli}


def count_nodes(trees) -> tuple[int, int]:
    """(nodes as a tree walk visits them, structurally distinct nodes)."""
    size: dict[int, int] = {}
    key_of: dict[int, int] = {}
    ids: dict[tuple, int] = {}

    def visit(e) -> tuple[int, int]:
        if id(e) in size:
            return size[id(e)], key_of[id(e)]
        if isinstance(e, expr.Num):
            n, key = 1, ("num", e.value)
        elif isinstance(e, expr.Var):
            n, key = 1, ("var", e.name)
        elif isinstance(e, expr.Neg):
            cn, ck = visit(e.arg)
            n, key = 1 + cn, ("neg", ck)
        elif isinstance(e, expr.Bin):
            ln, lk = visit(e.left)
            rn, rk = visit(e.right)
            n, key = 1 + ln + rn, ("bin", e.op, lk, rk)
        else:
            kids = [visit(a) for a in e.args]
            n, key = 1 + sum(k[0] for k in kids), ("call", e.fn, *(k[1] for k in kids))
        size[id(e)] = n
        key_of[id(e)] = ids.setdefault(key, len(ids))
        return n, key_of[id(e)]

    total = sum(visit(t)[0] for t in trees)
    return total, len(ids)
