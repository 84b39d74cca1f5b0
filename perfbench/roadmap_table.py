"""Re-measure the single-call baseline table (ROADMAP open item 1).

    python3 perfbench/roadmap_table.py

Each row is a median: over 2000 calls for the microsecond rows, over 5
repeats for the others.  BLAS pools are pinned to one thread, as run.py does.
"""
import os
import statistics
import subprocess
import sys
import time

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from thermoform import cli, geometry  # noqa: E402
from thermoform import expr  # noqa: E402
from thermoform import ferroelectric as fe  # noqa: E402
from thermoform import thermoelastic as te  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402


def per_call(fn, calls=2000) -> float:
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    run = inputs.README_RUN
    c, f, x = workloads.readme_model()
    u, b = c.potential, x.binding()

    run_dir = os.path.join(ROOT, ".bench_run", "roadmap")
    workloads.write_cli_inputs(run_dir)
    readme_yaml = os.path.join(run_dir, "readme.yaml")
    with open(readme_yaml, "w") as fh:
        fh.write(f'model: thermoelastic\npotential: "{run["potential"]}"\nrho: 1.0\nk: 1.0\n'
                 f'initial: {{eps: 0.5, H: [1.0, 0.0, 0.0]}}\n'
                 f'forcing: {{L: {run["L"]}, divq: "{run["divq"]}"}}\n'
                 f'integration: {{t0: 0.0, t1: 1.0, dt: 0.001}}\n')
    simulate = ["simulate", "--config", readme_yaml, "--out", os.path.join(run_dir, "readme.csv")]

    cf = fe.FerroelectricConstitutive(
        expr.ScalarField.from_text("eps - 2*(pi1^2+pi2^2+pi3^2)", fe.FE_COORDS), rho=1.0, k=1.0)
    xf = fe.FerroelectricState(eps=1.0, F=np.eye(3), H=np.zeros(3), pi=[0.3, -0.1, 0.2],
                               grad_pi=np.zeros((3, 3)), u=np.zeros(3), grad_u=np.zeros((3, 3)))
    ff = fe.FerroelectricForcing()

    def fe_1000():
        y = xf
        for i in range(1000):
            y = fe.fe_step(y, cf, ff, i * 1e-3, 1e-3)

    rng = np.random.default_rng(0)
    poly = inputs.RandomPolynomial(fe.FE_COORDS, rng, 0, terms=8, degree=3, offset=10.0)
    cc = fe.FerroelectricConstitutive(expr.ScalarField.from_text(poly.text(), fe.FE_COORDS), rho=1.5, k=1.0)
    form = fe.fe_entropy_form(*fe.fe_potential_coefficients(cc), rho=cc.rho)
    pts = geometry.low_discrepancy_samples({n: (0.05, 0.3) for n in fe.FE_COORDS}, 64)

    env = dict(os.environ, PYTHONPATH=SRC)

    def spawn(argv):
        return lambda: subprocess.run([sys.executable, *argv], env=env, check=True,
                                      capture_output=True, timeout=120)

    def in_process(argv):
        def go():
            with open(os.devnull, "w") as sink:
                old, sys.stdout = sys.stdout, sink
                try:
                    code = cli.main(argv)
                finally:
                    sys.stdout = old
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited {code}")
        return go

    rows = [
        ("value (13 vars)", per_call(lambda: u.value(b)) * 1e6, "us"),
        ("grad (13 vars)", per_call(lambda: u.grad(b)) * 1e6, "us"),
        ("thermoelastic RHS", per_call(lambda: te.rates(x, c, f, 0.5)) * 1e6, "us"),
        ("README simulate, in-process", per_call(in_process(simulate), 5), "s"),
        ("ferroelectric 1000 steps", per_call(fe_1000, 5), "s"),
        ("ferroelectric closeness, 64 pts", per_call(lambda: geometry.is_closed(form, pts), 5) * 1e3, "ms"),
        ("metric end to end", per_call(spawn(["-m", "thermoform.cli", *workloads.cli_argv(run_dir, "metric")]), 5), "s"),
        ("python+numpy+yaml floor", per_call(spawn(["-c", "import numpy, yaml"]), 5), "s"),
    ]
    print("| Measurement | Median |\n|---|---|")
    for label, value, unit in rows:
        print(f"| {label} | {value:.3g} {unit} |")


if __name__ == "__main__":
    main()
