"""Write perfbench/golden.json: the reference outputs the workloads check against.

    python3 perfbench/freeze_golden.py

Records the README thermoelastic run's final state (100 and 1000 steps) and
the output of every CLI scenario, from the program as it stands.  Run it
only on a commit whose outputs are known to be right: the benchmark then
fails any later commit whose outputs drift from these.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from thermoform import thermoelastic as te  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402


def readme_final_state(steps: int) -> list[float]:
    c, f, x = workloads.readme_model()
    dt = inputs.README_RUN["dt"]
    for i in range(steps):
        x = te.step(x, c, f, i * dt, dt)
    return x.vector().tolist()


def cli_outputs(directory: str) -> dict[str, str]:
    workloads.write_cli_inputs(directory)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = {}
    for sub in workloads.CLI_SCENARIOS:
        proc = subprocess.run([sys.executable, "-m", "thermoform.cli",
                               *workloads.cli_argv(directory, sub)],
                              cwd=directory, env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        out[sub] = workloads.read_output(directory, sub, proc.stdout)
    return out


def main():
    golden = {
        "readme_final_state": {str(n): readme_final_state(n) for n in (100, 1000)},
        "cli": cli_outputs(os.path.join(ROOT, ".bench_run", "golden")),
    }
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
