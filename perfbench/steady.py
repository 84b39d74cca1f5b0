"""Run-to-run spread of the end-to-end metrics, and the held-out seed check.

    python3 perfbench/steady.py --workloads integrate,scan --seeds 1-10
    python3 perfbench/steady.py --seeds 1-5 --heldout 1001-1005

Runs run.py once per workload and seed (one at a time, with the
``run_seconds`` of BENCHMARK.json), then prints per metric the median and
the spread: the distance between the first and third quartiles as a share
of the median, next to the metric's bound.  With --heldout it also runs the
held-out seeds and requires each metric's held-out median to lie within the
bound of the first median.  Exit code 1 when a spread exceeds its bound or
a held-out median is out of bounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(workload: str, seeds: list[int], seconds: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        for name, m in json.loads(lines[-1])["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--heldout", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    record = {}
    for workload in names:
        first = measure(workload, seed_range(args.seeds), spec["run_seconds"])
        second = measure(workload, seed_range(args.heldout), spec["run_seconds"]) if args.heldout else {}
        record[workload] = {"seeds": first, "heldout": second}
        print(f"== {workload}")
        for name, vals in first.items():
            s, med = spread(vals), statistics.median(vals)
            line = f"  {name:14s} median {med:12.6g}  spread {s:7.4f}  bound {bounds[name]:.2f}"
            if s > bounds[name]:
                ok = False
                line += "  SPREAD OVER BOUND"
            if second:
                other = statistics.median(second[name])
                shift = abs(other - med) / med
                line += f"  held-out median {other:12.6g} ({shift:+.4f})"
                if shift > bounds[name]:
                    ok = False
                    line += "  OUT OF BOUND"
            print(line, flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_run", f"steady-{'_'.join(names)}-{args.seeds}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
