"""thermoform benchmark: four workloads, end-to-end metrics, per-layer traced run.

    python3 perfbench/run.py --workload {integrate,certify,scan,cli,all}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke        # tiny sizes, every workload and check

Run from the repository root; the program is imported from ./src.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json: set-up
in fresh processes (``setup_s``, median of several), then a closed loop over
the workload's items for --seconds (throughput, latency percentiles, peak
RSS).  Every time is taken next to a calibration kernel and divided by the
machine speed it shows (calibrate.py); the raw figures are printed too.
--trace 1 runs one fixed pass untraced and once more with span
recording, and reports the per-layer metrics.  Every item's output is
checked; the last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.

This launcher imports no numpy.  It pins BLAS/OpenMP pools to one thread in
the environment of every process it starts, and starts them one at a time.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("integrate", "certify", "scan", "cli")
SETUP_PROBES = 5  # fresh set-up processes per run, besides the timed process
CHILD_TIMEOUT_S = 150
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_ENV:
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def worker(mode: str, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed),
            repr(seconds), "1" if smoke else "0", RUN_DIR]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode}: no result within {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode}: exit {proc.returncode}\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "pyyaml"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        pass
    return {**versions, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(), "commit": commit}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 spec: dict) -> dict:
    if trace:
        out = worker("trace", workload, seed, seconds, smoke)
        wanted = spec["per_layer"]
        measured = out["metrics"]
        detail = {"pass_items": out["pass_items"], "traced_wall_s": out["traced_wall_s"],
                  "untraced_wall_s": out["untraced_wall_s"]}
    else:
        probes = [worker("setup", workload, seed, seconds, smoke)
                  for _ in range(1 if smoke else SETUP_PROBES)]
        out = worker("run", workload, seed, seconds, smoke)
        setups = probes + [out]
        wanted = spec["end_to_end"]
        measured = {k: out[k] for k in ("items_per_s", "item_ms_p50", "item_ms_p99", "peak_rss_mb")}
        measured["setup_s"] = statistics.median(p["setup_s"] for p in setups)
        detail = {"items": out["items"], "pass_items": out["pass_items"],
                  "points_per_item": out["points_per_item"], "windows": out["windows"],
                  "wall_s": out["wall_s"], "speed": out["speed"],
                  "setup_samples": [p["setup_s"] for p in setups],
                  "raw": {"items_per_s": out["raw_items_per_s"],
                          "item_ms_p50": out["raw_item_ms_p50"],
                          "item_ms_p99": out["raw_item_ms_p99"],
                          "setup_s": statistics.median(p["raw_setup_s"] for p in setups)}}
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"workload": workload, "seed": seed, "trace": trace, "metrics": metrics,
            "attempted": out["attempted"], "failed": out["failed"], "errors": out["errors"],
            "detail": detail}


def report(result: dict) -> None:
    d = result["detail"]
    print(f"== {result['workload']} (seed {result['seed']}, trace {int(result['trace'])})")
    per = d.get("points_per_item", 1)
    items = f"{d.get('items')} items" + (f" of {per} points, per point" if per > 1 else "")
    samples = {"items_per_s": f"{d.get('windows')} windows of >=0.25 s",
               "item_ms_p50": items, "item_ms_p99": items,
               "setup_s": f"median of {len(d.get('setup_samples', []))} fresh processes",
               "peak_rss_mb": "max RSS of the measuring process"}
    raw = d.get("raw", {})
    for name, m in result["metrics"].items():
        note = f"  ({samples[name]})" if name in samples and not result["trace"] else ""
        if name in raw:
            note += f"  raw {raw[name]:.6g}"
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}{note}")
    if d.get("speed") is not None:
        print(f"  {'machine speed':42s} {d['speed']:>16.6g} x nominal (median over windows)")
    print(f"  {'fail_ratio':42s} {result['failed'] / result['attempted']:>16.6g} ratio  "
          f"({result['failed']} of {result['attempted']} items)")
    for err in result["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed length of a run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; every workload untraced and traced")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "thermoform", "__init__.py")):
        print("error: src/thermoform not found; run from a thermoform checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(RUN_DIR, exist_ok=True)
    prov = provenance()
    names = WORKLOADS if args.workload == "all" or args.smoke else (args.workload,)
    modes = (False, True) if args.smoke else (bool(args.trace),)
    seconds = 0.5 if args.smoke else spec["run_seconds"] if args.seconds is None else args.seconds

    results = []
    try:
        for name in names:
            for trace in modes:
                results.append(run_workload(name, args.seed, seconds, trace, args.smoke, spec))
                report(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov["loadavg_end"] = os.getloadavg()
    print("provenance: " + json.dumps(prov, sort_keys=True))

    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(RUN_DIR, f"result-{args.workload}-{args.seed}-{args.trace}-{stamp}.json"),
              "w") as fh:
        json.dump({"provenance": prov, "results": results}, fh, indent=1, sort_keys=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}" + (".traced" if r["trace"] else ""): v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
