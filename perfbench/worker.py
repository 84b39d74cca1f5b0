"""One workload process: set-up, warm-up, then a timed or a traced pass.

Started by run.py, one at a time, as
    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SMOKE RUN_DIR
with MODE one of ``setup`` (set-up only), ``run`` (timed, untraced) or
``trace`` (fixed pass, untraced then traced).  Prints one JSON line.
"""
import os
import sys
import time

import calibrate

# One CPU, so the calibration kernel and the measured work share a core.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
CAL_CALLS = 8  # calibration kernel calls before each window (and at least as many after)
CAL_SHARE = 0.04  # share of a window's length spent calibrating after it
CAL_BEFORE = calibrate.timings(2 * CAL_CALLS)
T0 = time.perf_counter()  # before thermoform (and numpy) is imported

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

WINDOW_S = 0.25  # throughput is the median over windows of at least this length


def build(workload: str, seed: int, smoke: bool, run_dir: str):
    import workloads
    cls = workloads.WORKLOADS[workload]
    if workload == "cli":
        return cls(seed, smoke, run_dir, SRC)
    return cls(seed, smoke)


def run_items(items, errors):
    """Run items once, untimed; returns the number that failed."""
    failed = 0
    for item in items:
        failed += not call(item, errors)
    return failed


def call(item, errors) -> bool:
    try:
        return bool(item())
    except Exception as exc:  # an item that raises has failed; keep going
        if len(errors) < 5:
            errors.append(f"{type(exc).__name__}: {exc}")
        return False


def timed(items, seconds: float, errors, points: int, round_items: int):
    """Closed loop over the pass, repeated until ``seconds`` have elapsed.

    The loop runs in windows of at least WINDOW_S that end after a multiple
    of ``round_items`` items, so every window holds the same mix of work.
    Each window is bracketed by calibration kernels; its throughput and its
    items' latencies, per sample point (an item evaluates ``points``), are
    recorded raw and divided by that window's machine speed.
    """
    perf = time.perf_counter
    raw_lat, lat, raw_windows, windows, speeds = [], [], [], [], []
    failed = 0
    n = len(items)
    k = 0
    start = perf()
    while perf() - start < seconds:
        cal = calibrate.timings(CAL_CALLS)
        w_lat = []
        w_start = perf()
        while True:
            item = items[k % n]
            k += 1
            t0 = perf()
            ok = call(item, errors)
            t1 = perf()
            w_lat.append((t1 - t0) / points)
            failed += not ok
            if t1 - w_start >= WINDOW_S and k % round_items == 0:
                break
        rate = len(w_lat) * points / (t1 - w_start)
        after = max(CAL_CALLS, round(CAL_SHARE * (t1 - w_start) / calibrate.NOMINAL_S))
        speed = calibrate.speed(cal + calibrate.timings(after))
        speeds.append(speed)
        raw_windows.append(rate)
        windows.append(rate * speed)
        raw_lat += w_lat
        lat += [x / speed for x in w_lat]
    return {"raw_lat": raw_lat, "lat": lat, "raw_windows": raw_windows, "windows": windows,
            "speeds": speeds, "failed": failed, "wall": perf() - start}


def setup_speed() -> float:
    """Machine speed around set-up (kernels just before and just after it)."""
    return calibrate.speed(CAL_BEFORE + calibrate.timings(2 * CAL_CALLS))


def mode_run(workload, seed, seconds, smoke, run_dir):
    import numpy as np
    wl = build(workload, seed, smoke, run_dir)
    setup_s = time.perf_counter() - T0
    speed = setup_speed()
    errors = []
    items = wl.items()
    warm = wl.warmup()
    warm_failed = run_items(warm, errors)
    gc.collect()
    t = timed(items, seconds, errors, wl.points_per_item, wl.round_items or len(items))
    lat_ms, raw_ms = np.array(t["lat"]) * 1e3, np.array(t["raw_lat"]) * 1e3
    return {
        "setup_s": setup_s / speed,
        "raw_setup_s": setup_s,
        "items": len(lat_ms),
        "pass_items": len(items),
        "points_per_item": wl.points_per_item,
        "attempted": len(warm) + len(lat_ms),
        "failed": warm_failed + t["failed"],
        "wall_s": t["wall"],
        "windows": len(t["windows"]),
        "speed": float(np.median(t["speeds"])),
        "items_per_s": float(np.median(t["windows"])),
        "item_ms_p50": float(np.percentile(lat_ms, 50)),
        "item_ms_p99": float(np.percentile(lat_ms, 99)),
        "raw_items_per_s": float(np.median(t["raw_windows"])),
        "raw_item_ms_p50": float(np.percentile(raw_ms, 50)),
        "raw_item_ms_p99": float(np.percentile(raw_ms, 99)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
    }


def spawn_seconds(argv, env, repeats: int) -> float:
    """Median wall time of a fresh interpreter running ``argv``."""
    import statistics
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def mode_trace(workload, seed, smoke, run_dir):
    import tracing
    import workloads

    errors = []
    # untraced reference: the same fixed pass, after a warm-up pass
    wl = build(workload, seed, smoke, run_dir)
    nodes, unique = workloads.count_nodes(wl.expressions())
    items, warm = wl.items(), wl.warmup()
    failed = run_items(warm, errors)
    gc.collect()
    before = calibrate.timings(2 * CAL_CALLS)
    t0 = time.perf_counter()
    failed += run_items(items, errors)
    untraced_wall = time.perf_counter() - t0
    untraced_speed = calibrate.speed(before + calibrate.timings(2 * CAL_CALLS))

    rec = tracing.SpanRecorder()
    undo = tracing.install(rec)
    try:
        root = rec.enter("bench.setup")
        wl = build(workload, seed, smoke, run_dir)
        rec.exit(root)
        items = wl.items()
        gc.collect()
        before = calibrate.timings(2 * CAL_CALLS)
        t0 = time.perf_counter()
        root = rec.enter("bench.pass")
        failed += run_items(items, errors)
        rec.exit(root)
        traced_wall = time.perf_counter() - t0
        traced_speed = calibrate.speed(before + calibrate.timings(2 * CAL_CALLS))
    finally:
        undo()
    attempted = len(warm) + 2 * len(items)

    in_pass = rec.rollup(root)
    everywhere = rec.rollup()
    os.makedirs(os.path.join(run_dir, "spans"), exist_ok=True)
    rec.dump(os.path.join(run_dir, "spans", f"{workload}-{seed}.jsonl"))

    def get(name, key, table=everywhere):
        return table.get(name, {}).get(key, 0)

    m = {}
    for _, _, span in tracing.TARGETS:
        m[span + ".calls"] = get(span, "calls")
        m[span + ".self_s"] = get(span, "self_s")
    m["config.forcing.calls"] = get(tracing.FORCING_SPAN, "calls")
    m["config.forcing.self_s"] = get(tracing.FORCING_SPAN, "self_s")
    grad_calls = get("expr.grad", "calls", in_pass)
    m["expr.grad.us_per_call"] = get("expr.grad", "self_s", in_pass) / grad_calls * 1e6 if grad_calls else 0.0
    m["expr.grad.calls_per_item"] = grad_calls / (len(items) * wl.points_per_item)
    m["expr.tree_nodes"] = nodes
    m["expr.unique_nodes"] = unique
    m["expr.unique_ratio"] = unique / nodes if nodes else 0.0
    m["cli.main_s"] = get("cli.main", "total_s")
    m["cli.import_s"] = m["cli.interpreter_floor_s"] = 0.0
    if workload == "cli":
        env = dict(os.environ, PYTHONPATH=SRC)
        repeats = 1 if smoke else 3
        m["cli.import_s"] = spawn_seconds([sys.executable, "-c", "import thermoform.cli"], env, repeats)
        m["cli.interpreter_floor_s"] = spawn_seconds([sys.executable, "-c", "import numpy, yaml"],
                                                     env, repeats)
    # each wall normalised by the machine speed around it, as in the timed runs
    m["trace.overhead_ratio"] = (traced_wall / traced_speed) / (untraced_wall / untraced_speed)
    # The bench.pass root's self time is the pass time no named span covers.
    m["trace.accounted_ratio"] = sum(row["self_s"] for name, row in in_pass.items()
                                     if not name.startswith("bench.")) / traced_wall
    return {
        "metrics": m,
        "pass_items": len(items),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


def main(argv):
    mode, workload, seed, seconds, smoke, run_dir = argv
    seed, seconds, smoke = int(seed), float(seconds), smoke == "1"
    if mode == "setup":
        build(workload, seed, smoke, run_dir)
        raw = time.perf_counter() - T0
        out = {"setup_s": raw / setup_speed(), "raw_setup_s": raw}
    elif mode == "run":
        out = mode_run(workload, seed, seconds, smoke, run_dir)
    else:
        out = mode_trace(workload, seed, smoke, run_dir)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
