#!/usr/bin/env python3
"""The ripple benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload campaign|dataflow|serving \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `ripple_perf` driver (the
ripple library plus perfbench/src) and the `ripple_calibrate` host-speed
probe into .bench_build, then runs the workload once per process,
repeatedly, for --seconds of host time. Every repetition must reproduce
the same simulated results and determinism fingerprints. Prints the
end-to-end metrics by name and unit, then, as the last line, one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off). With
--trace 1 each repetition runs untraced and traced (SessionConfig::tracing)
back to back, the first traced one also replays the workload's pre-run
scheduler batch, and the metrics are the per-layer ones, printed with
the end-to-end metric and workload each should move (perfbench/metrics.json).
Host-time spans of the first traced run are written to .bench_build/trace/.

Host times are reported in reference-host seconds. A shared host's speed
drifts with the load of other jobs by up to 2x over minutes, far more than
the bounds a change is judged by. So ripple_calibrate, a fixed event-driven
computation that shares no code with ripple, runs before every repetition
and once after the last, and each repetition's host times are scaled by
the reference calibration time (perfbench/metrics.json, host_speed) over
the mean of the two calibrations around it; the reported host times are
medians of the scaled ones. The measured wall time and the scales are
printed beside the table.

Exits non-zero when the build fails or any correctness check fails.
"""

import argparse
import fcntl
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "ripple_perf"
CALIBRATOR = BUILD / "ripple_calibrate"
WORKLOADS = ("campaign", "dataflow", "serving")
MIN_REPETITIONS = 3
# Each child gets at most this long; the whole command stays under 180 s.
CHILD_TIMEOUT_S = 60
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("makespan_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p99_s", "s"),
)
SIM_METRICS = ("makespan_s", "latency_p50_s", "latency_p99_s", "bytes_moved_gb")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns False on failure.
    A lock file keeps concurrent invocations from building over each other."""
    if not (ROOT / "src" / "ripple").is_dir():
        log("perfbench: no ripple sources under", ROOT / "src")
        return False
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        step = ["cmake", "--build", str(BUILD), "--target", "ripple_perf",
                "ripple_calibrate", "--parallel", "4"]
        return subprocess.run(step, stdout=sys.stderr).returncode == 0


def calibrate():
    """One run of the host-speed probe: (seconds, checksum)."""
    done = subprocess.run([str(CALIBRATOR)], stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"ripple_calibrate exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["calibration_s"], result["checksum"]


def run_child(workload, seed, trace, replay=False, spans=None):
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0",
               "--replay", "1" if replay else "0"]
    if spans is not None:
        command += ["--spans", str(spans)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"ripple_perf exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Checks:
    """Named correctness checks; any failure makes the command fail."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)


def outcome(run):
    """What must repeat exactly across same-seed runs, traced or not."""
    return (run["attempted"], run["done"], run["failed"],
            tuple(run["sim"][k] for k in SIM_METRICS),
            tuple(sorted(run["fingerprints"].items())))


def check_run(run, checks, label):
    for name, ok in sorted(run["checks"].items()):
        checks.expect(ok, f"{label}: check {name} failed")


def scaled(runs, host_time):
    """Median over `runs` of a host time, each scaled by the host speed
    measured around its repetition."""
    return median([run["scale"] * host_time(run) for run in runs])


def end_to_end(untraced):
    first = untraced[0]
    values = {
        "wall_s": scaled(untraced, lambda r: r["host"]["wall_s"]),
        "setup_s": median([r["scale"] * s
                           for r in untraced for s in r["host"]["setup_s"]]),
        "peak_rss_mb": median([r["host"]["peak_rss_mb"] for r in untraced]),
    }
    for name in ("makespan_s", "latency_p50_s", "latency_p99_s"):
        values[name] = first["sim"][name]
    return values


def per_layer(untraced, traced, checks):
    first = traced[0]
    layers = dict(first["layers"])
    events = untraced[0]["layers"]["sim.events"]
    layers["sim.events"] = events
    untraced_run_s = scaled(untraced, lambda r: r["host"]["run_s"])
    layers["sim.ns_per_event"] = untraced_run_s / events * 1e9 if events else 0.0

    def span(name):
        return scaled(traced, lambda r: r["host"]["spans"][name])

    layers["sim.run_s"] = span("sim.run")
    layers["platform.setup_s"] = span("platform.setup")
    layers["data.setup_s"] = span("data.setup")
    layers["ml.setup_s"] = span("ml.setup")
    layers["core.submit_s"] = span("core.submit")
    layers["wf.submit_s"] = span("wf.submit")
    layers["core.teardown_s"] = span("core.teardown")
    replay = first["replay"]
    checks.expect(replay["grants"] == replay["requests"],
                  "scheduler replay did not grant every request")
    layers["core.sched.replay_submit_us"] = first["scale"] * replay["submit_us"]
    layers["core.sched.replay_release_us"] = (first["scale"]
                                              * replay["release_us"])
    untraced_wall = median([r["host"]["wall_s"] for r in untraced])
    traced_wall = median([r["host"]["wall_s"] for r in traced])
    layers["metrics.trace_overhead"] = traced_wall / untraced_wall
    layers["metrics.trace_rss_mb"] = (
        median([r["host"]["peak_rss_mb"] for r in traced])
        - median([r["host"]["peak_rss_mb"] for r in untraced]))
    return layers


def print_table(title, rows):
    print(f"\n{title}")
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt(value):
    return f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        default=json.loads((HERE / "metrics.json").read_text())
                        ["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((HERE / "metrics.json").read_text())

    if not build() or not BINARY.exists():
        log("perfbench: build failed")
        return 2

    trace = args.trace == 1
    spans_file = BUILD / "trace" / f"{args.workload}-seed{args.seed}.spans.json"
    spans_file.parent.mkdir(exist_ok=True)
    reference_s = spec["host_speed"]["reference_calibration_s"]
    untraced, traced, calibrations = [], [], []
    deadline = time.monotonic() + args.seconds
    try:
        while len(untraced) < MIN_REPETITIONS or time.monotonic() < deadline:
            calibrations.append(calibrate())
            untraced.append(run_child(args.workload, args.seed, trace=False))
            if trace:
                first = not traced
                traced.append(run_child(
                    args.workload, args.seed, trace=True, replay=first,
                    spans=spans_file if first else None))
        calibrations.append(calibrate())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        log(f"perfbench: {error}")
        return 2

    # Repetition i, its traced twin included, ran between calibrations i
    # and i + 1.
    for i, run in enumerate(untraced):
        around = (calibrations[i][0] + calibrations[i + 1][0]) / 2
        run["scale"] = reference_s / around
    for run, twin in zip(traced, untraced):
        run["scale"] = twin["scale"]

    checks = Checks()
    checks.expect(len({checksum for _, checksum in calibrations}) == 1,
                  "ripple_calibrate did different work across repetitions")
    reference = outcome(untraced[0])
    for i, run in enumerate(untraced):
        check_run(run, checks, f"untraced run {i}")
        checks.expect(outcome(run) == reference,
                      f"untraced run {i} differs from run 0 (same seed)")
    for i, run in enumerate(traced):
        check_run(run, checks, f"traced run {i}")
        checks.expect(outcome(run) == reference,
                      f"traced run {i} differs from the untraced runs")

    first = untraced[0]
    values = end_to_end(untraced)
    rows = [("metric", "value", "unit")]
    for name, unit in END_TO_END:
        rows.append((name, fmt(values[name]), unit))
    rows.append(("bytes_moved_gb", fmt(first["sim"]["bytes_moved_gb"]), "GB"))
    rows.append(("failed_frac", fmt(first["failed"] / first["attempted"]),
                 "ratio"))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(untraced)} untraced + {len(traced)} traced runs  "
          f"unit {first['unit']}: {first['attempted']} attempted, "
          f"{first['done']} done, {first['failed']} failed")
    print_table("end-to-end (tracing off)", rows)
    measured_wall = median([r["host"]["wall_s"] for r in untraced])
    print(f"\nhost speed: ripple_calibrate took "
          f"{fmt(median([c for c, _ in calibrations]))} s (median; reference "
          f"{reference_s} s), so host times above are measured x "
          f"{fmt(median([r['scale'] for r in untraced]))} (median scale); "
          f"measured wall_s {fmt(measured_wall)} s")
    print_table("determinism fingerprints",
                [("name", "fnv1a")] + sorted(first["fingerprints"].items()))

    if trace:
        layers = per_layer(untraced, traced, checks)
        metrics = {}
        rows = [("metric", "value", "unit", "should move")]
        for name, meta in spec["per_layer"].items():
            metrics[name] = {"value": layers[name], "unit": meta["unit"]}
            rows.append((name, fmt(layers[name]), meta["unit"], meta["moves"]))
        print_table("per-layer (traced run)", rows)
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": first["attempted"],
                      "failed": first["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
