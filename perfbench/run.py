#!/usr/bin/env python3
"""The diablo-cpp benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds perfbench/ (which compiles the
simulator from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then spawns perfbench_pass
once per measured pass, each pass in its own process, until --seconds is
spent (at least MIN_PASSES passes untraced, one traced). Untraced runs
also time perfbench_calibrate, a fixed kernel that uses no simulator code,
after every pass, and report wall_s, tx_per_s and setup_s at the reference
host's speed (see REFERENCE_CAL_S). Every metric but wall_s and tx_per_s is
a median over the samples of the run. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it print
the environment stamp and every metric by name and unit.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the traced run. Both check every cell: the
conservation laws, the expected outcome, report digests that repeat across
passes and, for the default seed, equal perfbench/digests.json. A cell
that fails any check counts in "failed" and sets "correct" to false.

Maintenance modes:
    --record-digests   rewrite perfbench/digests.json from the default seed
    --selftest         build and run the traced run's test
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("dapp-burst", "validators", "faults", "sweep")
DEFAULT_SEED = 1
MIN_PASSES = 3
# Set-up is milliseconds long, so each run also spawns set-up-only
# processes between its passes until it holds this many set-up samples.
SETUP_SAMPLES = 31
PASS_TIMEOUT_S = 170
# Median seconds perfbench_calibrate takes on the reference host (4-vCPU
# Intel Xeon, g++ 12.2, RelWithDebInfo). wall_s, tx_per_s and setup_s are
# reported at that host's speed: measured x (REFERENCE_CAL_S / calibration
# time) ** HOST_SENSITIVITY.
REFERENCE_CAL_S = 0.23
# How much more than the kernel a pass slows down when the host does: on the
# reference host a pass's time moved as the kernel's time to this power
# (README.md, Noise and bounds). The factor multiplies every pass alike, so
# two programs measured in the same host state keep the ratio of their times.
HOST_SENSITIVITY = 1.5
# Each pass is followed by one calibration sample per this many seconds of
# pass time, so long passes are tracked as closely as short ones.
CAL_EVERY_S = 1.0
# Environment knobs that change what the simulator does or prints; the timed
# processes run without them.
CLEARED_ENV = ("DIABLO_CELL_WORKERS", "DIABLO_PROFILE", "DIABLO_JOBS",
               "DIABLO_SCALE", "DIABLO_XL_MAX_N")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(ROOT, target)), "perfbench")


def build(targets):
    """Configures and builds perfbench/; returns the build directory."""
    out = build_dir()
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        configure = [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run([cmake, "--build", out, "-j", jobs, "--target"] + targets,
                   check=True, stdout=sys.stderr)
    return out


def clean_env():
    env = dict(os.environ)
    for key in CLEARED_ENV:
        env.pop(key, None)
    return env


def run_pass(out, args):
    """Runs one pass process; returns (parsed line, spawn instant in ns)."""
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run([os.path.join(out, "perfbench_pass")] + args, cwd=out,
                          env=clean_env(), stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_pass %s exited with %d" % (" ".join(args),
                                                                  proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawn_ns


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


class Gate:
    """Counts cell runs and the ones that fail a check, naming each on stderr."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first = None  # label -> digest of the first pass
        self.committed = load_digests().get(workload) if seed == DEFAULT_SEED else None

    def check(self, line, tag):
        digests = {}
        for cell in line["cells"]:
            self.attempted += 1
            label, digest = cell["label"], cell["digest"]
            digests[label] = digest
            problems = list(cell["violations"])
            if self.committed is not None and self.committed.get(label) != digest:
                problems.append("digest %s != committed %s" % (digest[:12],
                                                                str(self.committed.get(label))[:12]))
            if self.first is not None and self.first.get(label) != digest:
                problems.append("digest differs from the first pass")
            if problems:
                self.failed += 1
                log("FAILED %s %s [%s]: %s" % (self.workload, label, tag, "; ".join(problems)))
        if self.first is None:
            self.first = digests
        if self.committed is not None and set(self.committed) != set(digests):
            self.attempted += 1
            self.failed += 1
            log("FAILED %s: cell set differs from perfbench/digests.json" % self.workload)


def print_env(line):
    env = line["env"]
    print("env: nproc=%d build_type=%s compiler=%s checked=%s sanitized=%s" % (
        env["nproc"], env["build_type"], env["compiler"], json.dumps(env["checked"]),
        json.dumps(env["sanitized"])))


def passes(out, args_for, seconds, minimum):
    """Yields (line, spawn instant) of successive pass processes, at least
    `minimum` of them, and more while the next one should end within
    `seconds`. `args_for(k)` gives pass k's arguments."""
    durations = []
    started = time.monotonic()
    while (len(durations) < minimum or
           time.monotonic() - started + statistics.median(durations) <= seconds):
        pass_start = time.monotonic()
        yield run_pass(out, args_for(len(durations)))
        durations.append(time.monotonic() - pass_start)


def calibrate(out):
    """Seconds the fixed calibration kernel takes now."""
    proc = subprocess.run([os.path.join(out, "perfbench_calibrate")], cwd=out,
                          stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("perfbench_calibrate exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])["cal_s"]


def setup_sample(out, base):
    line, spawn_ns = run_pass(out, base + ["--setup-only"])
    return (line["handoff_ns"] - spawn_ns) * 1e-9


def measure_untraced(out, workload, seed, seconds, gate):
    base = ["--workload", workload, "--seed", str(seed)]
    if workload == "sweep":
        # Determinism across job counts: the one-job digests must equal the
        # timed passes' (checked as "differs from the first pass").
        line, _ = run_pass(out, base + ["--jobs", "1"])
        gate.check(line, "jobs=1")
    samples = {"raw_wall_s": [], "cal_s": [], "setup_s": [], "peak_rss_mb": []}
    for k, (line, spawn_ns) in enumerate(passes(out, lambda k: base, seconds, MIN_PASSES)):
        gate.check(line, "pass %d" % k)
        samples["raw_wall_s"].append(line["wall_s"])
        for _ in range(max(1, round(line["wall_s"] / CAL_EVERY_S))):
            samples["cal_s"].append(calibrate(out))
        samples["setup_s"].append((line["handoff_ns"] - spawn_ns) * 1e-9)
        samples["peak_rss_mb"].append(line["peak_rss_mb"])
        for _ in range(3):
            samples["setup_s"].append(setup_sample(out, base))
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        samples["setup_s"].append(setup_sample(out, base))
    values = {name: statistics.median(v) for name, v in samples.items()}
    # The shared host's speed drifts by tens of percent over minutes, and the
    # calibration kernel, run after every pass, drifts with it. Scaling the
    # mean pass time by the mean kernel time cancels the drift of the whole
    # run (it tracked better than medians); REFERENCE_CAL_S makes it seconds
    # at the reference host's speed. Set-up samples are taken between the
    # same passes, so they are scaled alike.
    speed = (REFERENCE_CAL_S / statistics.mean(samples["cal_s"])) ** HOST_SENSITIVITY
    values["wall_s"] = statistics.mean(samples["raw_wall_s"]) * speed
    values["tx_per_s"] = line["submitted"] / values["wall_s"]
    values["setup_s"] *= speed
    print_env(line)
    print("workload %s: seed %d, %d passes x %d cells on %d job(s)" % (
        workload, seed, len(samples["raw_wall_s"]), len(line["cells"]), line["jobs"]))
    print("host speed: calibration kernel %.6f s median (reference %.3f s); wall_s = "
          "%.6f s mean measured x %.4f (median measured %.6f s); setup_s = "
          "%.6f s median measured x %.4f" % (
              values["cal_s"], REFERENCE_CAL_S, statistics.mean(samples["raw_wall_s"]),
              speed, values["raw_wall_s"], statistics.median(samples["setup_s"]), speed))
    return values


def measure_traced(out, workload, seed, seconds, gate):
    base = ["--workload", workload, "--seed", str(seed), "--traced"]

    def args_for(k):
        return base + ["--spans", os.path.join(out, "spans-%s-seed%d-%d.json" % (
            workload, seed, k))]

    samples = {}
    for k, (line, _) in enumerate(passes(out, args_for, seconds, 1)):
        gate.check(line, "traced pass %d" % k)
        for name, value in line["metrics"].items():
            samples.setdefault(name, []).append(value)
    print_env(line)
    print("workload %s: seed %d, %d traced passes x %d cells; spans in %s" % (
        workload, seed, k + 1, len(line["cells"]), out))
    return {name: statistics.median(values) for name, values in samples.items()}


def record_digests():
    out = build(["perfbench_pass"])
    recorded = {}
    for workload in WORKLOADS:
        line, _ = run_pass(out, ["--workload", workload, "--seed", str(DEFAULT_SEED)])
        bad = [c["label"] for c in line["cells"] if c["violations"]]
        if bad:
            raise RuntimeError("%s: cells fail their laws: %s" % (workload, ", ".join(bad)))
        recorded[workload] = {c["label"]: c["digest"] for c in line["cells"]}
    with open(DIGESTS, "w") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %s" % DIGESTS)


def selftest():
    out = build(["perfbench_test"])
    return subprocess.run([os.path.join(out, "perfbench_test")], cwd=out,
                          env=clean_env()).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        record_digests()
        return 0
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    spec = load_spec()
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    out = build(["perfbench_pass", "perfbench_calibrate"])
    gate = Gate(args.workload, args.seed)
    measure = measure_traced if args.trace else measure_untraced
    values = measure(out, args.workload, args.seed, args.seconds, gate)

    metrics = {}
    for m in metric_specs:
        if m["name"] not in values:
            raise RuntimeError("perfbench_pass reported no %s" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("  %-26s %16.6f %-6s (%s is better)" % (m["name"], values[m["name"]],
                                                      m["unit"], m["better"]))
    print("  %-26s %16.6f ratio  (%d of %d cell runs failed)" % (
        "cell_fail_ratio", gate.failed / gate.attempted, gate.failed, gate.attempted))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
