#!/usr/bin/env python3
"""End-to-end benchmark of the usched commands users run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds bin/main.exe
and the in-process replay (perfbench/replay) with dune, generates the
workload's inputs from --seed, and then:

--trace 0  runs the set-up, the calibration program (perfbench/calib)
           and the workload's user command, one child process at a
           time, over and over until --seconds have passed (at least
           MIN_RUNS times), checks every run's outputs and reports the
           end-to-end metrics: run_s and setup_s are the medians over
           the runs of the command's and the set-up's wall time divided
           by the calibration's next to them, times CALIB_S; the others
           are medians over the runs.
--trace 1  runs the command once (checked), then alternates untraced
           and traced replay passes until --seconds have passed, and
           reports the per-layer metrics: span self times, counts from
           the engine's metrics registry, heap deltas, the time no span
           covers and the tracing overhead (median traced minus untraced
           pass wall time).

Every run of the command is compared with a replay of the same calls in
one process (see checks()). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Work files go under
.perfbench/ in the checkout. See perfbench/NOTES.md for the workloads,
the metrics and what each per-layer metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import parse  # noqa: E402

BIN = os.path.join("_build", "default", "bin", "main.exe")
REPLAY = os.path.join("_build", "default", "perfbench", "replay", "replay.exe")
CALIB = os.path.join("_build", "default", "perfbench", "calib", "calib.exe")
# run_s and setup_s are in reference seconds: wall time on a host where the
# calibration program takes CALIB_S, its fastest wall time on the host
# NOTES.md describes. Dividing by the calibration timed next to each run
# takes out the host's speed at that moment (see NOTES.md).
CALIB_S = 0.2
WORK = ".perfbench"
MIN_RUNS = 3
# A run must end within 180 s after the build; children share what is left.
RUN_BUDGET_S = 170
DEADLINE = float("inf")  # set by main() once the build is done

# The workloads, as data: the harness below never tests a workload's name.
# `setup` prepares inputs ({inst} is the instance path), `command` is the
# user command ({out} is a fresh output directory per run). With `load`,
# {rate} is the Poisson arrival rate that offers that load to the instance.
#
# --seed picks the instance. The realization, crash and arrival draws of
# `solve` use the fixed SOLVE_SEED, so every seed replays the same failure
# scenario on another instance: with `solve --seed` equal to --seed, the
# re-replication count of faulty-heal alone varies by -17%..+27% between
# seeds 1-7, which would hide differences between program versions. (Equal
# gen and solve seeds also draw estimates and realization factors from one
# random stream; see NOTES.md.)
GEN = ["--workload", "uniform:1:10", "--alpha", "1.5", "--seed", "{seed}"]
SOLVE_SEED = "100003"
WORKLOADS = {
    "solve-batch": {
        "setup": ["gen", "{inst}", "-n", "25000", "-m", "1000"] + GEN,
        "command": ["solve", "{inst}", "--algo", "ls-group:2", "--seed", SOLVE_SEED],
    },
    "faulty-heal": {
        "setup": ["gen", "{inst}", "-n", "5000", "-m", "200"] + GEN,
        "command": ["solve", "{inst}", "--algo", "ls-group:100", "--seed", SOLVE_SEED,
                    "--fail-rate", "0.3", "--recover", "2", "--bandwidth", "100",
                    "--detect-latency", "1", "--speculate", "1.2",
                    "--trace", "{out}/trace.jsonl"],
    },
    "stream-speculate": {
        "setup": ["gen", "{inst}", "-n", "2500", "-m", "200"] + GEN,
        "load": 0.85,
        "command": ["solve", "{inst}", "--algo", "ls-group:50", "--seed", SOLVE_SEED,
                    "--stream", "--speculate", "1.2", "--arrival", "poisson:{rate}"],
    },
    "sweep-fig3": {
        "setup": ["list"],
        "command": ["run", "fig3", "--seed", "{seed}", "--reps", "10", "--domains", "2",
                    "--csv", "{out}"],
    },
}

END_TO_END = [
    ("latency_p50", "sim_unit"), ("latency_p99", "sim_unit"), ("run_s", "s"),
    ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("cmax_ratio", "ratio"),
    ("completed_frac", "fraction"), ("output_mb", "MB"),
]
SIMULATED = ("cmax_ratio", "completed_frac", "latency_p50", "latency_p99")
# Metrics a command does not produce (per-task latency outside stream
# replays) are reported as this constant, so every workload prints every
# metric; NOTES.md lists where that happens.
NOT_PRODUCED = 1.0

SPAN_NAMES = [
    "model.load_instance", "model.realization", "core.phase1", "desim.phase2",
    "core.lower_bounds", "core.replication_cost", "core.max_replication",
    "core.memory_max", "desim.render_stats", "model.lpt_order",
    "desim.healthy_replay", "faults.crash_trace", "desim.faulty_run",
    "obs.trace_emit", "desim.arrival_generate", "desim.stream_run",
    "stats.quantile", "model.workload_generate", "experiments.opt_estimate",
]
ENGINE_COUNTS = [
    ("desim.events", "engine.events"), ("faults.rereplications", "engine.rereplications"),
    ("faults.transfer_aborts", "engine.transfer_aborts"), ("desim.kills", "engine.kills"),
    ("desim.spec_starts", "engine.spec_starts"),
    ("desim.spec_cancelled", "engine.spec_cancelled"),
]
PER_LAYER = (
    [(name + "_s", "s") for name in SPAN_NAMES]
    + [(name, "count") for name, _ in ENGINE_COUNTS]
    + [
        ("model.instance_heap_mb", "MB"), ("core.placement_heap_mb", "MB"),
        ("desim.host_us_per_event", "us"), ("desim.useful_work_frac", "ratio"),
        ("obs.trace_records", "count"), ("experiments.us_per_run", "us"),
        ("parallel.speedup", "ratio"), ("parallel.efficiency", "ratio"),
        ("bin.unattributed_s", "s"), ("bench.trace_overhead_s", "s"),
    ]
)


class Failure(Exception):
    """A run exited non-zero, timed out, or failed an output check."""


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "main.ml"))):
        die("run from the root of a usched source checkout (no dune-project or bin/main.ml)", 2)
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    with open(os.path.join(WORK, "build.log"), "w") as log:
        code = subprocess.call(
            ["dune", "build", "--root", ".", "./bin/main.exe", "./perfbench/replay/replay.exe",
             "./perfbench/calib/calib.exe"],
            stdout=log, stderr=subprocess.STDOUT, env=env)
    if code != 0:
        die("build failed, see " + os.path.join(WORK, "build.log"), 1)


def spawn(argv, stdout_path):
    """Run argv to completion; return (wall seconds, peak RSS in MiB).
    Raises Failure on a non-zero exit or when the run's time budget ends."""
    timeout = DEADLINE - time.monotonic()
    if timeout <= 0:
        raise Failure("out of time before " + " ".join(argv))
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise Failure("%s exited with %d" % (" ".join(argv), code))
    return wall, usage.ru_maxrss / 1024.0


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def fill(template, **values):
    return [arg.format(**values) for arg in template]


def with_flag(cmd, flag, value):
    """cmd with the value of `flag` replaced."""
    i = cmd.index(flag)
    return cmd[:i + 1] + [value] + cmd[i + 2:]


class Bench:
    def __init__(self, name, seed):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.dir = os.path.join(WORK, name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.inst = os.path.join(self.dir, "instance.usched")
        self.attempted = 0
        self.failures = []
        self.calib_out = None
        self.setup_out = None
        cmd = self.spec["command"]
        self.domains = int(cmd[cmd.index("--domains") + 1]) if "--domains" in cmd else 1

    def attempt(self, fn, *args):
        """Count one attempted child run; record its failure, if any. A
        missing or malformed output file is a failure of the run too."""
        self.attempted += 1
        try:
            return fn(*args)
        except (Failure, OSError, ValueError, KeyError) as e:
            self.failures.append(str(e))
            return None

    def command(self, out):
        values = {"inst": self.inst, "seed": self.seed, "out": out, "rate": ""}
        if "load" in self.spec:
            m, mean_est = parse.instance_shape(read(self.inst))
            values["rate"] = repr(self.spec["load"] * m / mean_est)
        return fill(self.spec["command"], **values)

    def setup(self):
        """Run the set-up command once; return its wall time. Every run
        must write the same instance."""
        argv = [BIN] + fill(self.spec["setup"], inst=self.inst, seed=self.seed)
        wall, _ = spawn(argv, os.path.join(self.dir, "setup.out"))
        made = read(self.inst, "rb") if os.path.exists(self.inst) else b""
        if self.setup_out is None:
            self.setup_out = made
        elif made != self.setup_out:
            raise Failure("setup output differs between runs")
        return wall

    def replay(self, tag, traced):
        """One replay pass; returns (values, spans or None)."""
        out = os.path.join(self.dir, "replay-" + tag)
        shutil.rmtree(out, ignore_errors=True)
        result = os.path.join(self.dir, "replay-%s.json" % tag)
        spans_path = os.path.join(self.dir, "spans-%s.jsonl" % tag)
        argv = [REPLAY, "--out", result, "--run-id", tag]
        if traced:
            argv += ["--spans", spans_path]
        spawn(argv + ["--"] + self.command(out), os.path.join(self.dir, "replay.out"))
        values = json.loads(read(result))
        if values.get("violations", 0) != 0:
            raise Failure("replay schedule fails Schedule.validate (%d violations)"
                          % values["violations"])
        values["csv"] = {f: read(os.path.join(out, f), "rb")
                         for f in sorted(os.listdir(out)) if f.endswith(".csv")} \
            if os.path.isdir(out) else {}
        spans = [json.loads(l) for l in read(spans_path).splitlines()] if traced else None
        return values, spans

    def calibrate(self):
        """One run of the calibration program on as many domains as the
        command runs; returns its wall time."""
        path = os.path.join(self.dir, "calib.out")
        wall, _ = spawn([CALIB, str(self.domains)], path)
        out = read(path)
        if self.calib_out is None:
            self.calib_out = out
        elif out != self.calib_out:
            raise Failure("calibration output differs between runs")
        return wall

    def run_calibrated(self, reference):
        """Set-up, a calibration run, then one checked run of the user
        command."""
        setup_s = self.setup()
        calib_s = self.calibrate()
        return dict(self.run_command(reference), setup_s=setup_s, calib_s=calib_s)

    def run_command(self, reference, cmd=None):
        """One checked run of the user command; returns its metrics."""
        out = os.path.join(self.dir, "cli")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        stdout_path = os.path.join(self.dir, "cli.stdout")
        cmd = cmd or self.command(out)
        wall, rss = spawn([BIN] + cmd, stdout_path)
        stdout = read(stdout_path)
        written = [os.path.join(out, f) for f in os.listdir(out)
                   if f.endswith(".csv") or f.endswith(".jsonl")]
        sim = checks(cmd, stdout, out, reference, self.spec.get("load"))
        sim["output_mb"] = (len(stdout.encode()) + sum(os.path.getsize(f) for f in written)) / 1e6
        return dict(sim, run_s=wall, peak_rss_mb=rss)


def checks(cmd, stdout, out, reference, load):
    """Check one run's outputs against the replay `reference`; return the
    simulated end-to-end figures. Raises Failure on any mismatch."""
    def expect(ok, what):
        if not ok:
            raise Failure("check failed: " + what)

    sim = {"latency_p50": NOT_PRODUCED, "latency_p99": NOT_PRODUCED}
    if cmd[0] == "solve":
        try:
            s = parse.solve_stdout(stdout)
        except ValueError as e:
            raise Failure("unparsable solve stdout: %s" % e)
        n = reference["n"]
        for key in ("cmax", "lower_bound", "ratio", "replicas_max", "mem_max"):
            expect(s[key] == reference[key],
                   "%s: CLI %s, replay %s" % (key, s[key], reference[key]))
        expect(s["machine_tasks"] == n, "machine table covers %d of %d tasks"
               % (s["machine_tasks"], n))
        sim["cmax_ratio"] = float(s["ratio"])
        sim["completed_frac"] = s["machine_tasks"] / n
        if "faulty" in s:
            f = s["faulty"]
            expect(f["n"] == n, "faulty replay reports n=%d" % f["n"])
            expect(f["completed"] == reference["faulty_completed"]
                   and f["cmax"] == reference["faulty_cmax"],
                   "faulty replay differs from the in-process replay")
            if "--trace" in cmd:
                with open(cmd[cmd.index("--trace") + 1]) as log:
                    outcome = parse.trace_outcome(log)
                expect(outcome is not None, "trace has no outcome record")
                expect(outcome["completed"] == f["completed"],
                       "stdout completed %d, trace outcome %d"
                       % (f["completed"], outcome["completed"]))
                expect("%.4f" % outcome["makespan"] == f["cmax"],
                       "stdout effective C_max %s, trace outcome %.4f"
                       % (f["cmax"], outcome["makespan"]))
                expect(outcome["completed"] + len(outcome["stranded"]) == n,
                       "completed + stranded != n in trace outcome")
            expect(f["completed"] + len(f["stranded"]) == n, "completed + stranded != n")
            sim["cmax_ratio"] = float(f["cmax"]) / float(s["lower_bound"])
            sim["completed_frac"] = f["completed"] / n
        if "stream" in s:
            st = s["stream"]
            expect(st["completed"] == n == st["n"], "stream completed %d of %d"
                   % (st["completed"], n))
            expect(float(st["p50"]) <= float(st["p99"]), "p50 > p99")
            for key in ("p50", "p95", "p99"):
                expect(st[key] == reference[key],
                       "%s: CLI %s, replay %s" % (key, st[key], reference[key]))
            if load is not None:
                expect(st["offered_load"] == "%.3f" % load,
                       "offered load %s, wanted %.3f" % (st["offered_load"], load))
            sim["completed_frac"] = st["completed"] / n
            sim["latency_p50"] = float(st["p50"])
            sim["latency_p99"] = float(st["p99"])
    else:
        files = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
        expect(files == sorted(reference["csv"]), "CSV files %s, replay wrote %s"
               % (files, sorted(reference["csv"])))
        worst = []
        for f in files:
            data = read(os.path.join(out, f), "rb")
            expect(data == reference["csv"][f], f + " differs from the 1-domain replay")
            for row in parse.fig3_csv(data.decode()):
                w = row["measured_worst"]
                if w is not None:
                    expect(1.0 <= w <= row["guarantee"], "%s: measured_worst %g outside "
                           "[1, %g]" % (f, w, row["guarantee"]))
                    worst.append(w)
        expect(worst, "no measured_worst in the CSV files")
        expected = sum(row["measured_worst"] is not None
                       for data in reference["csv"].values()
                       for row in parse.fig3_csv(data.decode()))
        # The mean over the figure's cells: the largest is the extreme of
        # extremes and spreads ~3x as much between seeds (NOTES.md).
        sim["cmax_ratio"] = statistics.mean(worst)
        sim["completed_frac"] = len(worst) / expected
    return sim


def layer_metrics(spans, values):
    """Per-layer metrics of one traced replay pass."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = {}
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + dur[s["id"]]
    self_s = {}
    for s in spans:
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + dur[s["id"]] - covered.get(s["id"], 0.0)
    metrics = {name + "_s": self_s.get(name, 0.0) for name in SPAN_NAMES}
    engine = values.get("engine", {})
    for name, key in ENGINE_COUNTS:
        metrics[name] = engine.get(key, 0)
    events = engine.get("engine.events", 0)
    engine_s = self_s.get("desim.faulty_run", 0.0) + self_s.get("desim.stream_run", 0.0)
    runs = [dur[s["id"]] for s in spans if s["name"] == "experiments.run"]
    top = sum(dur[s["id"]] for s in spans if s["parent"] < 0)
    metrics.update({
        "model.instance_heap_mb": values.get("instance_heap_mb", 0.0),
        "core.placement_heap_mb": values.get("placement_heap_mb", 0.0),
        "desim.host_us_per_event": 1e6 * engine_s / events if events else 0.0,
        "desim.useful_work_frac": values["useful_work_frac"],
        "obs.trace_records": values.get("trace_records", 0),
        "experiments.us_per_run": 1e6 * statistics.mean(runs) if runs else 0.0,
        "bin.unattributed_s": values["wall_s"] - top,
    })
    return metrics


def same_values(a, b):
    keys = [k for k in a if k not in ("wall_s", "instance_heap_mb", "placement_heap_mb", "engine")]
    return all(a[k] == b.get(k) for k in keys)


def measure_end_to_end(bench, seconds):
    setup_s = bench.attempt(bench.setup)
    reference = bench.attempt(lambda: bench.replay("check", False)[0])
    if setup_s is None or reference is None:
        return None
    runs = []
    deadline = time.monotonic() + seconds
    last = 0.0
    # Stop before a run that would end past the deadline.
    while len(runs) < MIN_RUNS or time.monotonic() + last < deadline:
        start = time.monotonic()
        r = bench.attempt(bench.run_calibrated, reference)
        last = time.monotonic() - start
        if r is None:
            break
        if runs and any(r[k] != runs[0][k] for k in SIMULATED):
            bench.failures.append("simulated figures differ between runs of one seed")
            break
        runs.append(r)
    if not runs:
        return None
    metrics = {name: statistics.median(r[name] for r in runs) for name, _ in END_TO_END}
    # Other tenants of a shared host slow every process for seconds to
    # minutes at a time; the calibration run next to each set-up and
    # command slows with them, so the ratios hold steadier than the wall
    # times (perfbench/NOTES.md has the measurements).
    for name in ("run_s", "setup_s"):
        metrics[name] = CALIB_S * statistics.median(r[name] / r["calib_s"] for r in runs)
    print("over %d runs, median (fastest) wall: command %.4f (%.4f) s, set-up %.4f "
          "(%.4f) s, calibration %.4f (%.4f) s" % ((len(runs),) + tuple(
              f(r[name] for r in runs) for name in ("run_s", "setup_s", "calib_s")
              for f in (statistics.median, min))))
    return metrics


def measure_layers(bench, seconds):
    if bench.attempt(bench.setup) is None:
        return None
    reference = bench.attempt(lambda: bench.replay("check", False)[0])
    if reference is None or bench.attempt(bench.run_command, reference) is None:
        return None
    cmd = bench.command(os.path.join(bench.dir, "cli"))
    passes, untraced, speedups = [], [], []
    deadline = time.monotonic() + seconds
    k, last = 0, 0.0
    while not passes or time.monotonic() + last < deadline:
        start = time.monotonic()
        plain = bench.attempt(bench.replay, "u%d" % k, False)
        traced = bench.attempt(bench.replay, "p%d" % k, True)
        if plain is None or traced is None:
            break
        for values in (plain[0], traced[0]):
            if not same_values(reference, values):
                bench.failures.append("replay pass %d differs from the first replay" % k)
        untraced.append(plain[0]["wall_s"])
        passes.append((layer_metrics(traced[1], traced[0]), traced[0]["wall_s"]))
        if bench.domains > 1:
            one = bench.attempt(bench.run_command, reference, with_flag(cmd, "--domains", "1"))
            many = bench.attempt(bench.run_command, reference)
            if one is None or many is None:
                break
            speedups.append(one["run_s"] / many["run_s"])
        k, last = k + 1, time.monotonic() - start
    if not passes:
        return None
    metrics = {name: statistics.median(p[0][name] for p in passes)
               for name in passes[0][0]}
    metrics["bench.trace_overhead_s"] = (statistics.median(p[1] for p in passes)
                                         - statistics.median(untraced))
    speedup = statistics.median(speedups) if speedups else 0.0
    metrics["parallel.speedup"] = speedup
    metrics["parallel.efficiency"] = speedup / bench.domains
    print("replayed %d traced and %d untraced passes" % (len(passes), len(untraced)))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_BUDGET_S
    bench = Bench(args.workload, args.seed)
    if args.trace:
        metrics, table = measure_layers(bench, args.seconds), PER_LAYER
    else:
        metrics, table = measure_end_to_end(bench, args.seconds), END_TO_END
    if metrics is None:
        # Nothing measured: report every metric as 0 with the failures.
        metrics = {name: 0.0 for name, _ in table}
    for failure in bench.failures:
        print("failure: " + failure)
    result = {}
    for name, unit in table:
        print("%-32s %14.6f %s" % (name, metrics[name], unit))
        result[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": min(len(bench.failures), bench.attempted),
        "metrics": result,
    }))


if __name__ == "__main__":
    main()
