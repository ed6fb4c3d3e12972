"""hlab benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; hlab is imported from its ``src``.  With
``--trace 0`` whole rounds run until ``--seconds`` of timed work is done
and the end-to-end metrics are printed.  With ``--trace 1`` the workload's
trace rounds run three times on the same inputs, each time in a fresh
process (plain, wrapped by the tracer, under cProfile), and the per-layer
metrics are printed.  The last stdout line is the JSON result; the line before it gives details, including the scalar
backend.  Exit code 0 means the run finished; ``correct`` says whether
every output matched the reference.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from here: imports and the norms

import os


def pin_to_current_cpu() -> None:
    """Keep this process, and the commands it starts, on the CPU it runs on.
    On a shared host each CPU's speed changes on its own, so the
    calibration kernel measures the speed the timed work gets only when
    both run on the same CPU.  Where the CPU cannot be read or pinned,
    nothing is done."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass


pin_to_current_cpu()

import argparse
import cProfile
import hashlib
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


PASSES = ("plain", "traced", "profile")
DEADLINE_S = 170  # a run must end within 180 s
SETUP_KERNELS = 5  # calibration kernel runs after the set-up


def parse_args():
    p = argparse.ArgumentParser(description="hlab benchmark")
    p.add_argument("--workload", required=True, choices=("witness", "oracle", "euclid", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one pass of a traced run, in a child process (see trace)
    p.add_argument("--pass", dest="pass_", choices=PASSES, help=argparse.SUPPRESS)
    return p.parse_args()


args = parse_args()
if not os.path.isfile(os.path.join(SRC, "hlab", "__init__.py")):
    fail(f"no hlab sources under {SRC}")
sys.path[:0] = [SRC, HERE]

import hlab  # noqa: E402

if os.path.dirname(os.path.abspath(hlab.__file__)) != os.path.join(SRC, "hlab"):
    fail(f"imported hlab from {hlab.__file__}, not from {SRC}")

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS = os.path.join(HERE, "results")


def fraction_leaves(obj):
    if isinstance(obj, Fraction):
        yield obj
    elif isinstance(obj, bytes):  # cli output: the "p/q" strings it prints
        yield from (Fraction(int(t)) for t in re.findall(rb"\d+", obj))
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from fraction_leaves(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from fraction_leaves(v)


def max_bits(records) -> int:
    return max((max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                for q in fraction_leaves(records)), default=0)


def digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()


class Clock:
    """Timed work, excluding calibration.  With ``calibrate`` set, the
    calibration kernel runs at every ``tick`` and the time since the last
    tick is also scaled to the nominal machine speed by the mean of the
    kernel times at its two ends."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.cal = [calibration.kernel_s()] if calibrate else []
        self.raw_s = self.scaled_s = 0.0
        self.t0 = perf_counter()

    def start(self) -> None:
        self.t0 = perf_counter()

    def tick(self) -> None:
        dt = perf_counter() - self.t0
        self.raw_s += dt
        if self.calibrate:
            self.cal.append(calibration.kernel_s())
            self.scaled_s += dt * calibration.NOMINAL_S / ((self.cal[-2] + self.cal[-1]) / 2)
        self.t0 = perf_counter()


class Runner:
    """Runs rounds, times each op, checks each record.  A ``profiler`` is
    enabled around the ops only, not the checks."""

    def __init__(self, wl, calibrate: bool, profiler=None):
        self.wl = wl
        self.profiler = profiler
        self.attempted = self.failed = 0
        self.correct = True
        self.errors: list = []
        self.times: dict = {}   # kind -> raw seconds of each op
        self.scaled: dict = {}  # kind -> calibrated seconds of each op
        self.clock = Clock(calibrate)

    def round(self, i: int) -> list:
        ops = self.wl.round(i)
        raws = []
        for op in ops:
            self.attempted += 1
            raw0, scaled0 = self.clock.raw_s, self.clock.scaled_s
            self.clock.start()
            if self.profiler:
                self.profiler.enable()
            try:
                raw = op.run(self.clock.tick)
            except Exception as exc:  # an operation hlab failed on: count it
                raw = None
                self.failed += 1
                self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            finally:
                if self.profiler:
                    self.profiler.disable()
            self.clock.tick()
            raws.append(raw)
            if raw is not None:
                self.times.setdefault(op.kind, []).append(self.clock.raw_s - raw0)
                self.scaled.setdefault(op.kind, []).append(self.clock.scaled_s - scaled0)
        records = []
        for op, raw in zip(ops, raws):
            if raw is None:
                continue
            try:
                rec = op.record(raw)
                op.check(rec)
            except Exception as exc:  # a wrong or unreadable output
                self.correct = False
                self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            records.append(rec)
        return records

    def ops_per_s(self, times: dict) -> float:
        """Geometric mean over op kinds of each kind's ops per second, so
        that every kind weighs the same however long its ops take."""
        rates = [len(ts) / sum(ts) for ts in times.values()]
        if not rates:  # every op failed
            return 0.0
        return math.prod(rates) ** (1 / len(rates))


def make_workload(name: str, seed: int, workdir: str):
    cls = workloads.WORKLOADS[name]
    return cls(seed, workdir) if name == "cli" else cls(seed)


# A fresh interpreter imports hlab, then times the calibration kernel in
# the same process: the set-up's wall time runs from the parent's clock
# reading just before the spawn (time.time() is shared between processes).
CLI_SETUP = """
import sys, time
import hlab
done = time.time()
sys.path.insert(0, sys.argv[2])
import calibration
print(done - float(sys.argv[1]), *(calibration.kernel_s() for _ in range(SETUP_KERNELS)))
"""


def setup_seconds(name: str) -> tuple:
    """(Set-up seconds, kernel times): one cold set-up and the calibration
    kernel timed after it in the same process.  For cli the set-up is one
    command's: spawning a fresh interpreter and importing hlab."""
    if name != "cli":
        raw = perf_counter() - STARTED
        return raw, [calibration.kernel_s() for _ in range(SETUP_KERNELS)]
    env = dict(os.environ, PYTHONPATH=SRC)
    code = CLI_SETUP.replace("SETUP_KERNELS", str(SETUP_KERNELS))
    proc = subprocess.run([sys.executable, "-c", code, repr(time.time()), HERE], env=env,
                          stdout=subprocess.PIPE, check=True, timeout=60)
    raw, *kernels = map(float, proc.stdout.split())
    return raw, kernels


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, name: str, seconds: float, setup_s: float) -> tuple:
    runner = Runner(wl, calibrate=True)
    i = 0
    # cli needs two rounds: each command's bytes are compared with its last run
    while i < 2 or runner.clock.raw_s < seconds:
        runner.round(i)
        i += 1
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(name), "unit": "MB"},
        "cal_ops_per_s": {"value": runner.ops_per_s(runner.scaled), "unit": "1/s"},
    }
    detail = {"rounds": i, "ops": runner.attempted - runner.failed, "timed_s": runner.clock.raw_s,
              "raw_ops_per_s": runner.ops_per_s(runner.times),
              "calibration_p50_s": statistics.median(runner.clock.cal)}
    for kind, ts in sorted(runner.times.items()):
        detail[f"{kind}_p50_s"] = statistics.median(ts)
        detail[f"{kind}_count"] = len(ts)
    return runner, metrics, detail


def trace_pass(name: str, seed: int, mode: str, workdir: str) -> dict:
    """One pass of the workload's trace rounds, in a process of its own so
    that no pass sees another's inputs or state: ``plain``, ``traced`` (the
    per-layer wrappers) or ``profile`` (cProfile, for the time inside
    fractions.py).  The pass builds its own workload, so the traced pass
    also counts the calls its set-up makes (hulls, norms,
    euclidean_approx)."""
    tracer = tracing.Tracer() if mode == "traced" else None
    profiler = cProfile.Profile() if mode == "profile" else None
    if tracer:
        tracer.install()
    try:
        wl = make_workload(name, seed, workdir)
        if name == "cli":
            wl.in_process = True  # cli.main in-process, stdout captured
        runner = Runner(wl, calibrate=mode != "profile", profiler=profiler)
        records = [rec for i in range(wl.TRACE_ROUNDS) for rec in runner.round(i)]
    finally:
        if tracer:
            tracer.uninstall()
    out = {"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed,
           "errors": runner.errors, "digest": digest(records), "max_bits": max_bits(records),
           "raw_s": runner.clock.raw_s, "scaled_s": runner.clock.scaled_s,
           "rounds": wl.TRACE_ROUNDS}
    if tracer:
        out["metrics"] = tracer.metrics()
        out["spans"] = len(tracer.span_fn)
        tracer.write(os.path.join(RESULTS, f"trace-{name}"))
    if profiler:
        out["fraction_s"] = tracing.fraction_seconds(profiler)
    return out


def trace(name: str, seed: int) -> tuple:
    """The trace rounds three times, each pass in a fresh process on the
    same inputs: plain, traced, and under cProfile."""
    passes = {}
    for mode in PASSES:
        remaining = DEADLINE_S - (perf_counter() - STARTED)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "1", "--pass", mode],
            stdout=subprocess.PIPE, timeout=max(remaining, 1), check=True)
        passes[mode] = json.loads(proc.stdout.decode().splitlines()[-1])
    plain, traced, profile = (passes[m] for m in PASSES)

    metrics = traced["metrics"]
    metrics["_scalar.fraction_s"] = {"value": profile["fraction_s"], "unit": "s"}
    metrics["_scalar.max_bits"] = {"value": plain["max_bits"], "unit": "bits"}
    # both passes scaled to the nominal machine speed, as in --trace 0
    metrics["trace.overhead_ratio"] = {
        "value": traced["scaled_s"] / plain["scaled_s"] - 1, "unit": "ratio"}
    errors = [e for p in passes.values() for e in p["errors"]]
    same = len({p["digest"] for p in passes.values()}) == 1
    if not same:
        errors.append("traced or profiled outputs differ from untraced outputs")
    outcome = {"correct": same and all(p["correct"] for p in passes.values()),
               "attempted": sum(p["attempted"] for p in passes.values()),
               "failed": sum(p["failed"] for p in passes.values()), "errors": errors}
    detail = {"rounds": plain["rounds"], "plain_s": plain["raw_s"], "traced_s": traced["raw_s"],
              "spans": traced["spans"], "digest": plain["digest"], "digests_equal": same}
    return outcome, metrics, detail


def main() -> int:
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"cli-{os.getpid()}")  # cli's scenes and SVGs
    try:
        if args.pass_:
            print(json.dumps(trace_pass(args.workload, args.seed, args.pass_, workdir)))
            return 0
        if args.trace:
            outcome, metrics, detail = trace(args.workload, args.seed)
        else:
            wl = make_workload(args.workload, args.seed, workdir)
            setup_raw_s, kernels = setup_seconds(args.workload)
            # scaled to the nominal machine speed like the ops; the median of
            # several kernel runs, because the first runs in a process are cold
            setup_s = setup_raw_s * calibration.NOMINAL_S / statistics.median(kernels)
            runner, metrics, detail = measure(wl, args.workload, args.seconds, setup_s)
            detail["setup_raw_s"] = setup_raw_s
            outcome = {"correct": runner.correct, "attempted": runner.attempted,
                       "failed": runner.failed, "errors": runner.errors}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "backend": hlab.BACKEND, "python": sys.version.split()[0], **detail,
            "errors": outcome["errors"][:10]}
    result = {"correct": outcome["correct"], "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    with open(os.path.join(RESULTS, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
