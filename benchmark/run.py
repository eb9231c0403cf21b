"""Run the fdarray benchmark on one workload (or all of them).

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Run from the root of a checkout. With ``--trace 0`` it times whole passes
over the workload's ops for about ``--seconds`` and prints the end-to-end
metrics, with op times scaled to the host's fast-phase speed (see
``HostSpeed``); with ``--trace 1`` it runs each op untraced and then as a
traced replay and prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
See benchmark/README.md.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
NAMES = ("sweep", "coarray", "cli", "analyze")
# Set-ups per run: the run's own and the rest in fresh interpreters, spread
# over the timed passes so their median meets the same host phases as the ops.
SETUP_SAMPLES = 5
# One BLAS thread: within any nproc cap, no extra threads, and op times
# free of thread wake-up noise on a small shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Passes a workload needs at least: cli runs every command twice so a
# rerun can be compared byte for byte; analyze times every study four
# times (about 35 s), since its few N = 300 studies hold most of its time
# and set its p90: at three passes its p90 spread over ten runs was 0.16,
# at four 0.09-0.12.
MIN_PASSES = {"cli": 2, "analyze": 4}
# The reference unit timed around every op: an exact-rational sum and a
# numpy complex exponential, the two kinds of work fdarray's ops are made
# of, about 1 ms each on a 2-vCPU Xeon VM. A reading is the median of
# REF_REPEATS units.
REF_TERMS = 250
REF_SAMPLES = 1 << 14
REF_REPEATS = 3
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "success_rate")
PER_LAYER_EXTRA = (
    "si_model.retained_bytes_per_entry", "beampattern.peak_alloc_mb", "coarray.collapsed_rows", "io.inexact_roundtrips",
)
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name, seed, workdir):
    """Import, BLAS warm-up and input generation; returns (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    np.linalg.svd(a)
    np.linalg.norm(a, 2)
    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl, time.perf_counter() - t0


class SetupSamples:
    """The run's own set-up time, then set-ups in fresh interpreters taken
    between ops at even steps of ``--seconds``; any not due by the end of
    the passes are taken then."""

    def __init__(self, args, first_s):
        self.cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
        self.samples = [first_s]
        start, step = time.perf_counter(), args.seconds / SETUP_SAMPLES
        self.due = [start + k * step for k in range(1, SETUP_SAMPLES)]

    def take(self):
        out = subprocess.run(self.cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT)
        self.samples.append(float(out.stdout.strip().splitlines()[-1]))

    def between_ops(self):
        if self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.take()

    def median(self):
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return statistics.median(self.samples)


class HostSpeed:
    """The host's speed through a run, read from a fixed reference unit
    timed just before every op and once after the last.

    A shared host drifts between phases of different speed (about 1.6x
    apart on the VM the README describes) that last up to a minute, too
    long for one run to average out. Even a slow phase has moments at
    full speed, so the run's fastest reading is the fast phase's, and
    scaling an op's time by it over the readings around the op gives the
    op's time at the host's fast-phase speed: what it takes on a machine
    of its own."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.vector = np.exp(1j * np.linspace(0.0, 1.0, REF_SAMPLES))
        self.ref_ms = []

    def unit(self):
        total = Fraction(0)
        for k in range(1, REF_TERMS):
            total += Fraction(1, k)
        return total, float(self.np.abs(self.np.exp(1.5j * self.vector)).sum())

    def probe(self):
        times = []
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter_ns()
            self.unit()
            times.append((time.perf_counter_ns() - t0) / 1e6)
        self.ref_ms.append(statistics.median(times))

    def factors(self):
        """Per op, in run order: the run's fastest reading over the mean of
        the readings before and after the op."""
        ref = self.np.array(self.ref_ms)
        return ref.min() / ((ref[:-1] + ref[1:]) / 2)


class Stats:
    def __init__(self):
        self.times_ms, self.attempted, self.failed, self.errors = {}, 0, 0, []
        self.run_ms = []  # every op run's time, in run order

    def total_s(self):
        return sum(sum(ts) for ts in self.times_ms.values()) / 1e3

    def op_ms(self):
        """Each op's median time over its passes."""
        return {key: statistics.median(ts) for key, ts in self.times_ms.items()}

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def verify(wl, op, result, stats):
    """Oracle check on an op's first run; later runs must match it exactly."""
    try:
        summary = wl.summary(op, result)
        if not op.checked:
            errors = wl.check(op, result)
            op.checked, op.summary, op.facts["ok"] = True, summary, not errors
        elif summary != op.summary:
            errors = [f"{op.key}: output differs from the first run"]
        else:
            errors = [] if op.facts["ok"] else [f"{op.key}: failed its oracle check"]
    except Exception as exc:  # a check that cannot run counts as a failure
        errors = [f"{op.key}: check raised {exc!r}"]
    if errors:
        stats.fail(errors[0])
    return not errors


def timed_op(wl, op, stats, keep=None, host=None):
    gc.collect()
    if host is not None:
        host.probe()
    t0 = time.perf_counter_ns()
    try:
        result, error = wl.run(op), None
    except Exception as exc:  # an op that raises is a failed op
        result, error = None, exc
    dt = (time.perf_counter_ns() - t0) / 1e6
    stats.attempted += 1
    stats.times_ms.setdefault(op.key, []).append(dt)
    stats.run_ms.append(dt)
    if error is not None:
        stats.fail(f"{op.key}: raised {error!r}")
    elif verify(wl, op, result, stats) and keep is not None:
        keep[op.key] = wl.untraced_summary(op, result)


def timed_pass(wl, stats, setups, host):
    for op in wl.order():
        setups.between_ops()
        timed_op(wl, op, stats, host=host)


def pass_count(wl, args, first_s):
    """Whole passes that fill about ``--seconds`` when the first took
    ``first_s``; whole passes keep the op mix, and so the percentiles, the
    same in every run."""
    return max(MIN_PASSES.get(wl.name, 1), round(args.seconds / first_s) if first_s > 0 else 1)


def run_passes(wl, args, stats, setups, host):
    t0 = time.perf_counter_ns()
    timed_pass(wl, stats, setups, host)
    passes = pass_count(wl, args, (time.perf_counter_ns() - t0) / 1e9)
    for _ in range(passes - 1):
        timed_pass(wl, stats, setups, host)
    host.probe()
    return passes, (time.perf_counter_ns() - t0) / 1e9


def end_to_end(wl, args, setup_s):
    import numpy as np

    stats, setups, host = Stats(), SetupSamples(args, setup_s), HostSpeed()
    passes, wall = run_passes(wl, args, stats, setups, host)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup_median = setups.median()
    raw = np.array(stats.run_ms)
    factors = host.factors()
    times = raw * factors
    correct = stats.attempted - stats.failed
    metrics = {
        "setup_s": (setup_median, "s"),
        "ops_per_s": (correct / (times.sum() / 1e3), "1/s"),
        "op_p50_ms": (float(np.percentile(times, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(times, 90)), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (correct / stats.attempted, "ratio"),
    }
    info = {"passes": passes, "ops": stats.attempted, "measured_s": wall, "setup_samples_s": setups.samples,
            "error_rate": stats.failed / stats.attempted, "host_factor_median": float(np.median(factors)),
            "raw_ops_per_s": correct / (raw.sum() / 1e3), "raw_op_p50_ms": float(np.percentile(raw, 50)),
            "raw_op_p90_ms": float(np.percentile(raw, 90)), "op_times_ms": stats.times_ms,
            "run_ms": stats.run_ms, "ref_ms": host.ref_ms}
    return stats, metrics, info


def alloc_metrics(wl):
    """tracemalloc figures, taken in their own pass so they do not inflate span times."""
    import fdarray as fd

    si_case, bp_case = wl.alloc_cases()
    retained = peak = 0.0
    if si_case is not None:
        layout, rho = si_case
        gc.collect()
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        h = fd.si_matrix(layout, rho)
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - base) / (len(layout.tx) * len(layout.rx))
        tracemalloc.stop()
        del h
    if bp_case is not None:
        geometry, theta_s, grid = bp_case
        gc.collect()
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        curve = fd.beampattern(geometry, theta_s, grid)
        peak = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        tracemalloc.stop()
        del curve
    return {"si_model.retained_bytes_per_entry": (retained, "B"), "beampattern.peak_alloc_mb": (peak, "MB")}


def replay_op(wl, op, tracer, untraced, stats):
    gc.collect()
    tracer.op = op.key
    stats.attempted += 1
    try:
        with tracer.span("op", kind=op.kind):
            replayed = wl.replay(op, tracer)
        if wl.replay_summary(op, replayed) != untraced[op.key]:
            stats.fail(f"{op.key}: replayed calls disagree with the untraced op")
    except Exception as exc:  # a replay that raises is a failed op
        stats.fail(f"{op.key}: replay raised {exc!r}")


def traced_pass(wl, tracer, untraced, stats):
    """Each op untraced, then at once its traced replay, so the two meet the
    same phase of the host; whole passes apart they differed by up to 40%."""
    for op in wl.order():
        timed_op(wl, op, stats, keep=untraced)
        if op.key in untraced:
            replay_op(wl, op, tracer, untraced, stats)


def traced(wl, args):
    import tracing

    stats, untraced, tracer = Stats(), {}, tracing.Tracer()
    traced_pass(wl, tracer, untraced, stats)
    passes = pass_count(wl, args, stats.total_s())
    for _ in range(passes - 1):
        traced_pass(wl, tracer, untraced, stats)
    untraced_ms = {key: ms for key, ms in stats.op_ms().items() if key in untraced}
    spans = tracing.median_replay(tracer.spans)
    metrics = tracing.layer_metrics(spans, untraced_ms, wl.orchestrated)
    metrics.update(alloc_metrics(wl))
    counters = {"coarray.collapsed_rows": 0, "io.inexact_roundtrips": 0}
    counters.update(wl.counters())
    metrics.update({k: (v, "count") for k, v in counters.items()})
    return stats, metrics, {"passes": passes, "spans": tracer.spans}


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args):
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "commit": git_commit(), "seed": args.seed, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
    }


def report(args, stats, metrics, extra):
    env = environment(args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:40s} {value:14.6g} {unit}")
    if args.trace == 0:
        print(f"{args.workload:8s} {'error_rate':40s} {extra['error_rate']:14.6g} ratio")
        print(f"{args.workload:8s} {'host_factor (median)':40s} {extra['host_factor_median']:14.6g} ratio")
        for name, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")):
            print(f"{args.workload:8s} {'raw ' + name:40s} {extra['raw_' + name]:14.6g} {unit}")
    for e in stats.errors:
        print("FAILED", e)
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, **extra}, fh, default=str)
    print("env " + json.dumps(env))
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own fresh process; prints every metric of each."""
    ok = True
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = out.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(out.stderr)
        ok = ok and out.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fdarray" / "__init__.py").is_file():
        print(f"benchmark: no fdarray sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        wl, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        # The pre-built inputs live through the whole run; frozen, they are
        # left out of gc.collect() between ops and of collections inside ops.
        gc.collect()
        gc.freeze()
        if args.trace:
            stats, metrics, extra = traced(wl, args)
        else:
            stats, metrics, extra = end_to_end(wl, args, setup_s)
        report(args, stats, metrics, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
